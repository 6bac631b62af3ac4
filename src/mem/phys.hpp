// Physical memory: page frames and the per-NUMA-node frame allocator.
//
// A frame is 4 KiB of simulated physical memory on one node. Frames can be
// *materialized* (carry a real host buffer, so migration really copies bytes
// and tests can verify data integrity) or *phantom* (timing only, so 8 GiB
// worksets fit in host RAM). Capacity per node is enforced; callers fall
// back to other nodes in hop order, as Linux's zonelists do.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include "topo/topology.hpp"

namespace numasim::mem {

inline constexpr unsigned kPageShift = 12;
inline constexpr std::uint64_t kPageSize = 1ull << kPageShift;

/// A frame id: the frame's home node in the high bits and its index on that
/// node in the low PhysMem::index_bits(), so the node follows from the id
/// alone, as Linux derives a page's node from its pfn range (pfn_to_nid).
using FrameId = std::uint32_t;
inline constexpr FrameId kInvalidFrame = static_cast<FrameId>(-1);

/// Whether frames carry real 4 KiB host buffers.
enum class Backing : std::uint8_t { kPhantom, kMaterialized };

class PhysMem {
 public:
  /// Frame pool sized from the topology's per-node DRAM capacity, clamped to
  /// `max_frames_per_node` (0 = no clamp) so unit tests stay tiny.
  ///
  /// Node `n` owns the ids `n << index_bits() | index`. index_bits() is the
  /// bit width of the largest node's highest index, capped at
  /// 31 - bit_width(num_nodes - 1) so that every id stays below 2^31 (and
  /// never meets kInvalidFrame). Only a node with more frames than
  /// 2^index_bits() can run out of ids before it runs out of capacity: on a
  /// 64-node topology, a node above 128 GiB.
  PhysMem(const topo::Topology& topo, Backing backing,
          std::uint64_t max_frames_per_node = 0);

  PhysMem(const PhysMem&) = delete;
  PhysMem& operator=(const PhysMem&) = delete;

  /// Allocate a frame on exactly `node`: its lowest free index, or a fresh
  /// one when none is free. kInvalidFrame when the node is full or (unless
  /// `use_reserve`) its free frames are at/below the min watermark.
  /// `use_reserve` models GFP_ATOMIC-style dips into the reserve pool: only
  /// a truly full node fails. Throws std::length_error, naming the node,
  /// when a fresh index would reach 2^index_bits().
  FrameId alloc_on(topo::NodeId node, bool use_reserve = false);

  /// Allocate on `preferred`, falling back to other nodes in increasing hop
  /// distance (ties by node id), skipping nodes at their min watermark (the
  /// zonelist walk). kInvalidFrame only when every node is exhausted.
  FrameId alloc_near(topo::NodeId preferred, bool use_reserve = false);

  /// Write to `out` the frames that `n` successive alloc_on(node) calls
  /// would return: the node's lowest free indices first, a bitmap word at a
  /// time, then fresh ones. Stops before the first frame alloc_on would
  /// refuse (capacity or min watermark) and leaves no trace of it: that
  /// refusal, and its watermark_blocks count, belong to the next alloc_on.
  /// Returns the frames written, min(n, run_room(node)).
  std::size_t alloc_run(topo::NodeId node, std::size_t n, FrameId* out);

  /// How many successive alloc_on(node) calls would succeed: the node's free
  /// frames above its min watermark.
  std::uint64_t run_room(topo::NodeId node) const {
    const std::uint64_t free = free_frames(node);
    const std::uint64_t wm_min = per_node_[node].wm_min;
    return free > wm_min ? free - wm_min : 0;
  }

  /// Return live frame `f` to its node: free_run of one frame.
  void free(FrameId f) { free_run({&f, 1}); }

  /// free(f) for each frame in order, setting free bits a word at a time. At
  /// a frame that is not live (a second free, a frame repeated in `frames`,
  /// an id never handed out, or kInvalidFrame) it throws std::logic_error
  /// naming that frame, after freeing the frames before it.
  void free_run(std::span<const FrameId> frames);

  // --- memory-pressure model (Linux zone watermarks) -------------------------
  /// Keep `min` frames of every node in reserve (non-reserve allocations fail
  /// first) and flag pressure once free frames drop below `low`. Fractions
  /// of each node's capacity; both default to 0 (no watermarks).
  void set_watermarks(double min_frac, double low_frac);
  /// Per-node override in absolute frames.
  void set_node_watermarks(topo::NodeId n, std::uint64_t min_frames,
                           std::uint64_t low_frames);
  std::uint64_t min_watermark(topo::NodeId n) const { return per_node_[n].wm_min; }
  std::uint64_t low_watermark(topo::NodeId n) const { return per_node_[n].wm_low; }
  /// True when `n`'s free frames are below its low watermark (kswapd would
  /// be running).
  bool under_pressure(topo::NodeId n) const {
    return free_frames(n) < per_node_[n].wm_low;
  }

  /// Shrink (or restore, up to the construction-time size) node `n`'s usable
  /// capacity. Fault plans use this to exhaust a node deterministically;
  /// frames already allocated above the new cap stay valid until freed.
  void set_node_capacity(topo::NodeId n, std::uint64_t frames);

  /// Home node of frame `f` (reads no memory).
  topo::NodeId node_of(FrameId f) const {
    return static_cast<topo::NodeId>(f >> index_bits_);
  }
  /// Index of `f` on its node.
  std::uint32_t index_of(FrameId f) const {
    return f & ((FrameId{1} << index_bits_) - 1);
  }
  /// Bits of a FrameId that hold the index on its node.
  unsigned index_bits() const { return index_bits_; }
  /// Indices created on node `n` so far, live or free: every id handed out
  /// on `n` has an index below this.
  std::uint64_t created_frames(topo::NodeId n) const { return per_node_[n].created; }

  // --- shadow-frame accounting (transactional migration) ---------------------
  /// Mark/unmark `f` as a transactional shadow frame: a second physical copy
  /// of a still-mapped page, held only between the shadow copy and the
  /// commit flip (or abort). No PTE references it, so the consistency audit
  /// accounts for it separately; free() drops the mark automatically.
  void mark_shadow(FrameId f);
  void clear_shadow(FrameId f);
  bool is_shadow(FrameId f) const {
    const topo::NodeId n = node_of(f);
    if (n >= per_node_.size()) return false;
    const std::vector<std::uint64_t>& bits = per_node_[n].shadow_bits;
    const std::uint32_t i = index_of(f);
    return i / 64 < bits.size() && ((bits[i / 64] >> (i % 64)) & 1) != 0;
  }
  std::uint64_t shadow_frames(topo::NodeId n) const {
    return per_node_[n].shadow;
  }
  std::uint64_t total_shadow_frames() const;

  /// Pressure counters: allocations denied only by the min watermark, and
  /// reserve-pool allocations that dipped below it.
  std::uint64_t watermark_blocks(topo::NodeId n) const {
    return per_node_[n].watermark_blocks;
  }
  std::uint64_t reserve_allocs(topo::NodeId n) const {
    return per_node_[n].reserve_allocs;
  }

  /// Host backing of a materialized frame; nullptr for phantom frames. A
  /// free frame's buffer keeps its bytes, but under AddressSanitizer it is
  /// poisoned from its free to its next allocation, so reading a frame
  /// after freeing it is reported.
  std::byte* data(FrameId f) {
    return backing_ == Backing::kPhantom
               ? nullptr
               : per_node_[node_of(f)].data[index_of(f)].get();
  }
  const std::byte* data(FrameId f) const {
    return backing_ == Backing::kPhantom
               ? nullptr
               : per_node_[node_of(f)].data[index_of(f)].get();
  }

  Backing backing() const { return backing_; }
  std::uint64_t capacity_frames(topo::NodeId n) const { return per_node_[n].capacity; }
  std::uint64_t used_frames(topo::NodeId n) const { return per_node_[n].used; }
  std::uint64_t free_frames(topo::NodeId n) const {
    // A capacity cap may drop below the live count; clamp at zero.
    const NodePool& p = per_node_[n];
    return p.used >= p.capacity ? 0 : p.capacity - p.used;
  }
  std::uint64_t total_used_frames() const;

  // --- per-tier occupancy (memory tiering) ------------------------------------
  /// Live frames / usable capacity summed over every node on tier `t`.
  /// `tier_used_frames` is maintained incrementally by take_frame()/free().
  std::uint64_t tier_used_frames(topo::MemTier t) const {
    return tier_used_[static_cast<std::size_t>(t)];
  }
  std::uint64_t tier_capacity_frames(topo::MemTier t) const;

  /// Allocator audit (hooked into Kernel::validate()): the per-tier totals
  /// equal the per-node used counts, and per node the used count equals the
  /// created indices less the free ones, each summary bit matches its word
  /// of free bits, no free bit lies at or past the created count or below
  /// the hint, and shadow bits sit only on live frames, as many as the
  /// shadow count. Throws std::logic_error on drift.
  void audit() const;

  /// True when `f` is a live allocated frame (consistency checks).
  bool is_live(FrameId f) const {
    const topo::NodeId n = node_of(f);
    if (n >= per_node_.size()) return false;
    const NodePool& p = per_node_[n];
    const std::uint32_t i = index_of(f);
    return i < p.created && ((p.free_bits[i / 64] >> (i % 64)) & 1) == 0;
  }

  /// Lifetime counters (diagnostics / tests).
  std::uint64_t total_allocs() const { return allocs_; }
  std::uint64_t total_frees() const { return frees_; }
  std::uint64_t fallback_allocs() const { return fallbacks_; }

 private:
  // A node's frames are its indices [0, created): an index is created on
  // first allocation and recycled through the free bits, never destroyed.
  // No byte per frame remains: liveness is the free bit, and the node is
  // the id's high bits.
  struct NodePool {
    std::uint64_t capacity = 0;
    std::uint64_t base_capacity = 0;  // construction-time size (cap ceiling)
    std::uint64_t used = 0;
    std::uint64_t wm_min = 0;  // frames kept in reserve
    std::uint64_t wm_low = 0;  // pressure threshold
    std::uint64_t watermark_blocks = 0;
    std::uint64_t reserve_allocs = 0;
    std::uint64_t shadow = 0;  // live frames currently marked shadow
    std::uint64_t created = 0;
    std::vector<std::uint64_t> free_bits;  // bit i: index i is free
    std::vector<std::uint64_t> summary;    // bit w: free_bits[w] != 0
    std::size_t hint = 0;                  // summary words below are zero
    std::vector<std::uint64_t> shadow_bits;  // sized on first mark_shadow
    std::vector<std::unique_ptr<std::byte[]>> data;  // kMaterialized, by index
  };

  FrameId take_frame(topo::NodeId node, bool use_reserve);
  /// Count `n` frames taken on `node` (its used count, its tier's, allocs_).
  void count_taken(topo::NodeId node, std::uint64_t n) {
    per_node_[node].used += n;
    tier_used_[static_cast<std::size_t>(node_tier_[node])] += n;
    allocs_ += n;
  }
  /// The lowest free index of `pool`, now live; some index must be free.
  static std::uint64_t take_lowest_free(NodePool& pool);
  /// Create index `pool.created` of `node`, live.
  std::uint64_t new_index(NodePool& pool, topo::NodeId node);
  /// new_index's slow steps: at a word boundary, check the id limit and
  /// grow the bitmaps; under materialized backing, add the host buffer.
  void grow(NodePool& pool, topo::NodeId node);
  [[noreturn]] static void throw_dead_free(FrameId f);
  /// Under AddressSanitizer, poison (on free) or unpoison (on allocation)
  /// the host buffer of index `i` of `pool`; nothing otherwise.
  void poison(NodePool& pool, std::uint64_t i, bool poisoned) {
#if defined(__SANITIZE_ADDRESS__)
    if (backing_ != Backing::kMaterialized) return;
    std::byte* buf = pool.data[i].get();
    if (poisoned) {
      ASAN_POISON_MEMORY_REGION(buf, kPageSize);
    } else {
      ASAN_UNPOISON_MEMORY_REGION(buf, kPageSize);
    }
#else
    (void)pool, (void)i, (void)poisoned;
#endif
  }

  const topo::Topology& topo_;
  Backing backing_;
  unsigned index_bits_ = 0;
  std::vector<NodePool> per_node_;
  std::vector<topo::MemTier> node_tier_;             // cached node -> tier
  std::array<std::uint64_t, 3> tier_used_{};         // live frames per tier
  std::vector<std::vector<topo::NodeId>> fallback_order_;  // per preferred node
  std::uint64_t allocs_ = 0;
  std::uint64_t frees_ = 0;
  std::uint64_t fallbacks_ = 0;
};

// alloc_on / take_frame / alloc_run / free_run / clear_shadow are the
// allocator's per-page hot path (every fault and migration goes through
// them); defined inline so callers don't pay an out-of-line call for a
// handful of counter updates.
inline FrameId PhysMem::alloc_on(topo::NodeId node, bool use_reserve) {
  assert(node < per_node_.size());
  return take_frame(node, use_reserve);
}

inline void PhysMem::clear_shadow(FrameId f) {
  assert(node_of(f) < per_node_.size());
  NodePool& pool = per_node_[node_of(f)];
  if (pool.shadow == 0) return;  // no shadow bit is set on this node
  const std::uint32_t i = index_of(f);
  if (i / 64 >= pool.shadow_bits.size()) return;
  std::uint64_t& word = pool.shadow_bits[i / 64];
  const std::uint64_t bit = std::uint64_t{1} << (i % 64);
  if (word & bit) {
    word &= ~bit;
    --pool.shadow;
  }
}

inline std::uint64_t PhysMem::take_lowest_free(NodePool& pool) {
  std::size_t s = pool.hint;
  while (pool.summary[s] == 0) {
    ++s;
    assert(s < pool.summary.size());
  }
  pool.hint = s;
  const auto w = s * 64 + static_cast<unsigned>(std::countr_zero(pool.summary[s]));
  std::uint64_t& word = pool.free_bits[w];
  const auto b = static_cast<unsigned>(std::countr_zero(word));
  word &= word - 1;
  if (word == 0) pool.summary[s] &= pool.summary[s] - 1;  // w's is the lowest bit
  return w * 64 + b;
}

inline std::uint64_t PhysMem::new_index(NodePool& pool, topo::NodeId node) {
  // A fresh index is live, so its free bit stays clear: most creations only
  // count.
  if (pool.created % 64 == 0 || backing_ == Backing::kMaterialized)
    grow(pool, node);
  return pool.created++;
}

inline FrameId PhysMem::take_frame(topo::NodeId node, bool use_reserve) {
  NodePool& pool = per_node_[node];
  if (pool.used >= pool.capacity) return kInvalidFrame;
  const std::uint64_t free = pool.capacity - pool.used;
  if (free <= pool.wm_min) {
    // Only reserve-entitled allocations may dip below the min watermark.
    if (!use_reserve) {
      ++pool.watermark_blocks;
      return kInvalidFrame;
    }
    ++pool.reserve_allocs;
  }
  // created - used of the node's indices are free (PhysMem::audit checks it).
  std::uint64_t index;
  if (pool.used < pool.created) {
    index = take_lowest_free(pool);
    poison(pool, index, false);
  } else {
    index = new_index(pool, node);
  }
  count_taken(node, 1);
  return static_cast<FrameId>(node << index_bits_ | index);
}

inline std::size_t PhysMem::alloc_run(topo::NodeId node, std::size_t n,
                                      FrameId* out) {
  assert(node < per_node_.size());
  NodePool& pool = per_node_[node];
  // take_frame grants the i-th call while used + i < capacity and the free
  // frames left, capacity - used - i, stay above wm_min.
  const std::size_t k =
      static_cast<std::size_t>(std::min<std::uint64_t>(n, run_room(node)));
  const auto base = static_cast<FrameId>(node << index_bits_);
  // Free indices first, lowest first: each summary bit names a word, whose
  // free bits are taken lowest first until the run has enough.
  const auto recycled =
      static_cast<std::size_t>(std::min<std::uint64_t>(k, pool.created - pool.used));
  std::size_t got = 0;
  if (recycled != 0) {
    std::size_t s = pool.hint;
    while (got < recycled) {
      while (pool.summary[s] == 0) {
        ++s;
        assert(s < pool.summary.size());
      }
      const auto w = s * 64 + static_cast<unsigned>(std::countr_zero(pool.summary[s]));
      std::uint64_t word = pool.free_bits[w];
      do {
        const std::uint64_t i = w * 64 + static_cast<unsigned>(std::countr_zero(word));
        poison(pool, i, false);
        out[got++] = base | static_cast<FrameId>(i);
        word &= word - 1;
      } while (word != 0 && got < recycled);
      pool.free_bits[w] = word;
      if (word == 0) pool.summary[s] &= pool.summary[s] - 1;  // w's is the lowest bit
    }
    pool.hint = s;
    count_taken(node, recycled);
  }
  // Then fresh indices, counted one by one: new_index may throw at the id
  // limit, and the frames before it stay taken, as after alloc_on calls.
  for (; got < k; ++got) {
    out[got] = base | static_cast<FrameId>(new_index(pool, node));
    count_taken(node, 1);
  }
  return k;
}

inline void PhysMem::free_run(std::span<const FrameId> frames) {
  // `bits` gathers the frames of free word `w` of `pool` and is or-ed in
  // when the next frame lies in another word, or at the end, so a run of
  // neighbouring frames sets each word, and counts, once.
  NodePool* pool = nullptr;
  topo::NodeId node = 0;
  std::size_t w = 0;
  std::uint64_t bits = 0;
  auto flush = [&] {
    if (bits == 0) return;
    pool->free_bits[w] |= bits;
    pool->summary[w / 64] |= std::uint64_t{1} << (w % 64);
    pool->hint = std::min(pool->hint, w / 64);
    if (pool->shadow != 0 && w < pool->shadow_bits.size()) {
      // A freed frame drops its shadow mark.
      std::uint64_t& marks = pool->shadow_bits[w];
      pool->shadow -= static_cast<std::uint64_t>(std::popcount(marks & bits));
      marks &= ~bits;
    }
    const auto k = static_cast<std::uint64_t>(std::popcount(bits));
    assert(pool->used >= k);
    pool->used -= k;
    assert(tier_used_[static_cast<std::size_t>(node_tier_[node])] >= k);
    tier_used_[static_cast<std::size_t>(node_tier_[node])] -= k;
    frees_ += k;
    bits = 0;
  };
  for (const FrameId f : frames) {
    const topo::NodeId n = node_of(f);
    const std::uint32_t i = index_of(f);
    if (pool == nullptr || n != node || i / 64 != w) {
      flush();
      if (n >= per_node_.size()) throw_dead_free(f);
      pool = &per_node_[n];
      node = n;
      w = i / 64;
    }
    const std::uint64_t bit = std::uint64_t{1} << (i % 64);
    // Not live: never created, free already, or freed earlier in this run.
    if (i >= pool->created || ((pool->free_bits[w] | bits) & bit) != 0) {
      flush();
      throw_dead_free(f);
    }
    bits |= bit;
    poison(*pool, i, true);
  }
  flush();
}

}  // namespace numasim::mem

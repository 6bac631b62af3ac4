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
#include <vector>

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

  /// Return live frame `f` to its node. Throws std::logic_error naming `f`,
  /// and changes nothing, when `f` is not live: a second free, an id never
  /// handed out, or kInvalidFrame.
  void free(FrameId f);

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

  /// Host backing of a materialized frame; nullptr for phantom frames.
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
  /// The lowest free index of `pool`, now live; some index must be free.
  static std::uint64_t take_lowest_free(NodePool& pool);
  /// Create index `pool.created` of `node`, live.
  std::uint64_t new_index(NodePool& pool, topo::NodeId node);
  /// new_index's slow steps: at a word boundary, check the id limit and
  /// grow the bitmaps; under materialized backing, add the host buffer.
  void grow(NodePool& pool, topo::NodeId node);
  [[noreturn]] static void throw_dead_free(FrameId f);

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

// alloc_on / take_frame / free / clear_shadow are the allocator's per-page
// hot path (every fault and migration goes through them); defined inline so
// callers don't pay an out-of-line call for a handful of counter updates.
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
  const std::uint64_t index =
      pool.used < pool.created ? take_lowest_free(pool) : new_index(pool, node);
  ++pool.used;
  ++tier_used_[static_cast<std::size_t>(node_tier_[node])];
  ++allocs_;
  return static_cast<FrameId>(node << index_bits_ | index);
}

inline void PhysMem::free(FrameId f) {
  if (!is_live(f)) throw_dead_free(f);
  const topo::NodeId node = node_of(f);
  NodePool& pool = per_node_[node];
  const std::uint32_t i = index_of(f);
  const std::size_t w = i / 64;
  pool.free_bits[w] |= std::uint64_t{1} << (i % 64);
  pool.summary[w / 64] |= std::uint64_t{1} << (w % 64);
  pool.hint = std::min(pool.hint, w / 64);
  clear_shadow(f);
  assert(pool.used > 0);
  --pool.used;
  assert(tier_used_[static_cast<std::size_t>(node_tier_[node])] > 0);
  --tier_used_[static_cast<std::size_t>(node_tier_[node])];
  ++frees_;
}

}  // namespace numasim::mem

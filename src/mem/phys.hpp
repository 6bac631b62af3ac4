// Physical memory: page frames and the per-NUMA-node frame allocator.
//
// A frame is 4 KiB of simulated physical memory on one node. Frames can be
// *materialized* (carry a real host buffer, so migration really copies bytes
// and tests can verify data integrity) or *phantom* (timing only, so 8 GiB
// worksets fit in host RAM). Capacity per node is enforced; callers fall
// back to other nodes in hop order, as Linux's zonelists do.
#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "topo/topology.hpp"

namespace numasim::mem {

inline constexpr unsigned kPageShift = 12;
inline constexpr std::uint64_t kPageSize = 1ull << kPageShift;

using FrameId = std::uint32_t;
inline constexpr FrameId kInvalidFrame = static_cast<FrameId>(-1);

/// Whether frames carry real 4 KiB host buffers.
enum class Backing : std::uint8_t { kPhantom, kMaterialized };

/// A LIFO stack of frame ids that keeps consecutive ids as runs, much as
/// the buddy allocator keeps free memory in blocks rather than one entry
/// per page. pop() returns exactly what std::vector::back() would after the
/// same pushes and pops, so a node's free frames are reused in the same
/// order as with a plain vector.
///
/// The stack is one vector of 32-bit words, bottom first:
///   - a lone id is one word, with bit 31 clear;
///   - ids pushed one after another that are consecutive, counting up or
///     down, form a run of two words: the run's lowest id, then a header
///     word with bit 31 set, bit 30 set when the ids were pushed counting
///     down, and the id count in bits 0-29.
/// A run's top (its last-pushed id) is its highest id when it counts up and
/// its lowest when it counts down. The header bit bounds ids below
/// kIdLimit.
class FreeStack {
 public:
  static constexpr FrameId kIdLimit = FrameId{1} << 31;

  bool empty() const { return words_.empty(); }
  std::uint64_t size() const { return size_; }
  /// Words of storage (a lone id costs one, a run two).
  std::size_t words() const { return words_.size(); }

  void push(FrameId f) {
    assert(f < kIdLimit);
    ++size_;
    const std::size_t n = words_.size();
    if (n != 0) {
      const FrameId top = words_[n - 1];
      if (top & kRun) {
        FrameId& lo = words_[n - 2];
        if ((top & kCountMask) < kCountMask) {
          if (top & kDown) {
            if (f + 1 == lo) {
              lo = f;
              words_[n - 1] = top + 1;
              return;
            }
          } else if (f == lo + (top & kCountMask)) {
            words_[n - 1] = top + 1;
            return;
          }
        }
      } else if (f == top + 1 || f + 1 == top) {
        words_[n - 1] = f < top ? f : top;
        words_.push_back(kRun | (f < top ? kDown : FrameId{0}) | FrameId{2});
        return;
      }
    }
    words_.push_back(f);
  }

  FrameId pop() {
    assert(!empty());
    --size_;
    const std::size_t n = words_.size();
    const FrameId top = words_[n - 1];
    if (!(top & kRun)) {
      words_.pop_back();
      return top;
    }
    FrameId& lo = words_[n - 2];
    const FrameId count = top & kCountMask;
    const FrameId id = (top & kDown) ? lo++ : lo + count - 1;
    if (count == 2) {
      words_.pop_back();  // one id left, now in `lo`: a lone word again
    } else {
      words_[n - 1] = top - 1;
    }
    return id;
  }

  /// Visit every id on the stack once (runs in ascending id order).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < words_.size(); ++i) {
      const FrameId w = words_[i];
      if (i + 1 < words_.size() && (words_[i + 1] & kRun)) {
        const FrameId count = words_[++i] & kCountMask;
        for (FrameId k = 0; k < count; ++k) fn(w + k);
      } else {
        fn(w);
      }
    }
  }

 private:
  static constexpr FrameId kRun = FrameId{1} << 31;
  static constexpr FrameId kDown = FrameId{1} << 30;
  static constexpr FrameId kCountMask = kDown - 1;

  std::vector<FrameId> words_;
  std::uint64_t size_ = 0;
};

class PhysMem {
 public:
  /// Frame pool sized from the topology's per-node DRAM capacity, clamped to
  /// `max_frames_per_node` (0 = no clamp) so unit tests stay tiny.
  PhysMem(const topo::Topology& topo, Backing backing,
          std::uint64_t max_frames_per_node = 0);

  PhysMem(const PhysMem&) = delete;
  PhysMem& operator=(const PhysMem&) = delete;

  /// Allocate a frame on exactly `node`; kInvalidFrame when the node is full
  /// or (unless `use_reserve`) its free frames are at/below the min
  /// watermark. `use_reserve` models GFP_ATOMIC-style dips into the reserve
  /// pool: only a truly full node fails.
  FrameId alloc_on(topo::NodeId node, bool use_reserve = false);

  /// Allocate on `preferred`, falling back to other nodes in increasing hop
  /// distance (ties by node id), skipping nodes at their min watermark (the
  /// zonelist walk). kInvalidFrame only when every node is exhausted.
  FrameId alloc_near(topo::NodeId preferred, bool use_reserve = false);

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

  /// Home node of frame `f`.
  topo::NodeId node_of(FrameId f) const { return frames_[f] & kNodeMask; }

  // --- shadow-frame accounting (transactional migration) ---------------------
  /// Mark/unmark `f` as a transactional shadow frame: a second physical copy
  /// of a still-mapped page, held only between the shadow copy and the
  /// commit flip (or abort). No PTE references it, so the consistency audit
  /// accounts for it separately; free() drops the mark automatically.
  void mark_shadow(FrameId f);
  void clear_shadow(FrameId f);
  bool is_shadow(FrameId f) const {
    return f < frames_.size() && (frames_[f] & kShadow) != 0;
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
  std::byte* data(FrameId f) { return data_.empty() ? nullptr : data_[f].get(); }
  const std::byte* data(FrameId f) const {
    return data_.empty() ? nullptr : data_[f].get();
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
  /// equal the per-node used counts, each node's used count equals its live
  /// frames, and each node's free stack holds every one of its dead frames
  /// exactly once and nothing else. Throws std::logic_error on drift.
  void audit() const;

  /// True when `f` is a live allocated frame (consistency checks).
  bool is_live(FrameId f) const {
    return f < frames_.size() && (frames_[f] & kInUse) != 0;
  }
  /// Frames created so far: every FrameId handed out is below this.
  std::uint64_t frame_id_limit() const { return frames_.size(); }

  /// Lifetime counters (diagnostics / tests).
  std::uint64_t total_allocs() const { return allocs_; }
  std::uint64_t total_frees() const { return frees_; }
  std::uint64_t fallback_allocs() const { return fallbacks_; }

 private:
  // The frame byte (frames_): bits 0-5 hold the home node, which never
  // changes; kInUse marks a live frame and kShadow one held by an in-flight
  // transactional migration (never set without kInUse).
  static constexpr std::uint8_t kNodeMask = 0x3F;
  static constexpr std::uint8_t kInUse = 1u << 6;
  static constexpr std::uint8_t kShadow = 1u << 7;
  static_assert(topo::kMaxNodes - 1 <= kNodeMask,
                "the frame byte's node bits must hold every NodeId");

  struct NodePool {
    std::uint64_t capacity = 0;
    std::uint64_t base_capacity = 0;  // construction-time size (cap ceiling)
    std::uint64_t used = 0;
    std::uint64_t wm_min = 0;  // frames kept in reserve
    std::uint64_t wm_low = 0;  // pressure threshold
    std::uint64_t watermark_blocks = 0;
    std::uint64_t reserve_allocs = 0;
    std::uint64_t shadow = 0;  // live frames currently marked shadow
    FreeStack free_list;  // frames returned by free()
  };

  FrameId take_frame(topo::NodeId node, bool use_reserve);
  /// Create frame id frame_id_limit() on `node`, live. Throws
  /// std::length_error once ids would reach FreeStack::kIdLimit.
  FrameId new_frame(topo::NodeId node);

  const topo::Topology& topo_;
  Backing backing_;
  // The frame table, dense and indexed by FrameId: a frame is created on
  // first allocation and recycled through its node's free stack, never
  // destroyed. Phantom backing keeps one byte per frame; materialized adds
  // the 4 KiB host buffer, which survives recycling.
  std::vector<std::uint8_t> frames_;                // node | kInUse | kShadow
  std::vector<std::unique_ptr<std::byte[]>> data_;  // kMaterialized only
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
  assert(f < frames_.size());
  if (frames_[f] & kShadow) {
    frames_[f] &= static_cast<std::uint8_t>(~kShadow);
    assert(per_node_[node_of(f)].shadow > 0);
    --per_node_[node_of(f)].shadow;
  }
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
  FrameId id;
  if (!pool.free_list.empty()) {
    id = pool.free_list.pop();
    // A store, not a read-modify-write: the stack holds only ids homed on
    // `node` (PhysMem::audit checks it).
    frames_[id] = static_cast<std::uint8_t>(node | kInUse);
  } else {
    id = new_frame(node);
  }
  ++pool.used;
  ++tier_used_[static_cast<std::size_t>(node_tier_[node])];
  ++allocs_;
  return id;
}

inline void PhysMem::free(FrameId f) {
  assert(is_live(f));
  clear_shadow(f);
  frames_[f] &= kNodeMask;
  const topo::NodeId node = node_of(f);
  NodePool& pool = per_node_[node];
  assert(pool.used > 0);
  --pool.used;
  assert(tier_used_[static_cast<std::size_t>(node_tier_[node])] > 0);
  --tier_used_[static_cast<std::size_t>(node_tier_[node])];
  ++frees_;
  pool.free_list.push(f);
}

}  // namespace numasim::mem

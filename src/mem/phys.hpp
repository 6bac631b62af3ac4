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

  /// Home node of frame `f` — the single hottest lookup in the simulator
  /// (every access/walk resolves frame placement per page).
  topo::NodeId node_of(FrameId f) const { return node_[f]; }

  // --- shadow-frame accounting (transactional migration) ---------------------
  /// Mark/unmark `f` as a transactional shadow frame: a second physical copy
  /// of a still-mapped page, held only between the shadow copy and the
  /// commit flip (or abort). No PTE references it, so the consistency audit
  /// accounts for it separately; free() drops the mark automatically.
  void mark_shadow(FrameId f);
  void clear_shadow(FrameId f);
  bool is_shadow(FrameId f) const {
    return f < state_.size() && state_[f] == (kInUse | kShadow);
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
  /// `tier_used_frames` is maintained incrementally by take_frame()/free();
  /// audit_tiers() recomputes it from the per-node pools and throws
  /// std::logic_error on drift (hooked into Kernel::validate()).
  std::uint64_t tier_used_frames(topo::MemTier t) const {
    return tier_used_[static_cast<std::size_t>(t)];
  }
  std::uint64_t tier_capacity_frames(topo::MemTier t) const;
  void audit_tiers() const;

  /// True when `f` is a live allocated frame (consistency checks).
  bool is_live(FrameId f) const {
    return f < state_.size() && (state_[f] & kInUse) != 0;
  }
  /// Frames created so far: every FrameId handed out is below this.
  std::uint64_t frame_id_limit() const { return state_.size(); }

  /// Lifetime counters (diagnostics / tests).
  std::uint64_t total_allocs() const { return allocs_; }
  std::uint64_t total_frees() const { return frees_; }
  std::uint64_t fallback_allocs() const { return fallbacks_; }

 private:
  // Per-frame state bits (state_). kShadow: held by an in-flight
  // transactional migration.
  static constexpr std::uint8_t kInUse = 1u << 0;
  static constexpr std::uint8_t kShadow = 1u << 1;

  struct NodePool {
    std::uint64_t capacity = 0;
    std::uint64_t base_capacity = 0;  // construction-time size (cap ceiling)
    std::uint64_t used = 0;
    std::uint64_t wm_min = 0;  // frames kept in reserve
    std::uint64_t wm_low = 0;  // pressure threshold
    std::uint64_t watermark_blocks = 0;
    std::uint64_t reserve_allocs = 0;
    std::uint64_t shadow = 0;  // live frames currently marked shadow
    std::vector<FrameId> free_list;  // frames returned by free()
  };

  FrameId take_frame(topo::NodeId node, bool use_reserve);

  const topo::Topology& topo_;
  Backing backing_;
  // The frame table, dense and indexed by FrameId: a frame is created on
  // first allocation and recycled through its node's free list, never
  // destroyed. Phantom backing keeps 5 bytes per frame; materialized adds
  // the 4 KiB host buffer, which survives recycling.
  std::vector<topo::NodeId> node_;                  // home node (fixed)
  std::vector<std::uint8_t> state_;                 // kInUse | kShadow
  std::vector<std::unique_ptr<std::byte[]>> data_;  // kMaterialized only
  std::vector<NodePool> per_node_;
  std::vector<topo::MemTier> node_tier_;             // cached node -> tier
  std::array<std::uint64_t, 3> tier_used_{};         // live frames per tier
  std::vector<std::vector<topo::NodeId>> fallback_order_;  // per preferred node
  std::uint64_t allocs_ = 0;
  std::uint64_t frees_ = 0;
  std::uint64_t fallbacks_ = 0;
};

// take_frame / free / clear_shadow are the allocator's per-page hot path
// (every fault and migration goes through them); defined inline so callers
// don't pay an out-of-line call for a handful of counter updates.
inline void PhysMem::clear_shadow(FrameId f) {
  assert(f < state_.size());
  if (state_[f] & kShadow) {
    state_[f] &= static_cast<std::uint8_t>(~kShadow);
    assert(per_node_[node_[f]].shadow > 0);
    --per_node_[node_[f]].shadow;
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
  ++pool.used;
  ++tier_used_[static_cast<std::size_t>(node_tier_[node])];
  ++allocs_;
  FrameId id;
  if (!pool.free_list.empty()) {
    id = pool.free_list.back();
    pool.free_list.pop_back();
    state_[id] = kInUse;
  } else {
    id = static_cast<FrameId>(node_.size());
    node_.push_back(node);
    state_.push_back(kInUse);
    if (backing_ == Backing::kMaterialized)
      data_.push_back(std::make_unique<std::byte[]>(kPageSize));
  }
  return id;
}

inline void PhysMem::free(FrameId f) {
  assert(is_live(f));
  clear_shadow(f);
  state_[f] = 0;
  const topo::NodeId node = node_[f];
  NodePool& pool = per_node_[node];
  assert(pool.used > 0);
  --pool.used;
  assert(tier_used_[static_cast<std::size_t>(node_tier_[node])] > 0);
  --tier_used_[static_cast<std::size_t>(node_tier_[node])];
  ++frees_;
  pool.free_list.push_back(f);
}

}  // namespace numasim::mem

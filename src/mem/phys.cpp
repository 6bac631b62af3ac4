#include "mem/phys.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>
#include <string>

namespace numasim::mem {

PhysMem::PhysMem(const topo::Topology& topo, Backing backing,
                 std::uint64_t max_frames_per_node)
    : topo_(topo), backing_(backing) {
  per_node_.resize(topo.num_nodes());
  fallback_order_.resize(topo.num_nodes());
  node_tier_.reserve(topo.num_nodes());
  for (topo::NodeId n = 0; n < topo.num_nodes(); ++n)
    node_tier_.push_back(topo.node_spec(n).tier);
  for (topo::NodeId n = 0; n < topo.num_nodes(); ++n) {
    std::uint64_t cap = topo.node_spec(n).dram_capacity_bytes >> kPageShift;
    if (max_frames_per_node != 0) cap = std::min(cap, max_frames_per_node);
    per_node_[n].capacity = cap;
    per_node_[n].base_capacity = cap;

    auto& order = fallback_order_[n];
    order.resize(topo.num_nodes());
    std::iota(order.begin(), order.end(), topo::NodeId{0});
    std::stable_sort(order.begin(), order.end(), [&](topo::NodeId a, topo::NodeId b) {
      return topo.hops(n, a) < topo.hops(n, b);
    });
  }
}

FrameId PhysMem::new_frame(topo::NodeId node) {
  // Ids at or past FreeStack::kIdLimit would collide with its run headers
  // (and, further on, wrap into kInvalidFrame).
  if (frames_.size() >= FreeStack::kIdLimit)
    throw std::length_error{"PhysMem: frame ids exhausted (" +
                            std::to_string(FreeStack::kIdLimit) + " frames)"};
  const auto id = static_cast<FrameId>(frames_.size());
  frames_.push_back(static_cast<std::uint8_t>(node | kInUse));
  if (backing_ == Backing::kMaterialized)
    data_.push_back(std::make_unique<std::byte[]>(kPageSize));
  return id;
}

FrameId PhysMem::alloc_near(topo::NodeId preferred, bool use_reserve) {
  assert(preferred < per_node_.size());
  for (topo::NodeId n : fallback_order_[preferred]) {
    const FrameId f = take_frame(n, use_reserve);
    if (f != kInvalidFrame) {
      if (n != preferred) ++fallbacks_;
      return f;
    }
  }
  return kInvalidFrame;
}

void PhysMem::set_watermarks(double min_frac, double low_frac) {
  assert(min_frac >= 0.0 && low_frac >= min_frac);
  for (topo::NodeId n = 0; n < per_node_.size(); ++n) {
    const double cap = static_cast<double>(per_node_[n].capacity);
    set_node_watermarks(n, static_cast<std::uint64_t>(cap * min_frac),
                        static_cast<std::uint64_t>(cap * low_frac));
  }
}

void PhysMem::set_node_watermarks(topo::NodeId n, std::uint64_t min_frames,
                                  std::uint64_t low_frames) {
  assert(n < per_node_.size());
  per_node_[n].wm_min = min_frames;
  per_node_[n].wm_low = std::max(min_frames, low_frames);
}

void PhysMem::set_node_capacity(topo::NodeId n, std::uint64_t frames) {
  assert(n < per_node_.size());
  per_node_[n].capacity = std::min(frames, per_node_[n].base_capacity);
}

void PhysMem::mark_shadow(FrameId f) {
  assert(is_live(f));
  if (!(frames_[f] & kShadow)) {
    frames_[f] |= kShadow;
    ++per_node_[node_of(f)].shadow;
  }
}

std::uint64_t PhysMem::total_shadow_frames() const {
  std::uint64_t sum = 0;
  for (const auto& p : per_node_) sum += p.shadow;
  return sum;
}

std::uint64_t PhysMem::tier_capacity_frames(topo::MemTier t) const {
  std::uint64_t sum = 0;
  for (topo::NodeId n = 0; n < per_node_.size(); ++n)
    if (node_tier_[n] == t) sum += per_node_[n].capacity;
  return sum;
}

void PhysMem::audit() const {
  auto fail = [](const std::string& what) {
    throw std::logic_error{"PhysMem::audit: " + what};
  };
  std::array<std::uint64_t, 3> want{};
  for (topo::NodeId n = 0; n < per_node_.size(); ++n)
    want[static_cast<std::size_t>(node_tier_[n])] += per_node_[n].used;
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (want[i] != tier_used_[i])
      fail("tier " + std::string{topo::mem_tier_name(static_cast<topo::MemTier>(i))} +
           " accounts " + std::to_string(tier_used_[i]) + " used frames, nodes sum to " +
           std::to_string(want[i]));
  }

  // Frame ids homed on each node, and how many of them are live.
  std::array<std::uint64_t, kNodeMask + 1> homed{}, live{};
  for (const std::uint8_t b : frames_) {
    ++homed[b & kNodeMask];
    if (b & kInUse) ++live[b & kNodeMask];
  }
  std::vector<bool> seen(frames_.size());
  for (topo::NodeId n = 0; n < per_node_.size(); ++n) {
    const NodePool& p = per_node_[n];
    const std::string node = "node " + std::to_string(n);
    if (live[n] != p.used)
      fail(node + " counts " + std::to_string(p.used) + " used frames, " +
           std::to_string(live[n]) + " are live");
    std::uint64_t held = 0;
    p.free_list.for_each([&](FrameId f) {
      if (f >= frames_.size() || node_of(f) != n || is_live(f) || seen[f])
        fail(node + " free stack holds frame " + std::to_string(f) +
             ", which is not one of the node's free frames");
      seen[f] = true;
      ++held;
    });
    if (held != p.free_list.size() || held != homed[n] - p.used)
      fail(node + " free stack holds " + std::to_string(held) + " frames (size " +
           std::to_string(p.free_list.size()) + "), " +
           std::to_string(homed[n] - p.used) + " are free");
  }
}

std::uint64_t PhysMem::total_used_frames() const {
  std::uint64_t sum = 0;
  for (const auto& p : per_node_) sum += p.used;
  return sum;
}

}  // namespace numasim::mem

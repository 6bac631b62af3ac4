#include "mem/phys.hpp"

#include <algorithm>
#include <bit>
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
  std::uint64_t top_index = 0;  // the largest node's highest index
  for (const NodePool& p : per_node_)
    if (p.capacity != 0) top_index = std::max(top_index, p.capacity - 1);
  const unsigned node_bits = static_cast<unsigned>(std::bit_width(topo.num_nodes() - 1));
  index_bits_ = std::min(static_cast<unsigned>(std::bit_width(top_index)),
                         31 - node_bits);
}

// When the cap binds, index_bits_ is at least 25, so 2^index_bits_ is a
// multiple of 64 and grow() sees every index that could reach it. Without
// the cap, 2^index_bits_ is at least every node's capacity, which take_frame
// never lets `created` pass.
static_assert(31 - std::bit_width(topo::kMaxNodes - 1) >= 6,
              "PhysMem::grow checks the id limit at 64-index boundaries only");

void PhysMem::grow(NodePool& pool, topo::NodeId node) {
  if (pool.created % 64 == 0) {
    if (pool.created >> index_bits_ != 0)
      throw std::length_error{"PhysMem: node " + std::to_string(node) +
                              " has used all 2^" + std::to_string(index_bits_) +
                              " of its frame ids"};
    if (pool.free_bits.size() % 64 == 0) pool.summary.push_back(0);
    pool.free_bits.push_back(0);
  }
  if (backing_ == Backing::kMaterialized)
    pool.data.push_back(std::make_unique<std::byte[]>(kPageSize));
}

void PhysMem::throw_dead_free(FrameId f) {
  throw std::logic_error{"PhysMem::free: frame " + std::to_string(f) +
                         " is not live"};
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
  NodePool& pool = per_node_[node_of(f)];
  const std::uint32_t i = index_of(f);
  if (i / 64 >= pool.shadow_bits.size()) pool.shadow_bits.resize(pool.free_bits.size());
  std::uint64_t& word = pool.shadow_bits[i / 64];
  const std::uint64_t bit = std::uint64_t{1} << (i % 64);
  if (!(word & bit)) {
    word |= bit;
    ++pool.shadow;
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

  for (topo::NodeId n = 0; n < per_node_.size(); ++n) {
    const NodePool& p = per_node_[n];
    auto fail_node = [&](const std::string& what) {
      fail("node " + std::to_string(n) + " " + what);
    };
    const std::size_t words = (p.created + 63) / 64;
    if (p.free_bits.size() != words || p.summary.size() != (words + 63) / 64 ||
        p.shadow_bits.size() > words)
      fail_node("has " + std::to_string(p.free_bits.size()) + " free words, " +
                std::to_string(p.summary.size()) + " summary words and " +
                std::to_string(p.shadow_bits.size()) + " shadow words for " +
                std::to_string(p.created) + " created frames");
    // Bits of word w that stand for created indices.
    auto created_mask = [&](std::size_t w) {
      return w + 1 < words || p.created % 64 == 0
                 ? ~std::uint64_t{0}
                 : (std::uint64_t{1} << (p.created % 64)) - 1;
    };
    std::uint64_t free = 0;
    for (std::size_t w = 0; w < p.summary.size() * 64; ++w) {
      const std::uint64_t bits = w < words ? p.free_bits[w] : 0;
      const bool summarized = ((p.summary[w / 64] >> (w % 64)) & 1) != 0;
      if (summarized != (bits != 0))
        fail_node("summary bit of free word " + std::to_string(w) + " is " +
                  (summarized ? "set" : "clear") + ", the word holds " +
                  std::to_string(std::popcount(bits)) + " free frames");
      if (bits == 0) continue;
      if (bits & ~created_mask(w))
        fail_node("marks an index at or past its " + std::to_string(p.created) +
                  " created frames free (word " + std::to_string(w) + ")");
      if (w / 64 < p.hint)
        fail_node("free word " + std::to_string(w) + " lies below the hint " +
                  std::to_string(p.hint));
      free += static_cast<std::uint64_t>(std::popcount(bits));
    }
    if (p.used != p.created - free)
      fail_node("counts " + std::to_string(p.used) + " used frames, " +
                std::to_string(p.created - free) + " are live (" +
                std::to_string(p.created) + " created, " + std::to_string(free) +
                " free)");
    std::uint64_t marked = 0;
    for (std::size_t w = 0; w < p.shadow_bits.size(); ++w) {
      const std::uint64_t bits = p.shadow_bits[w];
      if (bits & (p.free_bits[w] | ~created_mask(w)))
        fail_node("marks a frame that is not live as shadow (word " +
                  std::to_string(w) + ")");
      marked += static_cast<std::uint64_t>(std::popcount(bits));
    }
    if (marked != p.shadow)
      fail_node("counts " + std::to_string(p.shadow) + " shadow frames, " +
                std::to_string(marked) + " are marked");
  }
}

std::uint64_t PhysMem::total_used_frames() const {
  std::uint64_t sum = 0;
  for (const auto& p : per_node_) sum += p.used;
  return sum;
}

}  // namespace numasim::mem

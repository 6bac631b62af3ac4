// Unit tests for physical frames and the per-node allocator.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <initializer_list>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "mem/phys.hpp"
#include "topo/topology.hpp"

namespace numasim::mem {
namespace {

class PhysMemTest : public ::testing::Test {
 protected:
  topo::Topology topo_ = topo::Topology::quad_opteron();
};

TEST_F(PhysMemTest, AllocOnExactNode) {
  PhysMem pm(topo_, Backing::kPhantom, 16);
  const FrameId f = pm.alloc_on(2);
  ASSERT_NE(f, kInvalidFrame);
  EXPECT_EQ(pm.node_of(f), 2u);
  EXPECT_EQ(pm.used_frames(2), 1u);
  EXPECT_EQ(pm.used_frames(0), 0u);
  pm.free(f);
  EXPECT_EQ(pm.used_frames(2), 0u);
  EXPECT_EQ(pm.total_frees(), 1u);
}

TEST_F(PhysMemTest, CapacityEnforced) {
  PhysMem pm(topo_, Backing::kPhantom, 2);
  EXPECT_NE(pm.alloc_on(0), kInvalidFrame);
  EXPECT_NE(pm.alloc_on(0), kInvalidFrame);
  EXPECT_EQ(pm.alloc_on(0), kInvalidFrame);
  EXPECT_EQ(pm.free_frames(0), 0u);
}

TEST_F(PhysMemTest, FallbackPrefersNearNodes) {
  PhysMem pm(topo_, Backing::kPhantom, 1);
  EXPECT_EQ(pm.node_of(pm.alloc_near(0)), 0u);
  // Node 0 full: next nearest are 1-hop neighbours (1 and 2), id order.
  EXPECT_EQ(pm.node_of(pm.alloc_near(0)), 1u);
  EXPECT_EQ(pm.node_of(pm.alloc_near(0)), 2u);
  EXPECT_EQ(pm.node_of(pm.alloc_near(0)), 3u);
  EXPECT_EQ(pm.alloc_near(0), kInvalidFrame);  // machine full
  EXPECT_EQ(pm.fallback_allocs(), 3u);
}

TEST_F(PhysMemTest, FreeListReusesFrames) {
  PhysMem pm(topo_, Backing::kPhantom, 4);
  const FrameId a = pm.alloc_on(1);
  pm.free(a);
  const FrameId b = pm.alloc_on(1);
  EXPECT_EQ(a, b);

  // Allocs and frees interleaved over three nodes. With 16 frames a node,
  // node n owns the ids n << 4 | index; fresh indices count up from 0 on
  // each node, and each node hands back its lowest free index first.
  PhysMem q(topo_, Backing::kPhantom, 16);
  ASSERT_EQ(q.index_bits(), 4u);
  std::vector<FrameId> got;
  auto take = [&](std::initializer_list<topo::NodeId> nodes) {
    for (topo::NodeId n : nodes) got.push_back(q.alloc_on(n));
  };
  auto drop = [&](std::initializer_list<std::size_t> taken) {  // positions in got
    for (std::size_t i : taken) q.free(got[i]);
  };
  take({0, 1, 0, 2, 0, 1, 2, 0, 1, 1, 1, 1});
  drop({2, 0, 4, 8, 9, 10, 11, 3, 7, 6});
  take({0, 1, 1, 0, 2});
  drop({14, 5});
  take({1, 1, 1, 1, 1, 2, 0});
  drop({21, 13, 18, 19});
  take({1, 1, 0, 1});
  EXPECT_EQ(got, (std::vector<FrameId>{0, 16, 1, 32, 2, 17, 33, 3, 18, 19,
                                       20, 21, 0, 18, 19, 1, 32, 17, 19, 20,
                                       21, 22, 33, 2, 18, 19, 3, 20}));
  EXPECT_EQ(q.used_frames(1), 6u);  // 22 is node 1's only free frame
  EXPECT_EQ(q.created_frames(1), 7u);
  EXPECT_NO_THROW(q.audit());
}

TEST(PhysMemNodeBits, LastNodeOfTheWidestTopologySurvivesEveryStateChange) {
  // 64 nodes of 2^28 frames: the index width is capped at 31 - 6 = 25 bits,
  // so node 63 owns the ids up to 2^31 - 1.
  const topo::Topology topo =
      topo::Topology::from_spec("nodes=64 cores=1 mem_gb=1024");
  PhysMem pm(topo, Backing::kPhantom);
  ASSERT_EQ(pm.index_bits(), 25u);
  ASSERT_EQ(pm.node_of(pm.alloc_on(62)), 62u);
  const FrameId f = pm.alloc_on(63);
  ASSERT_EQ(f, FrameId{63} << 25);
  EXPECT_EQ(pm.node_of(f), 63u);
  pm.mark_shadow(f);
  EXPECT_TRUE(pm.is_shadow(f));
  EXPECT_EQ(pm.node_of(f), 63u);
  EXPECT_EQ(pm.shadow_frames(63), 1u);
  pm.clear_shadow(f);
  EXPECT_FALSE(pm.is_shadow(f));
  EXPECT_TRUE(pm.is_live(f));
  EXPECT_EQ(pm.node_of(f), 63u);
  pm.free(f);
  EXPECT_FALSE(pm.is_live(f));
  EXPECT_EQ(pm.node_of(f), 63u);
  EXPECT_EQ(pm.used_frames(63), 0u);
  EXPECT_EQ(pm.alloc_on(63), f);
  EXPECT_TRUE(pm.is_live(f));
  EXPECT_EQ(pm.node_of(f), 63u);
  EXPECT_EQ(pm.used_frames(63), 1u);
  EXPECT_NO_THROW(pm.audit());
}

TEST(PhysMemNodeBits, ANodePastItsIdRangeThrowsNamingTheNode) {
  // Node 63 has 2^28 frames of capacity but 2^25 ids. Its last id is
  // 2^31 - 1: no id sets bit 31, so none can equal kInvalidFrame.
  const topo::Topology topo =
      topo::Topology::from_spec("nodes=64 cores=1 mem_gb=1024");
  PhysMem pm(topo, Backing::kPhantom);
  constexpr FrameId kIds = FrameId{1} << 25;
  for (FrameId i = 0; i < kIds; ++i) ASSERT_EQ(pm.alloc_on(63), 63 * kIds + i);
  try {
    (void)pm.alloc_on(63);
    ADD_FAILURE() << "node 63 handed out an id past its range";
  } catch (const std::length_error& e) {
    EXPECT_NE(std::string{e.what()}.find("node 63"), std::string::npos) << e.what();
  }
  EXPECT_EQ(pm.used_frames(63), kIds);
  const FrameId top = (FrameId{1} << 31) - 1;
  ASSERT_TRUE(pm.is_live(top));
  pm.free(top);
  EXPECT_EQ(pm.alloc_on(63), top);
  EXPECT_NO_THROW(pm.audit());
}

TEST_F(PhysMemTest, FreeOfADeadFrameThrowsAndChangesNothing) {
  PhysMem pm(topo_, Backing::kPhantom, 100);
  const FrameId a = pm.alloc_on(1);
  const FrameId b = pm.alloc_on(1);
  pm.free(a);
  const FrameId never = pm.alloc_on(2) + 5;  // index 5 of node 2 was never created
  ASSERT_FALSE(pm.is_live(never));
  for (const FrameId dead : {a, never, kInvalidFrame}) {
    const std::uint64_t used1 = pm.used_frames(1), used2 = pm.used_frames(2);
    const std::uint64_t frees = pm.total_frees();
    try {
      pm.free(dead);
      ADD_FAILURE() << "freed dead frame " << dead;
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string{e.what()}.find(std::to_string(dead)), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(pm.used_frames(1), used1);
    EXPECT_EQ(pm.used_frames(2), used2);
    EXPECT_EQ(pm.total_frees(), frees);
    EXPECT_FALSE(pm.is_live(dead));
    EXPECT_NO_THROW(pm.audit());
  }
  // The double free did not put `a` on the free list twice.
  EXPECT_EQ(pm.alloc_on(1), a);
  EXPECT_EQ(pm.alloc_on(1), b + 1);
  EXPECT_TRUE(pm.is_live(b));
}

// --- the allocator against a reference model -----------------------------------

/// PhysMem's contract in plain containers: per node a capacity, watermarks,
/// a created count and a std::set of free indices taken lowest first.
struct AllocatorModel {
  AllocatorModel(const topo::Topology& t, std::uint64_t frames, unsigned index_bits)
      : topology(t), bits(index_bits), nodes(t.num_nodes()) {
    for (Node& n : nodes) n.capacity = n.base = frames;
  }

  FrameId alloc_on(topo::NodeId n, bool reserve) {
    Node& m = nodes[n];
    if (m.used >= m.capacity) return kInvalidFrame;
    if (m.capacity - m.used <= m.wm_min && !reserve) return kInvalidFrame;
    std::uint64_t index = m.created;
    if (m.free.empty()) {
      ++m.created;
    } else {
      index = *m.free.begin();
      m.free.erase(m.free.begin());
    }
    ++m.used;
    const FrameId f = static_cast<FrameId>(n << bits | index);
    live.insert(f);
    return f;
  }
  FrameId alloc_near(topo::NodeId preferred, bool reserve) {
    std::vector<topo::NodeId> order(nodes.size());
    for (topo::NodeId n = 0; n < order.size(); ++n) order[n] = n;
    std::stable_sort(order.begin(), order.end(), [&](topo::NodeId a, topo::NodeId b) {
      return topology.hops(preferred, a) < topology.hops(preferred, b);
    });
    for (topo::NodeId n : order)
      if (const FrameId f = alloc_on(n, reserve); f != kInvalidFrame) return f;
    return kInvalidFrame;
  }
  void free(FrameId f) {
    Node& m = nodes[f >> bits];
    m.free.insert(f & ((FrameId{1} << bits) - 1));
    --m.used;
    live.erase(f);
    shadow.erase(f);
  }
  void set_capacity(topo::NodeId n, std::uint64_t frames) {
    nodes[n].capacity = std::min(frames, nodes[n].base);
  }
  void set_watermarks(topo::NodeId n, std::uint64_t min, std::uint64_t low) {
    nodes[n].wm_min = min;
    nodes[n].wm_low = std::max(min, low);
  }

  struct Node {
    std::uint64_t capacity = 0, base = 0, used = 0, created = 0;
    std::uint64_t wm_min = 0, wm_low = 0;
    std::set<std::uint64_t> free;
  };
  const topo::Topology& topology;
  unsigned bits;
  std::vector<Node> nodes;
  std::set<FrameId> live, shadow;
};

TEST(PhysMemModelTest, TakesWhatALowestFreeFirstModelTakes) {
  // 4 nodes of 4,500 frames: 71 words of free bits, two summary words. Bursts
  // fill a node past 4,096 frames, so the lowest free frame is often in the
  // second summary word and the hint moves both ways.
  const topo::Topology topo = topo::Topology::quad_opteron();
  constexpr std::uint64_t kFrames = 4500;
  for (std::uint32_t seed = 1; seed <= 20; ++seed) {
    std::mt19937 rng(seed);
    auto below = [&](std::uint64_t n) { return rng() % n; };
    PhysMem pm(topo, Backing::kPhantom, kFrames);
    ASSERT_EQ(pm.index_bits(), 13u);
    AllocatorModel model(topo, kFrames, pm.index_bits());
    std::vector<FrameId> touched;
    auto pick_live = [&]() -> FrameId {
      if (model.live.empty()) return kInvalidFrame;
      // The live frame at or after a random id, wrapping to the first.
      auto it = model.live.lower_bound(static_cast<FrameId>(below(4u << 13)));
      return it == model.live.end() ? *model.live.begin() : *it;
    };
    for (int op = 0; op < 20000; ++op) {
      touched.clear();
      const auto burst = 1 + below(below(8) == 0 ? 600 : 24);
      const auto node = static_cast<topo::NodeId>(below(8) < 5 ? 0 : below(4));
      const bool reserve = below(4) == 0;
      switch (below(10)) {
        case 0:
        case 1:
        case 2:
          for (std::uint64_t i = 0; i < burst; ++i) {
            const FrameId f = pm.alloc_on(node, reserve);
            ASSERT_EQ(f, model.alloc_on(node, reserve)) << "seed " << seed << " op " << op;
            touched.push_back(f);
          }
          break;
        case 3:
          for (std::uint64_t i = 0; i < burst; ++i) {
            const FrameId f = pm.alloc_near(node, reserve);
            ASSERT_EQ(f, model.alloc_near(node, reserve)) << "seed " << seed << " op " << op;
            touched.push_back(f);
          }
          break;
        case 4:
        case 5:
        case 6:
          for (std::uint64_t i = 0; i < burst && !model.live.empty(); ++i) {
            const FrameId f = pick_live();
            pm.free(f);
            model.free(f);
            touched.push_back(f);
          }
          break;
        case 7:
          for (std::uint64_t i = 0; i < burst && !model.live.empty(); ++i) {
            const FrameId f = pick_live();
            if (below(2) == 0) {
              pm.mark_shadow(f);
              model.shadow.insert(f);
            } else {
              pm.clear_shadow(f);
              model.shadow.erase(f);
            }
            touched.push_back(f);
          }
          break;
        case 8: {
          const std::uint64_t cap = below(3) == 0 ? kFrames : below(kFrames + 100);
          pm.set_node_capacity(node, cap);
          model.set_capacity(node, cap);
          break;
        }
        default: {
          const std::uint64_t min = below(3) == 0 ? 0 : below(200);
          const std::uint64_t low = below(400);
          pm.set_node_watermarks(node, min, low);
          model.set_watermarks(node, min, low);
          break;
        }
      }
      touched.push_back(static_cast<FrameId>(below(4u << 13)));  // any id
      for (topo::NodeId n = 0; n < 4; ++n) {
        const AllocatorModel::Node& m = model.nodes[n];
        ASSERT_EQ(pm.used_frames(n), m.used) << "seed " << seed << " op " << op;
        ASSERT_EQ(pm.free_frames(n), m.used >= m.capacity ? 0 : m.capacity - m.used);
        ASSERT_EQ(pm.created_frames(n), m.created);
        ASSERT_EQ(pm.under_pressure(n), pm.free_frames(n) < m.wm_low);
      }
      for (const FrameId f : touched) {
        ASSERT_EQ(pm.is_live(f), model.live.count(f) == 1) << "seed " << seed << " frame " << f;
        ASSERT_EQ(pm.is_shadow(f), model.shadow.count(f) == 1) << "seed " << seed << " frame " << f;
      }
      ASSERT_EQ(pm.total_shadow_frames(), model.shadow.size());
      ASSERT_NO_THROW(pm.audit()) << "seed " << seed << " op " << op;
    }
  }
}

// --- topology specs through the allocator ---------------------------------------

TEST(PhysMemSpecFuzz, EverySpecIsRejectedOrAllocatesOnItsLastNode) {
  // Specs drawn from the grammar's 19 keys and a pool of edge values. Each
  // either fails with a SpecError or builds a topology whose PhysMem hands
  // its last node a frame that maps back to that node.
  const std::vector<std::string> keys = {
      "nodes",   "cores",  "shape",   "link_bw", "hop_ns",  "dram_bw",
      "dram_ns", "l3_mb",  "mem_gb",  "ghz",     "flops_per_cycle",
      "tiers",   "fast_bw", "fast_ns", "fast_mb", "far_bw",  "far_wr_bw",
      "far_ns",  "far_mb"};
  const std::vector<std::string> edges = {
      "0", "-1", "0.5", "1e-9", "nan", "inf", "1e30", "64", "65", "4294967296",
      "17179869183", "", "junk"};
  const std::vector<std::string> plain = {"0.5", "1", "2", "3", "4", "8", "1024"};
  const std::vector<std::string> tiers = {
      "fast:1", "dram:64", "fast:1,dram:63", "fast:0", "dram:65", "bogus:1",
      "fast:", "fast:1,,dram:1", "fast:4294967296"};
  const std::vector<std::string> shapes = {"ring", "line", "mesh", "star", "torus", ""};
  std::mt19937 rng(2009);
  auto pick = [&](const std::vector<std::string>& pool) {
    return pool[rng() % pool.size()];
  };
  int built = 0, empty_last = 0, capped = 0;
  for (int i = 0; i < 5000; ++i) {
    // A third of the values are edge tokens. nodes= and cores= are usually
    // given, tiers= often (and then often summing to nodes=), each other key
    // now and then.
    const auto nodes = static_cast<unsigned>(1 + rng() % 64);
    std::string spec;
    for (const std::string& key : keys) {
      const bool required = key == "nodes" || key == "cores";
      if (rng() % 20 >= (required ? 18u : key == "tiers" ? 12u : 3u)) continue;
      std::string value = rng() % 3 == 0 ? pick(edges) : pick(plain);
      if (key == "nodes" && rng() % 2) value = std::to_string(nodes);
      if (key == "cores" && rng() % 2) value = "1";
      if (key == "shape") value = pick(shapes);
      if (key == "tiers") {
        // Random counts summing to nodes=, listed in a random order.
        std::vector<std::string> parts;
        unsigned left = nodes;
        const char* names[] = {"fast:", "far:", "dram:"};
        for (int k = 0; k < 3; ++k) {
          const auto count = k == 2 ? left : static_cast<unsigned>(rng() % (left + 1));
          if (count != 0) parts.push_back(names[k] + std::to_string(count));
          left -= count;
        }
        std::shuffle(parts.begin(), parts.end(), rng);
        value.clear();
        for (const std::string& part : parts) value += (value.empty() ? "" : ",") + part;
        if (rng() % 3 == 0) value = pick(tiers);
      }
      spec += key + "=" + value + " ";
    }
    std::optional<topo::Topology> topo;
    try {
      topo.emplace(topo::Topology::from_spec(spec));
    } catch (const topo::SpecError&) {
      continue;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "'" << spec << "' threw " << e.what();
      continue;
    }
    ++built;
    PhysMem pm(*topo, Backing::kPhantom);
    const auto last = static_cast<topo::NodeId>(topo->num_nodes() - 1);
    const unsigned cap = 31u - static_cast<unsigned>(std::bit_width(topo->num_nodes() - 1));
    EXPECT_LE(pm.index_bits(), cap) << spec;
    capped += pm.index_bits() == cap;
    const FrameId f = pm.alloc_on(last);
    if (pm.capacity_frames(last) == 0) {
      EXPECT_EQ(f, kInvalidFrame) << spec;
      ++empty_last;
      continue;
    }
    ASSERT_NE(f, kInvalidFrame) << spec;
    EXPECT_LT(f, FrameId{1} << 31) << spec;
    EXPECT_EQ(pm.node_of(f), last) << spec;
    pm.free(f);
    EXPECT_FALSE(pm.is_live(f)) << spec;
    EXPECT_EQ(pm.alloc_on(last), f) << spec;
    EXPECT_EQ(pm.node_of(f), last) << spec;
    EXPECT_NO_THROW(pm.audit()) << spec;
  }
  // Enough specs parse, some leave the last node without frames, and some
  // hit the index-width cap.
  EXPECT_GT(built, 500);
  EXPECT_GT(empty_last, 0);
  EXPECT_GT(capped, 0);
}

TEST_F(PhysMemTest, MaterializedFramesHaveData) {
  PhysMem pm(topo_, Backing::kMaterialized, 4);
  const FrameId f = pm.alloc_on(0);
  ASSERT_NE(pm.data(f), nullptr);
  std::memset(pm.data(f), 0xAB, kPageSize);
  EXPECT_EQ(static_cast<unsigned char>(pm.data(f)[4095]), 0xABu);
}

TEST_F(PhysMemTest, PhantomFramesHaveNoData) {
  PhysMem pm(topo_, Backing::kPhantom, 4);
  const FrameId f = pm.alloc_on(0);
  EXPECT_EQ(pm.data(f), nullptr);
}

TEST_F(PhysMemTest, CapacityFromTopologyWhenUnclamped) {
  PhysMem pm(topo_, Backing::kPhantom);
  EXPECT_EQ(pm.capacity_frames(0), (8ull << 30) >> kPageShift);
}

TEST_F(PhysMemTest, CountersTrackTotals) {
  PhysMem pm(topo_, Backing::kPhantom, 8);
  std::vector<FrameId> frames;
  for (int i = 0; i < 5; ++i) frames.push_back(pm.alloc_near(3));
  EXPECT_EQ(pm.total_used_frames(), 5u);
  EXPECT_EQ(pm.total_allocs(), 5u);
  for (FrameId f : frames) pm.free(f);
  EXPECT_EQ(pm.total_used_frames(), 0u);
}

TEST_F(PhysMemTest, MinWatermarkReservesFramesForReserveAllocs) {
  PhysMem pm(topo_, Backing::kPhantom, 8);
  pm.set_node_watermarks(0, /*min_frames=*/2, /*low_frames=*/4);
  std::vector<FrameId> frames;
  for (int i = 0; i < 6; ++i) {
    const FrameId f = pm.alloc_on(0);
    ASSERT_NE(f, kInvalidFrame);
    frames.push_back(f);
  }
  // 2 frames left, all reserve: normal allocations fail and are counted...
  EXPECT_EQ(pm.alloc_on(0), kInvalidFrame);
  EXPECT_EQ(pm.watermark_blocks(0), 1u);
  // ...while reserve allocations dip into the pool until truly empty.
  EXPECT_NE(pm.alloc_on(0, /*use_reserve=*/true), kInvalidFrame);
  EXPECT_NE(pm.alloc_on(0, /*use_reserve=*/true), kInvalidFrame);
  EXPECT_EQ(pm.alloc_on(0, /*use_reserve=*/true), kInvalidFrame);
  EXPECT_EQ(pm.reserve_allocs(0), 2u);
}

TEST_F(PhysMemTest, LowWatermarkFlagsPressure) {
  PhysMem pm(topo_, Backing::kPhantom, 8);
  pm.set_watermarks(/*min_frac=*/0.125, /*low_frac=*/0.5);  // min 1, low 4
  EXPECT_EQ(pm.min_watermark(1), 1u);
  EXPECT_EQ(pm.low_watermark(1), 4u);
  EXPECT_FALSE(pm.under_pressure(1));
  for (int i = 0; i < 5; ++i) pm.alloc_on(1);
  EXPECT_TRUE(pm.under_pressure(1));  // 3 free < low of 4
}

TEST_F(PhysMemTest, ZonelistWalkSkipsNodesAtTheirWatermark) {
  PhysMem pm(topo_, Backing::kPhantom, 4);
  pm.set_node_watermarks(0, /*min_frames=*/4, /*low_frames=*/4);
  // Node 0 is entirely reserve: a preferred-node alloc falls through to the
  // next node in hop order instead of failing.
  const FrameId f = pm.alloc_near(0);
  ASSERT_NE(f, kInvalidFrame);
  EXPECT_EQ(pm.node_of(f), 1u);
}

TEST_F(PhysMemTest, CapacityCapExhaustsAndRestores) {
  PhysMem pm(topo_, Backing::kPhantom, 8);
  std::vector<FrameId> frames;
  for (int i = 0; i < 4; ++i) frames.push_back(pm.alloc_on(2));
  pm.set_node_capacity(2, 2);  // below the live count of 4
  EXPECT_EQ(pm.free_frames(2), 0u);  // clamped, no underflow
  EXPECT_EQ(pm.alloc_on(2), kInvalidFrame);
  for (FrameId f : frames) pm.free(f);  // frames above the cap stay valid
  EXPECT_EQ(pm.used_frames(2), 0u);
  pm.set_node_capacity(2, 100);  // clamped to the construction-time size
  EXPECT_EQ(pm.capacity_frames(2), 8u);
  EXPECT_NE(pm.alloc_on(2), kInvalidFrame);
}

TEST_F(PhysMemTest, FreeClearsShadowMark) {
  PhysMem pm(topo_, Backing::kPhantom, 4);
  const FrameId f = pm.alloc_on(1);
  pm.mark_shadow(f);
  EXPECT_TRUE(pm.is_shadow(f));
  EXPECT_EQ(pm.shadow_frames(1), 1u);
  EXPECT_EQ(pm.total_shadow_frames(), 1u);
  pm.free(f);
  EXPECT_FALSE(pm.is_shadow(f));
  EXPECT_EQ(pm.total_shadow_frames(), 0u);
  // The recycled frame comes back live and unmarked.
  ASSERT_EQ(pm.alloc_on(1), f);
  EXPECT_TRUE(pm.is_live(f));
  EXPECT_FALSE(pm.is_shadow(f));
  EXPECT_EQ(pm.shadow_frames(1), 0u);
}

TEST_F(PhysMemTest, LivenessFalsePastTheEndAndOnFreedFrames) {
  PhysMem pm(topo_, Backing::kPhantom, 4);
  EXPECT_FALSE(pm.is_live(0));  // no frame created yet
  EXPECT_FALSE(pm.is_shadow(0));
  const FrameId f = pm.alloc_on(0);
  pm.mark_shadow(f);
  EXPECT_TRUE(pm.is_live(f));
  EXPECT_FALSE(pm.is_live(f + 1));
  EXPECT_FALSE(pm.is_shadow(f + 1));
  EXPECT_FALSE(pm.is_live(kInvalidFrame));
  EXPECT_FALSE(pm.is_shadow(kInvalidFrame));
  pm.free(f);
  EXPECT_FALSE(pm.is_live(f));
  EXPECT_FALSE(pm.is_shadow(f));
}

TEST_F(PhysMemTest, RecycledMaterializedFrameKeepsItsBuffer) {
  PhysMem pm(topo_, Backing::kMaterialized, 4);
  const FrameId f = pm.alloc_on(3);
  ASSERT_NE(pm.data(f), nullptr);
  pm.free(f);
  ASSERT_EQ(pm.alloc_on(3), f);
  ASSERT_NE(pm.data(f), nullptr);
  std::memset(pm.data(f), 0x5A, kPageSize);
  EXPECT_EQ(static_cast<unsigned char>(pm.data(f)[0]), 0x5Au);
}

TEST_F(PhysMemTest, RecycledPhantomFrameHasNoData) {
  PhysMem pm(topo_, Backing::kPhantom, 4);
  const FrameId f = pm.alloc_on(2);
  pm.free(f);
  ASSERT_EQ(pm.alloc_on(2), f);
  EXPECT_EQ(pm.data(f), nullptr);
}

}  // namespace
}  // namespace numasim::mem

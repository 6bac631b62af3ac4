// Unit tests for physical frames and the per-node allocator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <initializer_list>
#include <random>
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

  // Allocs and frees interleaved over three nodes. Fresh ids count up
  // across nodes, and each node hands back its free frames last-freed
  // first, as a std::vector stack does, whether they were freed as lone
  // ids or as runs counting up (8..11) or down (12..9).
  PhysMem q(topo_, Backing::kPhantom, 16);
  std::vector<FrameId> got;
  auto take = [&](std::initializer_list<topo::NodeId> nodes) {
    for (topo::NodeId n : nodes) got.push_back(q.alloc_on(n));
  };
  auto drop = [&](std::initializer_list<FrameId> ids) {
    for (FrameId f : ids) q.free(f);
  };
  take({0, 1, 0, 2, 0, 1, 2, 0, 1, 1, 1, 1});
  drop({2, 0, 4, 8, 9, 10, 11, 3, 7, 6});
  take({0, 1, 1, 0, 2});
  drop({10, 5});
  take({1, 1, 1, 1, 1, 2, 0});
  drop({12, 11, 10, 9});
  take({1, 1, 0, 1});
  EXPECT_EQ(got, (std::vector<FrameId>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9,
                                       10, 11, 7, 11, 10, 4, 6, 5, 10, 9,
                                       8, 12, 3, 0, 9, 10, 2, 11}));
  EXPECT_EQ(q.used_frames(1), 6u);  // 12 is node 1's only free frame
  EXPECT_NO_THROW(q.audit());
}

TEST(PhysMemNodeBits, LastNodeOfTheWidestTopologySurvivesEveryStateChange) {
  const topo::Topology topo = topo::Topology::from_spec("nodes=64 cores=1");
  PhysMem pm(topo, Backing::kPhantom, 4);
  ASSERT_EQ(pm.node_of(pm.alloc_on(62)), 62u);
  const FrameId f = pm.alloc_on(63);
  ASSERT_NE(f, kInvalidFrame);
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

// --- FreeStack ----------------------------------------------------------------

TEST(FreeStackTest, PopsWhatAVectorStackPops) {
  // Random pushes (runs counting up or down, ids next to the top, lone ids)
  // and pops, with ids anywhere below the limit and often right under it.
  constexpr FrameId kLimit = FreeStack::kIdLimit;
  for (std::uint32_t seed = 1; seed <= 20; ++seed) {
    std::mt19937 rng(seed);
    auto pick = [&](FrameId span) -> FrameId {
      switch (rng() % 3) {
        case 0: return static_cast<FrameId>(rng() % 1000);
        case 1: return kLimit - 1 - static_cast<FrameId>(rng() % (1000 + span));
        default: return static_cast<FrameId>(rng() % kLimit);
      }
    };
    FreeStack fs;
    std::vector<FrameId> ref;
    auto push = [&](FrameId f) {
      fs.push(f);
      ref.push_back(f);
    };
    for (int op = 0; op < 20000; ++op) {
      const auto len = static_cast<FrameId>(1 + rng() % 40);
      switch (rng() % 6) {
        case 0:
        case 1:
          for (FrameId i = 0; i < len && !ref.empty(); ++i) {
            ASSERT_EQ(fs.pop(), ref.back()) << "seed " << seed << " op " << op;
            ref.pop_back();
          }
          break;
        case 2: {
          const FrameId lo = std::min(pick(len), kLimit - len);
          for (FrameId i = 0; i < len; ++i) push(lo + i);
          break;
        }
        case 3: {
          const FrameId hi = std::max(pick(len), len - 1);
          for (FrameId i = 0; i < len; ++i) push(hi - i);
          break;
        }
        case 4:  // continue or reverse whatever is on top
          if (!ref.empty() && ref.back() > 0 && ref.back() < kLimit - 1)
            push(rng() % 2 ? ref.back() + 1 : ref.back() - 1);
          break;
        default:
          push(pick(0));
      }
      ASSERT_EQ(fs.size(), ref.size()) << "seed " << seed << " op " << op;
      ASSERT_EQ(fs.empty(), ref.empty());
      ASSERT_LE(fs.words(), ref.size());
    }
    std::vector<FrameId> held;
    fs.for_each([&](FrameId f) { held.push_back(f); });
    std::vector<FrameId> want = ref;
    std::sort(held.begin(), held.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(held, want) << "seed " << seed;
    while (!ref.empty()) {
      ASSERT_EQ(fs.pop(), ref.back()) << "seed " << seed;
      ref.pop_back();
    }
    EXPECT_TRUE(fs.empty());
    EXPECT_EQ(fs.words(), 0u);
  }
}

TEST(FreeStackTest, ConsecutivePushesTakeTwoWords) {
  constexpr FrameId kN = FrameId{1} << 20;
  FreeStack up, down;
  for (FrameId i = 0; i < kN; ++i) {
    up.push(i);
    down.push(kN - 1 - i);
  }
  EXPECT_EQ(up.words(), 2u);
  EXPECT_EQ(down.words(), 2u);
  EXPECT_EQ(up.size(), kN);
  EXPECT_EQ(down.size(), kN);
  EXPECT_EQ(up.pop(), kN - 1);
  EXPECT_EQ(down.pop(), 0u);

  // A run of two shrinks back to one word; runs reach the id limit.
  FreeStack top;
  top.push(FreeStack::kIdLimit - 1);
  EXPECT_EQ(top.words(), 1u);
  top.push(FreeStack::kIdLimit - 2);
  EXPECT_EQ(top.words(), 2u);
  EXPECT_EQ(top.pop(), FreeStack::kIdLimit - 2);
  EXPECT_EQ(top.words(), 1u);
  EXPECT_EQ(top.pop(), FreeStack::kIdLimit - 1);
  EXPECT_TRUE(top.empty());
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

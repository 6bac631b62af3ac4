// Tests for the 2 MiB huge-page extension, including the era-accurate
// limitation the paper's future-work section points at: huge pages cannot
// be migrated.
#include <gtest/gtest.h>

#include <vector>

#include "kern/kernel.hpp"

namespace numasim::kern {
namespace {

constexpr std::uint64_t kHugeSize = 2ull << 20;
constexpr std::uint64_t kHugePages = kHugeSize / mem::kPageSize;

class HugePageTest : public ::testing::Test {
 protected:
  HugePageTest()
      : topo_(topo::Topology::quad_opteron()),
        k_(kern::KernelConfig{.topology = topo_,
                              .backing = mem::Backing::kPhantom}) {
    pid_ = k_.create_process("huge");
  }

  ThreadCtx ctx_on(topo::CoreId core) {
    ThreadCtx t;
    t.pid = pid_;
    t.core = core;
    return t;
  }

  topo::Topology topo_;
  kern::Kernel k_;
  Pid pid_ = 0;
};

TEST_F(HugePageTest, MappingIsAlignedAndBlockPopulated) {
  ThreadCtx t = ctx_on(5);  // node 1
  const vm::Vaddr a =
      k_.sys_mmap(t, 2 * kHugeSize, vm::Prot::kReadWrite, {}, "huge", true);
  EXPECT_EQ(a % kHugeSize, 0u);

  // One touch populates the whole first 2 MiB block with ONE fault.
  const AccessResult r = k_.access(t, a, 8, vm::Prot::kWrite, 3500.0);
  EXPECT_EQ(r.minor_faults, 1u);
  EXPECT_EQ(k_.pages_on_node(pid_, a, kHugeSize, 1), kHugePages);
  EXPECT_EQ(k_.pages_on_node(pid_, a + kHugeSize, kHugeSize, 1), 0u);

  // Later touches inside the block are fault-free.
  const AccessResult r2 = k_.access(t, a + kHugeSize / 2, 4096, vm::Prot::kWrite, 3500.0);
  EXPECT_EQ(r2.minor_faults, 0u);
  // Every PTE of the block carries its frame's node.
  EXPECT_EQ(k_.page_node(pid_, a + kHugeSize - mem::kPageSize), 1u);
  EXPECT_NO_THROW(k_.validate(pid_));
}

TEST_F(HugePageTest, FarFewerFaultsThanSmallPages) {
  ThreadCtx t = ctx_on(0);
  const vm::Vaddr huge =
      k_.sys_mmap(t, 4 * kHugeSize, vm::Prot::kReadWrite, {}, "h", true);
  const AccessResult rh = k_.access(t, huge, 4 * kHugeSize, vm::Prot::kWrite, 3500.0);
  EXPECT_EQ(rh.minor_faults, 4u);

  const vm::Vaddr small = k_.sys_mmap(t, 4 * kHugeSize, vm::Prot::kReadWrite, {}, "s");
  const AccessResult rs = k_.access(t, small, 4 * kHugeSize, vm::Prot::kWrite, 3500.0);
  EXPECT_EQ(rs.minor_faults, 4 * kHugePages);
}

TEST_F(HugePageTest, PopulationIsCheaperThanSmallPages) {
  ThreadCtx th = ctx_on(0);
  const vm::Vaddr huge =
      k_.sys_mmap(th, 8 * kHugeSize, vm::Prot::kReadWrite, {}, "h", true);
  const sim::Time t0 = th.clock;
  k_.access(th, huge, 8 * kHugeSize, vm::Prot::kWrite, 3500.0);
  const sim::Time huge_time = th.clock - t0;

  ThreadCtx ts = ctx_on(0);
  ts.clock = sim::seconds(10);
  const vm::Vaddr small = k_.sys_mmap(ts, 8 * kHugeSize, vm::Prot::kReadWrite, {}, "s");
  const sim::Time t1 = ts.clock;
  k_.access(ts, small, 8 * kHugeSize, vm::Prot::kWrite, 3500.0);
  const sim::Time small_time = ts.clock - t1;

  EXPECT_LT(huge_time, small_time);
}

TEST_F(HugePageTest, RespectsPolicyPlacement) {
  ThreadCtx t = ctx_on(0);
  const vm::Vaddr a =
      k_.sys_mmap(t, kHugeSize, vm::Prot::kReadWrite,
                  vm::MemPolicy::bind(topo::node_mask_of(2)), "h", true);
  k_.access(t, a, 8, vm::Prot::kWrite, 3500.0);
  EXPECT_EQ(k_.pages_on_node(pid_, a, kHugeSize, 2), kHugePages);
  EXPECT_NO_THROW(k_.validate(pid_));
}

TEST_F(HugePageTest, MovePagesRefusesHugePages) {
  ThreadCtx t = ctx_on(0);
  const vm::Vaddr a = k_.sys_mmap(t, kHugeSize, vm::Prot::kReadWrite, {}, "h", true);
  k_.access(t, a, 8, vm::Prot::kWrite, 3500.0);

  std::vector<vm::Vaddr> pages{a, a + mem::kPageSize};
  std::vector<topo::NodeId> nodes(2, 3);
  std::vector<int> status(2, 0);
  EXPECT_EQ(k_.sys_move_pages(t, pages, nodes, status), 0);
  EXPECT_EQ(status[0], -kEINVAL);
  EXPECT_EQ(status[1], -kEINVAL);
  EXPECT_EQ(k_.pages_on_node(pid_, a, kHugeSize, 0), kHugePages);  // unmoved
}

TEST_F(HugePageTest, NextTouchAndReplicationRefused) {
  ThreadCtx t = ctx_on(0);
  const vm::Vaddr a = k_.sys_mmap(t, kHugeSize, vm::Prot::kReadWrite, {}, "h", true);
  k_.access(t, a, 8, vm::Prot::kWrite, 3500.0);
  EXPECT_EQ(k_.sys_madvise(t, a, kHugeSize, Advice::kMigrateOnNextTouch), -kEINVAL);
  EXPECT_EQ(k_.sys_madvise(t, a, kHugeSize, Advice::kReplicate), -kEINVAL);
}

TEST_F(HugePageTest, MigratePagesSkipsHugePages) {
  ThreadCtx t = ctx_on(0);
  const vm::Vaddr h = k_.sys_mmap(t, kHugeSize, vm::Prot::kReadWrite, {}, "h", true);
  const vm::Vaddr s = k_.sys_mmap(t, 8 * mem::kPageSize, vm::Prot::kReadWrite, {}, "s");
  k_.access(t, h, 8, vm::Prot::kWrite, 3500.0);
  k_.access(t, s, 8 * mem::kPageSize, vm::Prot::kWrite, 3500.0);

  const long moved =
      k_.sys_migrate_pages(t, pid_, topo::node_mask_of(0), topo::node_mask_of(1));
  EXPECT_EQ(moved, 8);  // only the small pages
  EXPECT_EQ(k_.pages_on_node(pid_, h, kHugeSize, 0), kHugePages);
  EXPECT_EQ(k_.pages_on_node(pid_, s, 8 * mem::kPageSize, 1), 8u);
}

TEST_F(HugePageTest, UnalignedLengthRejected) {
  ThreadCtx t = ctx_on(0);
  EXPECT_THROW(k_.sys_mmap(t, kHugeSize + mem::kPageSize, vm::Prot::kReadWrite, {},
                           "bad", true),
               std::invalid_argument);
}

}  // namespace
}  // namespace numasim::kern

// Tests for the syscall-interface extensions: the range-based move_pages
// (the paper's proposed overhead reduction), mbind(MPOL_MF_MOVE), meminfo.
#include <gtest/gtest.h>

#include <vector>

#include "kern/kernel.hpp"

namespace numasim::kern {
namespace {

class InterfaceExtTest : public ::testing::Test {
 protected:
  InterfaceExtTest()
      : topo_(topo::Topology::quad_opteron()), k_(kern::KernelConfig{.topology = topo_, .backing = mem::Backing::kPhantom}) {
    pid_ = k_.create_process();
  }

  ThreadCtx ctx_on(topo::CoreId core) {
    ThreadCtx t;
    t.pid = pid_;
    t.core = core;
    return t;
  }

  vm::Vaddr make_buffer(ThreadCtx& t, std::uint64_t npages) {
    const vm::Vaddr a =
        k_.sys_mmap(t, npages * mem::kPageSize, vm::Prot::kReadWrite);
    k_.access(t, a, npages * mem::kPageSize, vm::Prot::kWrite, 3500.0);
    return a;
  }

  topo::Topology topo_;
  kern::Kernel k_;
  Pid pid_ = 0;
};

TEST_F(InterfaceExtTest, RangedMovePagesMigratesRanges) {
  ThreadCtx t = ctx_on(0);
  const vm::Vaddr a = make_buffer(t, 64);
  const vm::Vaddr b = make_buffer(t, 32);

  std::vector<Kernel::MoveRange> ranges{
      {a, 64 * mem::kPageSize, 1},
      {b, 32 * mem::kPageSize, 2},
  };
  EXPECT_EQ(k_.sys_move_pages_ranged(t, ranges), 96);
  EXPECT_EQ(k_.pages_on_node(pid_, a, 64 * mem::kPageSize, 1), 64u);
  EXPECT_EQ(k_.pages_on_node(pid_, b, 32 * mem::kPageSize, 2), 32u);
}

TEST_F(InterfaceExtTest, RangedInterfaceIsFasterThanPerPage) {
  // Same migration through both interfaces: the ranged one must beat the
  // classic array-based call (lower base, cheaper per-page control).
  const std::uint64_t npages = 2048;

  ThreadCtx t1 = ctx_on(0);
  const vm::Vaddr a = make_buffer(t1, npages);
  std::vector<vm::Vaddr> pages;
  for (std::uint64_t i = 0; i < npages; ++i)
    pages.push_back(a + i * mem::kPageSize);
  std::vector<topo::NodeId> nodes(npages, 1);
  std::vector<int> status(npages, 0);
  const sim::Time c0 = t1.clock;
  k_.sys_move_pages(t1, pages, nodes, status);
  const sim::Time classic = t1.clock - c0;

  kern::Kernel k2(kern::KernelConfig{.topology = topo_, .backing = mem::Backing::kPhantom});
  const Pid pid2 = k2.create_process();
  ThreadCtx t2;
  t2.pid = pid2;
  t2.core = 0;
  const vm::Vaddr b = k2.sys_mmap(t2, npages * mem::kPageSize, vm::Prot::kReadWrite);
  k2.access(t2, b, npages * mem::kPageSize, vm::Prot::kWrite, 3500.0);
  const std::vector<Kernel::MoveRange> ranges{{b, npages * mem::kPageSize, 1}};
  const sim::Time r0 = t2.clock;
  EXPECT_EQ(k2.sys_move_pages_ranged(t2, ranges), static_cast<long>(npages));
  const sim::Time ranged = t2.clock - r0;

  EXPECT_LT(ranged, classic);
}

TEST_F(InterfaceExtTest, RangedMovePagesValidation) {
  ThreadCtx t = ctx_on(0);
  const vm::Vaddr a = make_buffer(t, 4);
  std::vector<Kernel::MoveRange> zero{{a, 0, 1}};
  EXPECT_EQ(k_.sys_move_pages_ranged(t, zero), -kEINVAL);
  std::vector<Kernel::MoveRange> bad_node{{a, mem::kPageSize, 99}};
  EXPECT_EQ(k_.sys_move_pages_ranged(t, bad_node), -kEINVAL);
  std::vector<Kernel::MoveRange> unmapped{{0x100, mem::kPageSize, 1}};
  EXPECT_EQ(k_.sys_move_pages_ranged(t, unmapped), -kEFAULT);
}

TEST_F(InterfaceExtTest, RangedMovePagesRejectsAnInvalidRangeBeforeMoving) {
  // A valid range followed by an invalid one fails the whole call before
  // any page moves, charged as a call whose only range is invalid.
  ThreadCtx t = ctx_on(0);
  const vm::Vaddr a = make_buffer(t, 8);
  const std::vector<Kernel::MoveRange> mixed{{a, 8 * mem::kPageSize, 1},
                                             {a, 8 * mem::kPageSize, 99}};
  const sim::Time t0 = t.clock;
  EXPECT_EQ(k_.sys_move_pages_ranged(t, mixed), -kEINVAL);
  const sim::Time mixed_cost = t.clock - t0;
  EXPECT_EQ(k_.pages_on_node(pid_, a, 8 * mem::kPageSize, 0), 8u);
  EXPECT_EQ(k_.stats().pages_migrated_move, 0u);

  const std::vector<Kernel::MoveRange> invalid{{a, 8 * mem::kPageSize, 99}};
  const sim::Time t1 = t.clock;
  EXPECT_EQ(k_.sys_move_pages_ranged(t, invalid), -kEINVAL);
  EXPECT_EQ(mixed_cost, t.clock - t1);
  k_.validate(pid_);
}

TEST_F(InterfaceExtTest, RangedMovePagesSkipsHugePages) {
  ThreadCtx t = ctx_on(0);
  const std::uint64_t huge = 2ull << 20;
  const vm::Vaddr h = k_.sys_mmap(t, huge, vm::Prot::kReadWrite, {}, "h", true);
  k_.access(t, h, 8, vm::Prot::kWrite, 3500.0);
  const std::vector<Kernel::MoveRange> ranges{{h, huge, 1}};
  EXPECT_EQ(k_.sys_move_pages_ranged(t, ranges), 0);  // nothing migratable
  EXPECT_EQ(k_.pages_on_node(pid_, h, huge, 0), huge / mem::kPageSize);
}

TEST_F(InterfaceExtTest, MbindMoveExistingMigratesToPolicy) {
  ThreadCtx t = ctx_on(0);
  const std::uint64_t len = 16 * mem::kPageSize;
  const vm::Vaddr a = make_buffer(t, 16);  // first-touch: node 0
  ASSERT_EQ(k_.pages_on_node(pid_, a, len, 0), 16u);

  // Rebind to interleave WITHOUT move: placement unchanged.
  EXPECT_EQ(k_.sys_mbind(t, a, len, vm::MemPolicy::interleave(0b1111)), 0);
  EXPECT_EQ(k_.pages_on_node(pid_, a, len, 0), 16u);

  // With MPOL_MF_MOVE: pages redistribute to match the interleave.
  EXPECT_EQ(k_.sys_mbind(t, a, len, vm::MemPolicy::interleave(0b1111), true), 0);
  for (topo::NodeId n = 0; n < 4; ++n)
    EXPECT_EQ(k_.pages_on_node(pid_, a, len, n), 4u);
}

TEST_F(InterfaceExtTest, MbindMoveToBindNode) {
  ThreadCtx t = ctx_on(0);
  const std::uint64_t len = 8 * mem::kPageSize;
  const vm::Vaddr a = make_buffer(t, 8);
  EXPECT_EQ(k_.sys_mbind(t, a, len, vm::MemPolicy::bind(topo::node_mask_of(3)), true),
            0);
  EXPECT_EQ(k_.pages_on_node(pid_, a, len, 3), 8u);
}

TEST_F(InterfaceExtTest, MeminfoReportsUsage) {
  ThreadCtx t = ctx_on(0);
  make_buffer(t, 16);
  const std::string info = k_.meminfo();
  EXPECT_NE(info.find("node 0:"), std::string::npos);
  EXPECT_NE(info.find("node 3:"), std::string::npos);
  EXPECT_NE(info.find("64 KB used"), std::string::npos);
  EXPECT_NE(info.find("8192 MB total"), std::string::npos);
}

}  // namespace
}  // namespace numasim::kern

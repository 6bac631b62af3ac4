// Unit tests for the simulated kernel: policies, faults, move_pages,
// migrate_pages, madvise(MIGRATE_ON_NEXT_TOUCH), mprotect + SIGSEGV.
//
// The kernel API is synchronous (the coroutine runtime sits above it), so
// these tests drive it directly with hand-built ThreadCtx objects.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "kern/kernel.hpp"

namespace numasim::kern {
namespace {

class KernelTest : public ::testing::Test {
 protected:
  KernelTest()
      : topo_(topo::Topology::quad_opteron()),
        k_(KernelConfig{.topology = topo_, .backing = mem::Backing::kMaterialized}) {
    pid_ = k_.create_process("test");
  }

  ThreadCtx ctx_on(topo::CoreId core) {
    ThreadCtx t;
    t.pid = pid_;
    t.core = core;
    return t;
  }

  std::vector<vm::Vaddr> pages_of(vm::Vaddr addr, std::uint64_t len) {
    std::vector<vm::Vaddr> v;
    for (vm::Vpn p = vm::vpn_of(addr); p < vm::vpn_of(addr + len - 1) + 1; ++p)
      v.push_back(vm::addr_of(p));
    return v;
  }

  topo::Topology topo_;
  Kernel k_;
  Pid pid_ = 0;
};

TEST_F(KernelTest, FirstTouchAllocatesOnLocalNode) {
  ThreadCtx t = ctx_on(4);  // node 1
  const vm::Vaddr a = k_.sys_mmap(t, 8 * mem::kPageSize, vm::Prot::kReadWrite);
  EXPECT_EQ(k_.page_node(pid_, a), topo::kInvalidNode);  // lazy

  const AccessResult r =
      k_.access(t, a, 8 * mem::kPageSize, vm::Prot::kReadWrite, 3500.0);
  EXPECT_EQ(r.pages, 8u);
  EXPECT_EQ(r.minor_faults, 8u);
  for (vm::Vaddr p : pages_of(a, 8 * mem::kPageSize))
    EXPECT_EQ(k_.page_node(pid_, p), 1u);
  EXPECT_GT(t.clock, 0u);
  EXPECT_EQ(k_.stats().minor_faults, 8u);
}

TEST_F(KernelTest, InterleavePolicySpreadsPagesDeterministically) {
  ThreadCtx t = ctx_on(0);
  const vm::Vaddr a =
      k_.sys_mmap(t, 8 * mem::kPageSize, vm::Prot::kReadWrite,
                  vm::MemPolicy::interleave(topo_.all_nodes_mask()));
  k_.access(t, a, 8 * mem::kPageSize, vm::Prot::kWrite, 3500.0);
  for (unsigned i = 0; i < 8; ++i)
    EXPECT_EQ(k_.page_node(pid_, a + i * mem::kPageSize), i % 4);
}

TEST_F(KernelTest, BindPolicyPinsToNode) {
  ThreadCtx t = ctx_on(0);  // node 0
  const vm::Vaddr a = k_.sys_mmap(t, 4 * mem::kPageSize, vm::Prot::kReadWrite,
                                  vm::MemPolicy::bind(topo::node_mask_of(3)));
  k_.access(t, a, 4 * mem::kPageSize, vm::Prot::kWrite, 3500.0);
  EXPECT_EQ(k_.pages_on_node(pid_, a, 4 * mem::kPageSize, 3), 4u);
}

TEST_F(KernelTest, TaskPolicyAppliesWhenVmaIsDefault) {
  ThreadCtx t = ctx_on(0);
  k_.sys_set_mempolicy(t, vm::MemPolicy::preferred(2));
  const vm::Vaddr a = k_.sys_mmap(t, 2 * mem::kPageSize, vm::Prot::kReadWrite);
  k_.access(t, a, 2 * mem::kPageSize, vm::Prot::kWrite, 3500.0);
  EXPECT_EQ(k_.pages_on_node(pid_, a, 2 * mem::kPageSize, 2), 2u);

  vm::MemPolicy out;
  k_.sys_get_mempolicy(t, out);
  EXPECT_EQ(out.mode, vm::PolicyMode::kPreferred);
}

TEST_F(KernelTest, GetcpuReportsCoreAndNode) {
  ThreadCtx t = ctx_on(9);
  topo::CoreId core = 0;
  topo::NodeId node = 0;
  EXPECT_EQ(k_.sys_getcpu(t, &core, &node), 0);
  EXPECT_EQ(core, 9u);
  EXPECT_EQ(node, 2u);
}

TEST_F(KernelTest, MovePagesMigratesAndPreservesData) {
  ThreadCtx t = ctx_on(0);
  const std::uint64_t len = 16 * mem::kPageSize;
  const vm::Vaddr a = k_.sys_mmap(t, len, vm::Prot::kReadWrite);
  k_.access(t, a, len, vm::Prot::kWrite, 3500.0);

  std::vector<std::byte> payload(len);
  for (std::size_t i = 0; i < len; ++i) payload[i] = static_cast<std::byte>(i * 7);
  ASSERT_TRUE(k_.poke(pid_, a, payload));

  const auto pages = pages_of(a, len);
  std::vector<topo::NodeId> nodes(pages.size(), 2);
  std::vector<int> status(pages.size(), -1);
  EXPECT_EQ(k_.sys_move_pages(t, pages, nodes, status), 0);
  for (int s : status) EXPECT_EQ(s, 2);
  EXPECT_EQ(k_.pages_on_node(pid_, a, len, 2), 16u);
  EXPECT_EQ(k_.stats().pages_migrated_move, 16u);

  std::vector<std::byte> readback(len);
  ASSERT_TRUE(k_.peek(pid_, a, readback));
  EXPECT_EQ(readback, payload);
}

TEST_F(KernelTest, MovePagesQueryModeReportsLocations) {
  ThreadCtx t = ctx_on(12);  // node 3
  const vm::Vaddr a = k_.sys_mmap(t, 4 * mem::kPageSize, vm::Prot::kReadWrite);
  k_.access(t, a, 4 * mem::kPageSize, vm::Prot::kWrite, 3500.0);

  const auto pages = pages_of(a, 4 * mem::kPageSize);
  std::vector<int> status(pages.size(), -1);
  EXPECT_EQ(k_.sys_move_pages(t, pages, {}, status), 0);
  for (int s : status) EXPECT_EQ(s, 3);
}

TEST_F(KernelTest, MovePagesReportsEfaultForUnmappedAndAbsent) {
  ThreadCtx t = ctx_on(0);
  const vm::Vaddr a = k_.sys_mmap(t, 2 * mem::kPageSize, vm::Prot::kReadWrite);
  k_.access(t, a, mem::kPageSize, vm::Prot::kWrite, 3500.0);  // only first page

  const std::vector<vm::Vaddr> pages{a, a + mem::kPageSize, 0x10};
  std::vector<topo::NodeId> nodes(3, 1);
  std::vector<int> status(3, 0);
  EXPECT_EQ(k_.sys_move_pages(t, pages, nodes, status), 0);
  EXPECT_EQ(status[0], 1);
  EXPECT_EQ(status[1], -kEFAULT);  // never touched
  EXPECT_EQ(status[2], -kEFAULT);  // unmapped
}

TEST_F(KernelTest, MovePagesArgumentValidation) {
  ThreadCtx t = ctx_on(0);
  std::vector<vm::Vaddr> pages{0x1000};
  std::vector<topo::NodeId> nodes{0, 1};
  std::vector<int> status(1);
  EXPECT_EQ(k_.sys_move_pages(t, pages, nodes, status), -kEINVAL);
  std::vector<topo::NodeId> bad{99};
  EXPECT_EQ(k_.sys_move_pages(t, pages, bad, status), 0);
  EXPECT_EQ(status[0], -kEFAULT);  // unmapped wins over bad node here
}

TEST_F(KernelTest, QuadraticImplIsSlowerOnLargeRequests) {
  // Same end state, radically different cost — the Fig. 4 pathology.
  auto run = [&](MovePagesImpl impl) {
    Kernel k(KernelConfig{.topology = topo_, .backing = mem::Backing::kMaterialized,
                          .move_pages_impl = impl});
    const Pid pid = k.create_process("test");
    ThreadCtx t;
    t.pid = pid;
    const std::uint64_t len = 2048 * mem::kPageSize;
    const vm::Vaddr a = k.sys_mmap(t, len, vm::Prot::kReadWrite);
    k.access(t, a, len, vm::Prot::kWrite, 3500.0);
    const auto pages = pages_of(a, len);
    std::vector<topo::NodeId> nodes(pages.size(), 1);
    std::vector<int> status(pages.size(), 0);
    const sim::Time t0 = t.clock;
    EXPECT_EQ(k.sys_move_pages(t, pages, nodes, status), 0);
    EXPECT_EQ(k.pages_on_node(pid, a, len, 1), 2048u);
    return t.clock - t0;
  };
  const sim::Time linear = run(MovePagesImpl::kLinear);
  const sim::Time quadratic = run(MovePagesImpl::kQuadratic);
  EXPECT_GT(quadratic, 2 * linear);
}

TEST_F(KernelTest, MigratePagesMovesWholeProcess) {
  ThreadCtx t = ctx_on(0);
  const std::uint64_t len = 32 * mem::kPageSize;
  const vm::Vaddr a = k_.sys_mmap(t, len, vm::Prot::kReadWrite);
  const vm::Vaddr b = k_.sys_mmap(t, len, vm::Prot::kReadWrite);
  k_.access(t, a, len, vm::Prot::kWrite, 3500.0);
  k_.access(t, b, len, vm::Prot::kWrite, 3500.0);
  ASSERT_EQ(k_.pages_on_node(pid_, a, len, 0), 32u);

  const SyscallResult moved = k_.sys_migrate_pages(
      t, pid_, topo::node_mask_of(0), topo::node_mask_of(2));
  EXPECT_TRUE(moved.ok());
  EXPECT_EQ(moved.count(), 64);
  EXPECT_EQ(k_.pages_on_node(pid_, a, len, 2), 32u);
  EXPECT_EQ(k_.pages_on_node(pid_, b, len, 2), 32u);
  EXPECT_EQ(k_.stats().pages_migrated_process, 64u);
}

TEST_F(KernelTest, MigratePagesRelativeNodeMapping) {
  ThreadCtx t = ctx_on(0);
  const vm::Vaddr a =
      k_.sys_mmap(t, 8 * mem::kPageSize, vm::Prot::kReadWrite,
                  vm::MemPolicy::interleave(0b0011));  // nodes 0,1
  k_.access(t, a, 8 * mem::kPageSize, vm::Prot::kWrite, 3500.0);

  // {0,1} -> {2,3}: 0->2, 1->3.
  EXPECT_EQ(k_.sys_migrate_pages(t, pid_, 0b0011, 0b1100), 8);
  EXPECT_EQ(k_.pages_on_node(pid_, a, 8 * mem::kPageSize, 2), 4u);
  EXPECT_EQ(k_.pages_on_node(pid_, a, 8 * mem::kPageSize, 3), 4u);
}

TEST_F(KernelTest, NextTouchMigratesToTouchingNode) {
  ThreadCtx t0 = ctx_on(0);  // node 0
  const std::uint64_t len = 8 * mem::kPageSize;
  const vm::Vaddr a = k_.sys_mmap(t0, len, vm::Prot::kReadWrite);
  k_.access(t0, a, len, vm::Prot::kWrite, 3500.0);
  std::vector<std::byte> payload(len);
  for (std::size_t i = 0; i < len; ++i) payload[i] = static_cast<std::byte>(i);
  ASSERT_TRUE(k_.poke(pid_, a, payload));

  EXPECT_EQ(k_.sys_madvise(t0, a, len, Advice::kMigrateOnNextTouch), 0);

  ThreadCtx t2 = ctx_on(8);  // node 2
  const AccessResult r = k_.access(t2, a, len, vm::Prot::kRead, 3500.0);
  EXPECT_EQ(r.nexttouch_migrations, 8u);
  EXPECT_EQ(k_.pages_on_node(pid_, a, len, 2), 8u);

  std::vector<std::byte> readback(len);
  ASSERT_TRUE(k_.peek(pid_, a, readback));
  EXPECT_EQ(readback, payload);

  // Flag is one-shot: a later touch from elsewhere does not migrate.
  ThreadCtx t1 = ctx_on(4);
  const AccessResult r2 = k_.access(t1, a, len, vm::Prot::kRead, 3500.0);
  EXPECT_EQ(r2.nexttouch_migrations, 0u);
  EXPECT_EQ(k_.pages_on_node(pid_, a, len, 2), 8u);
}

TEST_F(KernelTest, NextTouchLocalTouchJustRearms) {
  ThreadCtx t = ctx_on(0);
  const std::uint64_t len = 4 * mem::kPageSize;
  const vm::Vaddr a = k_.sys_mmap(t, len, vm::Prot::kReadWrite);
  k_.access(t, a, len, vm::Prot::kWrite, 3500.0);
  k_.sys_madvise(t, a, len, Advice::kMigrateOnNextTouch);

  const AccessResult r = k_.access(t, a, len, vm::Prot::kRead, 3500.0);
  EXPECT_EQ(r.nexttouch_migrations, 0u);
  EXPECT_EQ(r.nexttouch_hits_local, 4u);
  EXPECT_EQ(k_.pages_on_node(pid_, a, len, 0), 4u);
}

TEST_F(KernelTest, NextTouchOnUntouchedPagesIsFirstTouch) {
  ThreadCtx t0 = ctx_on(0);
  const std::uint64_t len = 4 * mem::kPageSize;
  const vm::Vaddr a = k_.sys_mmap(t0, len, vm::Prot::kReadWrite);
  // Nothing present yet; madvise marks nothing.
  EXPECT_EQ(k_.sys_madvise(t0, a, len, Advice::kMigrateOnNextTouch), 0);
  ThreadCtx t3 = ctx_on(12);
  const AccessResult r = k_.access(t3, a, len, vm::Prot::kWrite, 3500.0);
  EXPECT_EQ(r.minor_faults, 4u);
  EXPECT_EQ(r.nexttouch_migrations, 0u);
  EXPECT_EQ(k_.pages_on_node(pid_, a, len, 3), 4u);
}

TEST_F(KernelTest, MadviseDontNeedDropsPages) {
  ThreadCtx t = ctx_on(0);
  const std::uint64_t len = 4 * mem::kPageSize;
  const vm::Vaddr a = k_.sys_mmap(t, len, vm::Prot::kReadWrite);
  k_.access(t, a, len, vm::Prot::kWrite, 3500.0);
  const std::uint64_t used = k_.phys().total_used_frames();
  EXPECT_EQ(k_.sys_madvise(t, a, len, Advice::kDontNeed), 0);
  EXPECT_EQ(k_.phys().total_used_frames(), used - 4);
  EXPECT_EQ(k_.page_node(pid_, a), topo::kInvalidNode);
  // Next touch zero-fills afresh.
  const AccessResult r = k_.access(t, a, len, vm::Prot::kRead, 3500.0);
  EXPECT_EQ(r.minor_faults, 4u);
}

TEST_F(KernelTest, MprotectNoneRaisesSegvAndHandlerRepairs) {
  ThreadCtx t = ctx_on(0);
  const std::uint64_t len = 2 * mem::kPageSize;
  const vm::Vaddr a = k_.sys_mmap(t, len, vm::Prot::kReadWrite);
  k_.access(t, a, len, vm::Prot::kWrite, 3500.0);
  EXPECT_EQ(k_.sys_mprotect(t, a, len, vm::Prot::kNone), 0);

  unsigned handler_calls = 0;
  k_.set_sigsegv_handler(pid_, [&](ThreadCtx& ht, const SigInfo& info) {
    ++handler_calls;
    EXPECT_EQ(info.fault_addr, a);
    k_.sys_mprotect(ht, a, len, vm::Prot::kReadWrite,
                    sim::CostKind::kMprotectRestore);
  });

  const AccessResult r = k_.access(t, a, len, vm::Prot::kRead, 3500.0);
  EXPECT_EQ(handler_calls, 1u);
  EXPECT_EQ(r.sigsegv_delivered, 1u);
  EXPECT_GT(t.stats.get(sim::CostKind::kSignalDelivery), 0u);
}

TEST_F(KernelTest, UnhandledSegvThrows) {
  ThreadCtx t = ctx_on(0);
  EXPECT_THROW(k_.access(t, 0x10, 8, vm::Prot::kRead, 3500.0), SegfaultError);
}

TEST_F(KernelTest, HandlerThatDoesNotRepairThrowsAfterRetries) {
  ThreadCtx t = ctx_on(0);
  const vm::Vaddr a = k_.sys_mmap(t, mem::kPageSize, vm::Prot::kRead);
  k_.set_sigsegv_handler(pid_, [](ThreadCtx&, const SigInfo&) {});
  EXPECT_THROW(k_.access(t, a, 8, vm::Prot::kWrite, 3500.0), SegfaultError);
}

TEST_F(KernelTest, ReadWriteBytesRoundtripAcrossPages) {
  ThreadCtx t = ctx_on(0);
  const vm::Vaddr a = k_.sys_mmap(t, 3 * mem::kPageSize, vm::Prot::kReadWrite);
  std::vector<std::byte> data(5000);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::byte>(i * 13);
  const vm::Vaddr mid = a + mem::kPageSize - 100;  // crosses two boundaries
  EXPECT_EQ(k_.write_bytes(t, mid, data), 0);
  std::vector<std::byte> out(5000);
  EXPECT_EQ(k_.read_bytes(t, mid, out), 0);
  EXPECT_EQ(out, data);
}

TEST_F(KernelTest, UserMemcpyCopiesAndFaultsDestination) {
  ThreadCtx t = ctx_on(0);
  const std::uint64_t len = 8 * mem::kPageSize;
  const vm::Vaddr src = k_.sys_mmap(t, len, vm::Prot::kReadWrite);
  const vm::Vaddr dst = k_.sys_mmap(t, len, vm::Prot::kReadWrite,
                                    vm::MemPolicy::bind(topo::node_mask_of(1)));
  k_.access(t, src, len, vm::Prot::kWrite, 3500.0);
  std::vector<std::byte> data(len);
  for (std::size_t i = 0; i < len; ++i) data[i] = static_cast<std::byte>(i ^ 0x5a);
  ASSERT_TRUE(k_.poke(pid_, src, data));

  EXPECT_EQ(k_.user_memcpy(t, dst, src, len), 0);
  EXPECT_EQ(k_.pages_on_node(pid_, dst, len, 1), 8u);
  std::vector<std::byte> out(len);
  ASSERT_TRUE(k_.peek(pid_, dst, out));
  EXPECT_EQ(out, data);
  EXPECT_EQ(k_.user_memcpy(t, dst, src + len, mem::kPageSize), -kEFAULT);
}

TEST_F(KernelTest, MunmapFreesFramesAndUnmaps) {
  ThreadCtx t = ctx_on(0);
  const std::uint64_t len = 6 * mem::kPageSize;
  const vm::Vaddr a = k_.sys_mmap(t, len, vm::Prot::kReadWrite);
  k_.access(t, a, len, vm::Prot::kWrite, 3500.0);
  const std::uint64_t used = k_.phys().total_used_frames();
  EXPECT_EQ(k_.sys_munmap(t, a, len), 0);
  EXPECT_EQ(k_.phys().total_used_frames(), used - 6);
  EXPECT_THROW(k_.access(t, a, 8, vm::Prot::kRead, 3500.0), SegfaultError);
}

TEST_F(KernelTest, NumaMapsReportsPolicyAndPlacement) {
  ThreadCtx t = ctx_on(0);
  const vm::Vaddr a =
      k_.sys_mmap(t, 4 * mem::kPageSize, vm::Prot::kReadWrite,
                  vm::MemPolicy::interleave(topo_.all_nodes_mask()), "heap");
  k_.access(t, a, 4 * mem::kPageSize, vm::Prot::kWrite, 3500.0);
  const std::string maps = k_.numa_maps(pid_);
  EXPECT_NE(maps.find("interleave"), std::string::npos);
  EXPECT_NE(maps.find("anon=4"), std::string::npos);
  EXPECT_NE(maps.find("N0=1"), std::string::npos);
  EXPECT_NE(maps.find("N3=1"), std::string::npos);
  EXPECT_NE(maps.find("[heap]"), std::string::npos);
}

TEST_F(KernelTest, RemoteStreamSlowerThanLocal) {
  ThreadCtx local = ctx_on(0);
  ThreadCtx remote = ctx_on(12);  // node 3, two hops from node 0
  const std::uint64_t len = 64 * mem::kPageSize;
  const vm::Vaddr a = k_.sys_mmap(local, len, vm::Prot::kReadWrite,
                                  vm::MemPolicy::bind(topo::node_mask_of(0)));
  k_.access(local, a, len, vm::Prot::kWrite, 3500.0);

  local.clock = sim::seconds(100);  // hardware idle by then
  local.stats.reset();
  k_.access(local, a, len, vm::Prot::kRead, 3500.0);
  const sim::Time local_time = local.clock - sim::seconds(100);

  remote.clock = sim::seconds(200);
  k_.access(remote, a, len, vm::Prot::kRead, 3500.0);
  const sim::Time remote_time = remote.clock - sim::seconds(200);
  EXPECT_GT(remote_time, local_time);
  // Within an order of magnitude of the NUMA factor.
  EXPECT_LT(remote_time, 2 * local_time);
}

TEST_F(KernelTest, AccessStridedFaultsAndCharges) {
  ThreadCtx t = ctx_on(0);
  // 16 rows of 1 KiB with a 16 KiB stride: touches 16 distinct pages.
  const std::uint64_t stride = 4 * mem::kPageSize;
  const vm::Vaddr a = k_.sys_mmap(t, 16 * stride, vm::Prot::kReadWrite);
  const AccessResult r =
      k_.access_strided(t, a, 16, 1024, stride, vm::Prot::kWrite, 3500.0, 1.0);
  EXPECT_EQ(r.minor_faults, 16u);
  EXPECT_GT(t.stats.get(sim::CostKind::kMemAccess), 0u);

  // traffic_scale multiplies the data-plane charge. Start each probe at an
  // instant where the hardware timelines are idle so queueing doesn't skew it.
  ThreadCtx t2 = ctx_on(0);
  t2.clock = sim::seconds(100);
  k_.access_strided(t2, a, 16, 1024, stride, vm::Prot::kRead, 3500.0, 1.0);
  ThreadCtx t3 = ctx_on(0);
  t3.clock = sim::seconds(200);
  k_.access_strided(t3, a, 16, 1024, stride, vm::Prot::kRead, 3500.0, 8.0);
  EXPECT_GT(t3.stats.get(sim::CostKind::kMemAccess),
            4 * t2.stats.get(sim::CostKind::kMemAccess));
}

TEST_F(KernelTest, AllocationFallsBackWhenNodeFull) {
  Kernel small(KernelConfig{.topology = topo_, .backing = mem::Backing::kPhantom,
                           .max_frames_per_node = 4});
  const Pid pid = small.create_process();
  ThreadCtx t;
  t.pid = pid;
  t.core = 0;
  const std::uint64_t len = 8 * mem::kPageSize;
  const vm::Vaddr a = small.sys_mmap(t, len, vm::Prot::kReadWrite,
                                     vm::MemPolicy::bind(topo::node_mask_of(0)));
  small.access(t, a, len, vm::Prot::kWrite, 3500.0);
  EXPECT_EQ(small.pages_on_node(pid, a, len, 0), 4u);
  EXPECT_GT(small.phys().fallback_allocs(), 0u);
}

TEST_F(KernelTest, SyscallErrorReturns) {
  ThreadCtx t = ctx_on(0);
  EXPECT_EQ(k_.sys_munmap(t, 0x1000, 0), -kEINVAL);
  EXPECT_EQ(k_.sys_madvise(t, 0x100, mem::kPageSize, Advice::kNormal), -kENOMEM);
  EXPECT_EQ(k_.sys_mbind(t, 0x100, mem::kPageSize, vm::MemPolicy::bind(1)), -kENOMEM);
  const vm::Vaddr a = k_.sys_mmap(t, mem::kPageSize, vm::Prot::kReadWrite);
  EXPECT_EQ(k_.sys_mbind(t, a, mem::kPageSize, vm::MemPolicy{vm::PolicyMode::kBind, 0}),
            -kEINVAL);
  EXPECT_EQ(k_.sys_set_mempolicy(t, vm::MemPolicy{vm::PolicyMode::kInterleave, 0}),
            -kEINVAL);
  EXPECT_EQ(k_.sys_migrate_pages(t, 999, 1, 2), -kESRCH);
  EXPECT_EQ(k_.sys_migrate_pages(t, pid_, 0, 2), -kEINVAL);
}

TEST_F(KernelTest, RangeCallsRejectAnEndThatWrapsPast2To64) {
  ThreadCtx t = ctx_on(0);
  const std::uint64_t len16 = 16 * mem::kPageSize;
  const vm::Vaddr a = k_.sys_mmap(t, len16, vm::Prot::kReadWrite);
  const vm::Vaddr b = k_.sys_mmap(t, len16, vm::Prot::kReadWrite);
  ASSERT_LT(a, b);
  k_.access(t, a, len16, vm::Prot::kWrite, 3500.0);
  k_.access(t, b, len16, vm::Prot::kWrite, 3500.0);
  // 2^64 - b + a + 4096: b + len wraps to a + 4096, inside the first mapping.
  const std::uint64_t len = a + mem::kPageSize - b;
  ASSERT_EQ(b + len, a + mem::kPageSize);

  EXPECT_EQ(k_.sys_madvise(t, b, len, Advice::kMigrateOnNextTouch), -kENOMEM);
  EXPECT_EQ(k_.sys_mprotect(t, b, len, vm::Prot::kRead), -kENOMEM);
  EXPECT_EQ(k_.sys_mbind(t, b, len, vm::MemPolicy::bind(topo::node_mask_of(1)),
                         /*move_existing=*/true),
            -kENOMEM);
  const Kernel::MoveRange r{b, len, 1};
  EXPECT_EQ(k_.sys_move_pages_ranged(t, {&r, 1}), -kEFAULT);
  EXPECT_EQ(k_.sys_move_pages_async(t, {&r, 1}), -kEFAULT);
  EXPECT_EQ(k_.sys_munmap(t, b, len), -kEINVAL);

  EXPECT_EQ(k_.address_space(pid_).vma_count(), 2u);
  for (vm::Vaddr base : {a, b})
    for (vm::Vaddr p : pages_of(base, len16)) EXPECT_EQ(k_.page_node(pid_, p), 0u);
  // Still writable: mprotect changed nothing either.
  k_.access(t, a, len16, vm::Prot::kWrite, 3500.0);
  k_.access(t, b, len16, vm::Prot::kWrite, 3500.0);
  k_.validate(pid_);
}

TEST_F(KernelTest, AccessFaultsWhereAnEndThatWrapsPast2To64Leaves) {
  ThreadCtx t = ctx_on(0);
  const std::uint64_t len16 = 16 * mem::kPageSize;
  const vm::Vaddr a = k_.sys_mmap(t, len16, vm::Prot::kReadWrite);
  k_.access(t, a, len16, vm::Prot::kWrite, 3500.0);
  auto fault_addr = [&](vm::Vaddr addr, std::uint64_t len) -> std::uint64_t {
    try {
      k_.access(t, addr, len, vm::Prot::kRead, 3500.0);
    } catch (const SegfaultError& e) {
      return e.fault_addr;
    }
    ADD_FAILURE() << "access(" << addr << ", " << len << ") did not fault";
    return 0;
  };
  // One page too many faults at the first page past the mapping.
  EXPECT_EQ(fault_addr(a, len16 + mem::kPageSize), a + len16);
  // 2^64 - a + 4096: a + len wraps to 4096, below the mapping. The access
  // still walks from `a` and faults at the same page.
  const std::uint64_t wrapped = mem::kPageSize - a;
  ASSERT_EQ(a + wrapped, mem::kPageSize);
  EXPECT_EQ(fault_addr(a, wrapped), a + len16);
  // At or past the top of the user address space, the access faults at
  // its start, whether or not its end wraps.
  constexpr vm::Vaddr kTop = vm::AddressSpace::kUserTop;
  EXPECT_EQ(fault_addr(kTop, mem::kPageSize), kTop);
  EXPECT_EQ(fault_addr(kTop + 2 * mem::kPageSize, ~std::uint64_t{0}),
            kTop + 2 * mem::kPageSize);
  k_.validate(pid_);
}

TEST_F(KernelTest, StridedRowsThatLeaveTheUserAddressSpaceFaultAsAccessDoes) {
  ThreadCtx t = ctx_on(0);
  const std::uint64_t len16 = 16 * mem::kPageSize;
  const vm::Vaddr a = k_.sys_mmap(t, len16, vm::Prot::kReadWrite);
  k_.access(t, a, len16, vm::Prot::kWrite, 3500.0);
  auto fault_addr = [&](vm::Vaddr base, std::uint64_t rows, std::uint64_t row_bytes,
                        std::uint64_t stride) -> std::uint64_t {
    try {
      k_.access_strided(t, base, rows, row_bytes, stride, vm::Prot::kRead, 0.0);
    } catch (const SegfaultError& e) {
      return e.fault_addr;
    }
    ADD_FAILURE() << "access_strided(" << base << ", " << rows << ", " << row_bytes
                  << ", " << stride << ") did not fault";
    return 0;
  };
  // A 17-page row faults at the first page past the mapping; so does one
  // whose end wraps past 2^64 to 4096.
  EXPECT_EQ(fault_addr(a, 1, len16 + mem::kPageSize, 0), a + len16);
  const std::uint64_t wrapped = mem::kPageSize - a;
  ASSERT_EQ(a + wrapped, mem::kPageSize);
  EXPECT_EQ(fault_addr(a, 1, wrapped, 0), a + len16);
  // The second row's start, a + stride, wraps to 4096: the row cannot be
  // represented and faults at the top of the user address space, not at an
  // address the caller never named.
  constexpr vm::Vaddr kTop = vm::AddressSpace::kUserTop;
  EXPECT_EQ(fault_addr(a, 2, mem::kPageSize, wrapped), kTop);
  // Row 1 starts at a + 2^63 and faults there; row 2, whose offset 2 * 2^63
  // wraps to 0 (back onto the mapping), is never touched.
  constexpr std::uint64_t kHalf = std::uint64_t{1} << 63;
  EXPECT_EQ(fault_addr(a, 3, mem::kPageSize, kHalf), a + kHalf);
  // A row that starts at or past kUserTop faults at its start.
  EXPECT_EQ(fault_addr(kTop, 1, mem::kPageSize, 0), kTop);
  EXPECT_EQ(fault_addr(a, 2, mem::kPageSize, kTop + mem::kPageSize - a),
            kTop + mem::kPageSize);
  // Rows below kUserTop still walk.
  EXPECT_EQ(k_.access_strided(t, a, 16, 64, mem::kPageSize, vm::Prot::kRead, 0.0).pages,
            16u);
  k_.validate(pid_);
}

TEST_F(KernelTest, PagesOnNodeOfAnEmptyRangeIsZero) {
  ThreadCtx t = ctx_on(0);
  const std::uint64_t len = 4 * mem::kPageSize;
  const vm::Vaddr a = k_.sys_mmap(t, len, vm::Prot::kReadWrite);
  k_.access(t, a, len, vm::Prot::kWrite, 3500.0);
  EXPECT_EQ(k_.pages_on_node(pid_, a, len, 0), 4u);
  EXPECT_EQ(k_.pages_on_node(pid_, a + 100, 1, 0), 1u);
  ASSERT_EQ(k_.pages_on_node(pid_, a + 100, 0, 0), 0u);
  // At address 0, `addr + len - 1` would wrap to 2^64 - 1.
  EXPECT_EQ(k_.pages_on_node(pid_, 0, 0, 0), 0u);
  // A range ending past the highest mapping, or past 2^64, is clamped.
  EXPECT_EQ(k_.pages_on_node(pid_, a, ~std::uint64_t{0} - a, 0), 4u);
  EXPECT_EQ(k_.pages_on_node(pid_, a + mem::kPageSize, ~std::uint64_t{0}, 0), 3u);
  EXPECT_EQ(k_.pages_on_node(pid_, vm::AddressSpace::kUserTop, 1, 0), 0u);
}

TEST_F(KernelTest, MbindAffectsFuturePlacement) {
  ThreadCtx t = ctx_on(0);
  const std::uint64_t len = 4 * mem::kPageSize;
  const vm::Vaddr a = k_.sys_mmap(t, len, vm::Prot::kReadWrite);
  EXPECT_EQ(k_.sys_mbind(t, a, len, vm::MemPolicy::bind(topo::node_mask_of(2))), 0);
  k_.access(t, a, len, vm::Prot::kWrite, 3500.0);
  EXPECT_EQ(k_.pages_on_node(pid_, a, len, 2), 4u);
}

// Property sweep: for any request size, linear move_pages lands every page
// on its requested node and preserves contents.
class MovePagesProperty : public KernelTest,
                          public ::testing::WithParamInterface<std::uint64_t> {};

TEST_P(MovePagesProperty, MigrationIsCorrectAtAnySize) {
  const std::uint64_t npages = GetParam();
  ThreadCtx t = ctx_on(0);
  const std::uint64_t len = npages * mem::kPageSize;
  const vm::Vaddr a = k_.sys_mmap(t, len, vm::Prot::kReadWrite);
  k_.access(t, a, len, vm::Prot::kWrite, 3500.0);

  std::vector<std::byte> payload(len);
  for (std::size_t i = 0; i < len; ++i)
    payload[i] = static_cast<std::byte>((i * 2654435761u) >> 3);
  ASSERT_TRUE(k_.poke(pid_, a, payload));

  // Scatter: page i goes to node i % 4.
  const auto pages = pages_of(a, len);
  std::vector<topo::NodeId> nodes(pages.size());
  for (std::size_t i = 0; i < nodes.size(); ++i)
    nodes[i] = static_cast<topo::NodeId>(i % 4);
  std::vector<int> status(pages.size(), -1);
  ASSERT_EQ(k_.sys_move_pages(t, pages, nodes, status), 0);
  for (std::size_t i = 0; i < pages.size(); ++i) {
    EXPECT_EQ(status[i], static_cast<int>(i % 4));
    EXPECT_EQ(k_.page_node(pid_, pages[i]), i % 4);
  }
  std::vector<std::byte> readback(len);
  ASSERT_TRUE(k_.peek(pid_, a, readback));
  EXPECT_EQ(readback, payload);
}

INSTANTIATE_TEST_SUITE_P(Sizes, MovePagesProperty,
                         ::testing::Values(1, 3, 63, 64, 65, 128, 1000));

// Property sweep: next-touch marking + touching from every node always ends
// with the pages local to the toucher.
class NextTouchProperty
    : public KernelTest,
      public ::testing::WithParamInterface<std::tuple<std::uint64_t, unsigned>> {};

TEST_P(NextTouchProperty, PagesFollowTheToucher) {
  const auto [npages, core] = GetParam();
  ThreadCtx t0 = ctx_on(0);
  const std::uint64_t len = npages * mem::kPageSize;
  const vm::Vaddr a = k_.sys_mmap(t0, len, vm::Prot::kReadWrite);
  k_.access(t0, a, len, vm::Prot::kWrite, 3500.0);
  ASSERT_EQ(k_.sys_madvise(t0, a, len, Advice::kMigrateOnNextTouch), 0);

  ThreadCtx t = ctx_on(core);
  k_.access(t, a, len, vm::Prot::kReadWrite, 3500.0);
  const topo::NodeId node = topo_.node_of_core(core);
  EXPECT_EQ(k_.pages_on_node(pid_, a, len, node), npages);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndCores, NextTouchProperty,
    ::testing::Combine(::testing::Values(1, 7, 64, 200),
                       ::testing::Values(0u, 2u, 5u, 10u, 15u)));

// --- move_pages nr_pages == 0 fast path --------------------------------------

TEST_F(KernelTest, MovePagesEmptyArrayReturnsBeforeMmapSem) {
  // Linux's sys_move_pages returns for nr_pages == 0 before taking mmap_sem;
  // the simulation must charge only the syscall entry, never
  // move_pages_base_locked (which the old model wrongly billed here).
  ThreadCtx t = ctx_on(0);
  const sim::Time t0 = t.clock;
  const SyscallResult r = k_.sys_move_pages(t, {}, {}, {});
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.count(), 0);
  EXPECT_EQ(t.clock - t0, k_.cost().syscall_entry);
}

// --- compressed placement counts ---------------------------------------------

TEST_F(KernelTest, PlacementCountsMatchPerPageWalkAcrossChunks) {
  // Span several 512-page chunks with ragged edges so pages_on_node exercises
  // both the per-chunk counter path and the edge walks, then cross-check every
  // answer against a per-page page_node() count through a lifecycle of
  // first-touch, explicit migration, dontneed, and partial munmap. validate()
  // audits the maintained counters against the page table at every step.
  ThreadCtx t = ctx_on(0);
  const std::uint64_t npages = 3 * vm::PageTable::kChunkPages + 77;
  const std::uint64_t len = npages * mem::kPageSize;
  const vm::Vaddr a =
      k_.sys_mmap(t, len, vm::Prot::kReadWrite,
                  vm::MemPolicy::interleave(topo_.all_nodes_mask()));
  k_.access(t, a, len, vm::Prot::kWrite, 3500.0);

  auto manual = [&](vm::Vaddr addr, std::uint64_t l, topo::NodeId n) {
    std::uint64_t c = 0;
    for (vm::Vaddr p : pages_of(addr, l))
      if (k_.page_node(pid_, p) == n) ++c;
    return c;
  };
  auto check_all = [&](vm::Vaddr addr, std::uint64_t l) {
    for (topo::NodeId n = 0; n < topo_.num_nodes(); ++n)
      EXPECT_EQ(k_.pages_on_node(pid_, addr, l, n), manual(addr, l, n));
    k_.validate(pid_);
  };
  check_all(a, len);
  // Misaligned sub-range straddling chunk boundaries.
  check_all(a + 13 * mem::kPageSize, len - 200 * mem::kPageSize);

  // Migrate a stripe crossing the first chunk boundary.
  std::vector<vm::Vaddr> pages;
  for (std::uint64_t i = 500; i < 530; ++i)
    pages.push_back(a + i * mem::kPageSize);
  const std::vector<topo::NodeId> nodes(pages.size(), 3);
  std::vector<int> status(pages.size());
  ASSERT_TRUE(k_.sys_move_pages(t, pages, nodes, status).ok());
  check_all(a, len);

  // Drop a middle stripe, then unmap a ragged tail.
  ASSERT_EQ(k_.sys_madvise(t, a + 600 * mem::kPageSize, 100 * mem::kPageSize,
                           Advice::kDontNeed),
            0);
  check_all(a, len);
  ASSERT_EQ(k_.sys_munmap(t, a + (npages - 300) * mem::kPageSize,
                          300 * mem::kPageSize),
            0);
  check_all(a, (npages - 300) * mem::kPageSize);
}

// access_strided is defined by one access() per row, in row order: whichever
// path a row takes inside it (the one-page fast path or the extent walker),
// it must leave the same page table, fault counts and per-node bytes as a
// twin kernel that makes those per-row calls. NUMA-hint pages are left out:
// access() flushes numab promotions after every row, so there the twin is
// not a reference.
struct StridedShape {
  std::uint64_t row_bytes;
  std::uint64_t stride;
  std::uint64_t offset;  ///< of row 0 within its page
};

enum class StridedPrep : std::uint8_t {
  kUnpopulated,  ///< every row first-touches
  kPopulated,    ///< two pages in three already written from node 0
  kNextTouch,    ///< all written from node 0, every other page NT-armed
  kReplicated,   ///< all written from node 0, then armed for replication
};

struct StridedSide {
  Kernel k{KernelConfig{.topology = topo::Topology::quad_opteron(),
                        .backing = mem::Backing::kPhantom}};
  Pid pid = k.create_process("twin");
  vm::Vaddr a = 0;

  ThreadCtx on(topo::CoreId core) const {
    ThreadCtx t;
    t.pid = pid;
    t.core = core;
    return t;
  }

  void prepare(StridedPrep prep, std::uint64_t pages) {
    ThreadCtx t = on(0);
    a = k.sys_mmap(t, pages * mem::kPageSize, vm::Prot::kReadWrite);
    if (prep == StridedPrep::kUnpopulated) return;
    for (std::uint64_t i = 0; i < pages; ++i) {
      const vm::Vaddr page = a + i * mem::kPageSize;
      if (prep == StridedPrep::kPopulated && i % 3 == 2) continue;
      k.access(t, page, mem::kPageSize, vm::Prot::kWrite, 3500.0);
      if (prep == StridedPrep::kNextTouch && i % 2 == 0) {
        ASSERT_EQ(k.sys_madvise(t, page, mem::kPageSize, Advice::kMigrateOnNextTouch), 0);
      }
    }
    if (prep == StridedPrep::kReplicated) {
      ASSERT_EQ(k.sys_madvise(t, a, pages * mem::kPageSize, Advice::kReplicate), 0);
    }
  }
};

class StridedTwinTest
    : public ::testing::TestWithParam<std::tuple<StridedShape, StridedPrep, vm::Prot>> {};

TEST_P(StridedTwinTest, MatchesOneAccessPerRow) {
  const auto [shape, prep, want] = GetParam();
  constexpr std::uint64_t kRows = 24;
  const std::uint64_t pages =
      (shape.offset + (kRows - 1) * shape.stride + shape.row_bytes) / mem::kPageSize + 1;
  StridedSide s;
  StridedSide w;
  s.prepare(prep, pages);
  w.prepare(prep, pages);
  ASSERT_EQ(s.a, w.a);
  const vm::Vaddr base = s.a + shape.offset;
  const unsigned nodes = topo::Topology::quad_opteron().num_nodes();

  // The first pass (from node 1) faults wherever the prep left work; the
  // second (from node 2) finds every row's pages mapped.
  for (const topo::CoreId core : {4u, 8u}) {
    ThreadCtx ts = s.on(core);
    ThreadCtx tw = w.on(core);
    std::vector<std::uint64_t> bytes;
    const AccessResult rs = s.k.access_strided(ts, base, kRows, shape.row_bytes,
                                               shape.stride, want, 3500.0, 1.0, &bytes);
    AccessResult rw;
    std::vector<std::uint64_t> twin_bytes(nodes, 0);
    for (std::uint64_t r = 0; r < kRows; ++r) {
      const vm::Vaddr row = base + r * shape.stride;
      const vm::Vaddr row_end = row + shape.row_bytes;
      const AccessResult one = w.k.access(tw, row, shape.row_bytes, want, 0.0);
      rw.pages += one.pages;
      rw.minor_faults += one.minor_faults;
      rw.nexttouch_migrations += one.nexttouch_migrations;
      rw.nexttouch_hits_local += one.nexttouch_hits_local;
      rw.sigsegv_delivered += one.sigsegv_delivered;
      for (vm::Vpn v = vm::vpn_of(row); v <= vm::vpn_of(row_end - 1); ++v) {
        const vm::Vaddr lo = std::max(row, vm::addr_of(v));
        const vm::Vaddr hi = std::min(row_end, vm::addr_of(v) + mem::kPageSize);
        twin_bytes[w.k.page_node(w.pid, vm::addr_of(v))] += hi - lo;
      }
    }
    EXPECT_EQ(rs.pages, rw.pages) << "core " << core;
    EXPECT_EQ(rs.minor_faults, rw.minor_faults) << "core " << core;
    EXPECT_EQ(rs.nexttouch_migrations, rw.nexttouch_migrations) << "core " << core;
    EXPECT_EQ(rs.nexttouch_hits_local, rw.nexttouch_hits_local) << "core " << core;
    EXPECT_EQ(rs.sigsegv_delivered, rw.sigsegv_delivered) << "core " << core;
    // A replicated read is served by the reader's replica, not by the home
    // node page_node reports, so there the replicas are compared instead.
    if (prep != StridedPrep::kReplicated) {
      EXPECT_EQ(bytes, twin_bytes) << "core " << core;
    }
  }

  EXPECT_EQ(s.k.stats().minor_faults, w.k.stats().minor_faults);
  EXPECT_EQ(s.k.stats().nexttouch_faults, w.k.stats().nexttouch_faults);
  EXPECT_EQ(s.k.stats().pages_migrated_nexttouch, w.k.stats().pages_migrated_nexttouch);
  EXPECT_EQ(s.k.stats().replica_pages, w.k.stats().replica_pages);
  EXPECT_EQ(s.k.replica_pages(s.pid), w.k.replica_pages(w.pid));
  if (prep == StridedPrep::kReplicated) {
    EXPECT_GT(s.k.replica_pages(s.pid), 0u);
  }
  // Rows are far below the soft-TLB admission size on both sides.
  EXPECT_EQ(s.k.stats().stlb_hits + s.k.stats().stlb_misses, 0u);
  EXPECT_EQ(w.k.stats().stlb_hits + w.k.stats().stlb_misses, 0u);

  const vm::PageTable& ps = s.k.address_space(s.pid).page_table();
  const vm::PageTable& pw = w.k.address_space(w.pid).page_table();
  for (vm::Vpn v = vm::vpn_of(s.a); v < vm::vpn_of(s.a) + pages; ++v) {
    const vm::Pte* a = ps.find(v);
    const vm::Pte* b = pw.find(v);
    ASSERT_EQ(a == nullptr, b == nullptr) << "vpn " << v;
    if (a == nullptr) continue;
    EXPECT_EQ(a->flags, b->flags) << "vpn " << v;  // flag and node bits, kDirty too
  }
  EXPECT_NO_THROW(s.k.validate(s.pid));
  EXPECT_NO_THROW(w.k.validate(w.pid));
}

std::string strided_case_name(
    const ::testing::TestParamInfo<StridedTwinTest::ParamType>& info) {
  const auto& [shape, prep, want] = info.param;
  static constexpr const char* kPrep[] = {"unpopulated", "populated", "nexttouch",
                                          "replicated"};
  return "row" + std::to_string(shape.row_bytes) + "_stride" +
         std::to_string(shape.stride) + "_off" + std::to_string(shape.offset) + "_" +
         kPrep[static_cast<int>(prep)] + (want == vm::Prot::kWrite ? "_write" : "_read");
}

// 512 B, 1 KiB and 4 KiB rows at page-multiple strides, and rows that
// straddle a page boundary (1 KiB from 3.5 KiB in, 4 KiB from 2 KiB in).
const auto kStridedShapes = ::testing::Values(
    StridedShape{512, mem::kPageSize, 0}, StridedShape{1024, 2 * mem::kPageSize, 0},
    StridedShape{4096, mem::kPageSize, 0}, StridedShape{1024, mem::kPageSize, 3584},
    StridedShape{4096, 2 * mem::kPageSize, 2048});

INSTANTIATE_TEST_SUITE_P(
    ReadsAndWrites, StridedTwinTest,
    ::testing::Combine(kStridedShapes,
                       ::testing::Values(StridedPrep::kUnpopulated,
                                         StridedPrep::kPopulated,
                                         StridedPrep::kNextTouch),
                       ::testing::Values(vm::Prot::kRead, vm::Prot::kWrite)),
    strided_case_name);
INSTANTIATE_TEST_SUITE_P(
    ReplicatedReads, StridedTwinTest,
    ::testing::Combine(kStridedShapes, ::testing::Values(StridedPrep::kReplicated),
                       ::testing::Values(vm::Prot::kRead)),
    strided_case_name);

}  // namespace
}  // namespace numasim::kern

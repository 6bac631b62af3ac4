// Coverage for surfaces not exercised elsewhere: HwState contention
// primitives, OwnedTimeline bouncing, Thread syscall wrappers, and
// multi-process kernel isolation.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "kern/hw_state.hpp"
#include "kern/kernel.hpp"
#include "rt/team.hpp"

namespace numasim {
namespace {

TEST(HwState, PathRateRealizesNumaFactor) {
  const topo::Topology t = topo::Topology::quad_opteron();
  kern::HwState hw(t);
  const double local = hw.path_rate(0, 0, 3500.0);
  const double one_hop = hw.path_rate(0, 1, 3500.0);
  const double two_hop = hw.path_rate(0, 3, 3500.0);
  EXPECT_DOUBLE_EQ(local, 3500.0);
  // Remote single-stream rate = min(latency-scaled core rate, link bw).
  // On the default machine the 2.2 GB/s HT link is the binding term.
  EXPECT_DOUBLE_EQ(one_hop, 2200.0);
  EXPECT_DOUBLE_EQ(two_hop, 2200.0);
  // With a slower requester the latency scaling shows through instead.
  EXPECT_NEAR(hw.path_rate(0, 1, 1000.0), 1000.0 * 75.0 / 90.0, 1.0);
  EXPECT_NEAR(hw.path_rate(0, 3, 1000.0), 1000.0 * 75.0 / 105.0, 1.0);
}

TEST(HwState, StreamQueuesOnSharedDram) {
  const topo::Topology t = topo::Topology::quad_opteron();
  kern::HwState hw(t);
  const sim::Slot a = hw.stream(0, 0, 0, 1 << 20, 3500.0);
  const sim::Slot b = hw.stream(0, 1, 0, 1 << 20, 3500.0);  // same DRAM node
  EXPECT_GT(b.start, a.start);  // queued behind a's DRAM occupancy
}

TEST(HwState, CopyReservesBothControllersAndRoute) {
  const topo::Topology t = topo::Topology::quad_opteron();
  kern::HwState hw(t);
  const sim::Slot c = hw.copy(0, 0, 3, 1 << 20, 1000.0);
  // Requester-bound at 1 GB/s: ~1.05 ms for 1 MiB.
  EXPECT_NEAR(static_cast<double>(c.finish), 1048576.0, 2000.0);
  // Another copy on the same route starts after the first's link occupancy.
  const sim::Slot d = hw.copy(0, 0, 3, 1 << 20, 1000.0);
  EXPECT_GT(d.start, 0u);
}

TEST(OwnedTimeline, BounceOnlyOnOwnerChange) {
  kern::OwnedTimeline tl;
  const sim::Slot a = tl.reserve(0, 100, /*owner=*/1, /*bounce=*/50);
  EXPECT_EQ(a.finish - a.start, 100u);  // first owner: no bounce
  const sim::Slot b = tl.reserve(0, 100, 1, 50);
  EXPECT_EQ(b.finish - b.start, 100u);  // same owner: no bounce
  const sim::Slot c = tl.reserve(0, 100, 2, 50);
  EXPECT_EQ(c.finish - c.start, 150u);  // ownership migrated: bounce
  tl.reset();
  const sim::Slot d = tl.reserve(0, 100, 3, 50);
  EXPECT_EQ(d.start, 0u);
  EXPECT_EQ(d.finish - d.start, 100u);
}

TEST(ThreadWrappers, MemcpyProtectPolicyRoundtrip) {
  rt::Machine m;  // materialized
  m.run_main(0, [&](rt::Thread& th) -> sim::Task<void> {
    const std::uint64_t len = 8 * mem::kPageSize;
    const vm::Vaddr src = co_await th.mmap(len);
    const vm::Vaddr dst = co_await th.mmap(len);
    co_await th.touch(src, len);
    std::vector<std::byte> data(len);
    for (std::size_t i = 0; i < len; ++i) data[i] = static_cast<std::byte>(i / 3);
    co_await th.write(src, data);

    EXPECT_EQ(co_await th.memcpy_user(dst, src, len), 0);
    std::vector<std::byte> out(len);
    EXPECT_EQ(co_await th.read(dst, out), 0);
    EXPECT_EQ(out, data);

    EXPECT_EQ(co_await th.mprotect(src, len, vm::Prot::kRead), 0);
    EXPECT_EQ(co_await th.set_mempolicy(vm::MemPolicy::preferred(2)), 0);
    EXPECT_EQ(co_await th.mbind(dst, len, vm::MemPolicy::bind(0b0100)), 0);
    EXPECT_EQ(co_await th.munmap(src, len), 0);
    co_return;
  });
}

TEST(ThreadWrappers, MovePagesArgumentErrors) {
  rt::Machine m;
  m.run_main(0, [&](rt::Thread& th) -> sim::Task<void> {
    std::vector<vm::Vaddr> pages{0x1000};
    std::vector<topo::NodeId> nodes{0, 1};  // size mismatch
    std::vector<int> status(1);
    EXPECT_EQ(co_await th.move_pages(pages, nodes, status), -kern::kEINVAL);
    std::vector<int> short_status;
    EXPECT_EQ(co_await th.move_pages(pages, {}, short_status), -kern::kEINVAL);
  });
}

TEST(Kernel, ProcessesAreIsolated) {
  const topo::Topology topo = topo::Topology::quad_opteron();
  kern::Kernel k(kern::KernelConfig{.topology = topo,
                                    .backing = mem::Backing::kMaterialized});
  const kern::Pid p1 = k.create_process("one");
  const kern::Pid p2 = k.create_process("two");

  kern::ThreadCtx t1;
  t1.pid = p1;
  kern::ThreadCtx t2;
  t2.pid = p2;
  const vm::Vaddr a1 = k.sys_mmap(t1, 4 * mem::kPageSize, vm::Prot::kReadWrite);
  const vm::Vaddr a2 = k.sys_mmap(t2, 4 * mem::kPageSize, vm::Prot::kReadWrite);
  EXPECT_EQ(a1, a2);  // same virtual layout, separate address spaces

  k.access(t1, a1, 4 * mem::kPageSize, vm::Prot::kWrite, 3500.0);
  // p2 never touched its range: still unmapped physically.
  EXPECT_EQ(k.pages_on_node(p2, a2, 4 * mem::kPageSize, 0), 0u);
  k.access(t2, a2, 4 * mem::kPageSize, vm::Prot::kWrite, 3500.0);

  std::vector<std::byte> d1(16, std::byte{0x11}), d2(16, std::byte{0x22});
  ASSERT_TRUE(k.poke(p1, a1, d1));
  ASSERT_TRUE(k.poke(p2, a2, d2));
  std::vector<std::byte> out(16);
  ASSERT_TRUE(k.peek(p1, a1, out));
  EXPECT_EQ(out, d1);
  ASSERT_TRUE(k.peek(p2, a2, out));
  EXPECT_EQ(out, d2);

  // Per-process signal handlers don't leak across.
  k.set_sigsegv_handler(p1, [](kern::ThreadCtx&, const kern::SigInfo&) {});
  EXPECT_THROW(k.access(t2, 0x40, 8, vm::Prot::kRead, 3500.0), kern::SegfaultError);
}

TEST(Kernel, ValidatePassesOnHealthyState) {
  const topo::Topology topo = topo::Topology::quad_opteron();
  kern::Kernel k(kern::KernelConfig{.topology = topo,
                                    .backing = mem::Backing::kPhantom});
  const kern::Pid pid = k.create_process();
  kern::ThreadCtx t;
  t.pid = pid;
  const vm::Vaddr a = k.sys_mmap(t, 16 * mem::kPageSize, vm::Prot::kReadWrite);
  k.access(t, a, 16 * mem::kPageSize, vm::Prot::kWrite, 3500.0);
  k.sys_madvise(t, a, 16 * mem::kPageSize, kern::Advice::kReplicate);
  kern::ThreadCtx r;
  r.pid = pid;
  r.core = 4;
  r.clock = t.clock;
  k.access(r, a, 16 * mem::kPageSize, vm::Prot::kRead, 3500.0);
  EXPECT_NO_THROW(k.validate(pid));
}

// validate() must catch the corruptions it audits for. Each test breaks one
// PTE, checks the diagnosis and restores the PTE before teardown frees it.
std::string validate_error(const kern::Kernel& k, kern::Pid pid) {
  try {
    k.validate(pid);
  } catch (const std::logic_error& e) {
    return e.what();
  }
  return {};
}

TEST(Kernel, ValidateCatchesDoubleMappedFrame) {
  kern::Kernel k(kern::KernelConfig{.topology = topo::Topology::quad_opteron(),
                                    .backing = mem::Backing::kPhantom});
  const kern::Pid pid = k.create_process();
  kern::ThreadCtx t;
  t.pid = pid;
  const vm::Vaddr a = k.sys_mmap(t, 2 * mem::kPageSize, vm::Prot::kReadWrite);
  k.access(t, a, 2 * mem::kPageSize, vm::Prot::kWrite, 3500.0);
  vm::PageTable& pt = k.address_space(pid).page_table();
  const vm::Pte* first = pt.find(vm::vpn_of(a));
  vm::Pte* second = pt.find(vm::vpn_of(a) + 1);
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  const mem::FrameId own = second->frame;
  second->frame = first->frame;
  EXPECT_NE(validate_error(k, pid).find("frame double-mapped"), std::string::npos);
  second->frame = own;
  EXPECT_NO_THROW(k.validate(pid));
}

TEST(Kernel, ValidateCatchesDeadFrame) {
  kern::Kernel k(kern::KernelConfig{.topology = topo::Topology::quad_opteron(),
                                    .backing = mem::Backing::kPhantom});
  const kern::Pid pid = k.create_process();
  kern::ThreadCtx t;
  t.pid = pid;
  const vm::Vaddr a = k.sys_mmap(t, 2 * mem::kPageSize, vm::Prot::kReadWrite);
  k.access(t, a, 2 * mem::kPageSize, vm::Prot::kWrite, 3500.0);
  vm::PageTable& pt = k.address_space(pid).page_table();
  const vm::Pte* second = pt.find(vm::vpn_of(a) + 1);
  ASSERT_NE(second, nullptr);
  const mem::FrameId freed = second->frame;
  ASSERT_TRUE(k.sys_munmap(t, a + mem::kPageSize, mem::kPageSize).ok());
  vm::Pte* first = pt.find(vm::vpn_of(a));
  ASSERT_NE(first, nullptr);
  const mem::FrameId own = first->frame;
  first->frame = freed;
  EXPECT_NE(validate_error(k, pid).find("dead frame"), std::string::npos);
  first->frame = own;
  EXPECT_NO_THROW(k.validate(pid));
}

TEST(EngineMisc, LiveRootsAndEventCount) {
  sim::Engine e;
  e.start([](sim::Engine& eng) -> sim::Task<void> { co_await eng.advance(5); }(e));
  e.start([](sim::Engine& eng) -> sim::Task<void> { co_await eng.advance(9); }(e));
  EXPECT_EQ(e.live_roots(), 2u);
  e.run();
  EXPECT_EQ(e.live_roots(), 0u);
  EXPECT_GE(e.events_processed(), 2u);
  EXPECT_THROW((void)e.finished(99), std::out_of_range);
}

}  // namespace
}  // namespace numasim

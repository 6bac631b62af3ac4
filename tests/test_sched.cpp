// Tests for automatic NUMA balancing: the kernel half (scan clock, hint
// faults, two-reference promotion, decaying task stats) and the scheduler
// half (sched::Balancer task placement), plus the subsystem's cardinal
// invariant — balancing off is event-for-event identical to the baseline.
#include <gtest/gtest.h>

#include <vector>

#include "kern/event_log.hpp"
#include "rt/team.hpp"
#include "sched/balancer.hpp"

namespace numasim {
namespace {

using kern::Kernel;
using kern::KernelConfig;
using kern::ThreadCtx;

KernelConfig balanced_config(sim::Time scan_period = sim::microseconds(100)) {
  KernelConfig cfg;
  cfg.topology = topo::Topology::quad_opteron();
  cfg.backing = mem::Backing::kPhantom;
  cfg.numa_balancing.enabled = true;
  cfg.numa_balancing.scan_period = scan_period;
  cfg.numa_balancing.scan_size_pages = 1024;
  return cfg;
}

ThreadCtx ctx_on(kern::Pid pid, topo::CoreId core, kern::ThreadId tid = 0) {
  ThreadCtx t;
  t.pid = pid;
  t.core = core;
  t.tid = tid;
  return t;
}

// --- scan clock --------------------------------------------------------------

TEST(NumabScan, ClockArmsThenFiresOncePerPeriod) {
  const sim::Time period = sim::microseconds(100);
  Kernel k(balanced_config(period));
  const kern::Pid pid = k.create_process();
  ThreadCtx t = ctx_on(pid, 0);

  const std::uint64_t len = 32 * mem::kPageSize;
  const vm::Vaddr a = k.sys_mmap(t, len, vm::Prot::kReadWrite);

  // First access arms the clock: populate, but no scan, no hint faults.
  k.access(t, a, len, vm::Prot::kWrite, 0.0);
  EXPECT_EQ(k.stats().numab_scans, 0u);
  EXPECT_EQ(k.stats().numab_hint_faults, 0u);

  // Before the period elapses: still nothing.
  k.access(t, a, len, vm::Prot::kRead, 0.0);
  EXPECT_EQ(k.stats().numab_scans, 0u);

  // Past the period: exactly one scan window; the same access then takes a
  // hint fault on every page the window marked (all local here).
  t.clock += period;
  k.access(t, a, len, vm::Prot::kRead, 0.0);
  EXPECT_EQ(k.stats().numab_scans, 1u);
  EXPECT_EQ(k.stats().numab_pages_scanned, 32u);
  EXPECT_EQ(k.stats().numab_hint_faults, 32u);
  EXPECT_EQ(k.stats().numab_hint_faults_local, 32u);
  // Local faults never queue promotions.
  EXPECT_EQ(k.stats().numab_pages_promoted, 0u);

  // Immediately again: the window has been consumed, clock not yet due.
  k.access(t, a, len, vm::Prot::kRead, 0.0);
  EXPECT_EQ(k.stats().numab_scans, 1u);

  t.clock += period;
  k.access(t, a, len, vm::Prot::kRead, 0.0);
  EXPECT_EQ(k.stats().numab_scans, 2u);
  k.validate(pid);
}

TEST(NumabScan, DisabledMeansNoScansNoCounters) {
  KernelConfig cfg = balanced_config();
  cfg.numa_balancing.enabled = false;
  Kernel k(cfg);
  const kern::Pid pid = k.create_process();
  ThreadCtx t = ctx_on(pid, 0);
  const std::uint64_t len = 16 * mem::kPageSize;
  const vm::Vaddr a = k.sys_mmap(t, len, vm::Prot::kReadWrite);
  k.access(t, a, len, vm::Prot::kWrite, 0.0);
  t.clock += sim::microseconds(10'000);
  k.access(t, a, len, vm::Prot::kRead, 0.0);
  EXPECT_EQ(k.stats().numab_scans, 0u);
  EXPECT_EQ(k.stats().numab_hint_faults, 0u);
}

// --- two-reference confirmation ----------------------------------------------

TEST(NumabPromotion, SecondRemoteReferenceConfirms) {
  const sim::Time period = sim::microseconds(100);
  Kernel k(balanced_config(period));
  const kern::Pid pid = k.create_process();
  ThreadCtx t0 = ctx_on(pid, 0, /*tid=*/0);  // node 0
  ThreadCtx t4 = ctx_on(pid, 4, /*tid=*/1);  // node 1

  const std::uint64_t len = 16 * mem::kPageSize;
  const vm::Vaddr a = k.sys_mmap(t0, len, vm::Prot::kReadWrite);
  k.access(t0, a, len, vm::Prot::kWrite, 0.0);  // first-touch node 0, arms
  ASSERT_EQ(k.pages_on_node(pid, a, len, 0), 16u);

  // Scan window 1, then a remote access: every fault defers (first
  // reference from node 1).
  t4.clock = t0.clock + period;
  k.access(t4, a, len, vm::Prot::kRead, 0.0);
  EXPECT_EQ(k.stats().numab_hint_faults, 16u);
  EXPECT_EQ(k.stats().numab_promotions_deferred, 16u);
  EXPECT_EQ(k.stats().numab_pages_promoted, 0u);
  EXPECT_EQ(k.pages_on_node(pid, a, len, 0), 16u);

  // Scan window 2, remote access again: confirmed, promoted via kmigrated.
  t4.clock += period;
  k.access(t4, a, len, vm::Prot::kRead, 0.0);
  EXPECT_EQ(k.stats().numab_pages_promoted, 16u);
  EXPECT_GT(k.stats().kmigrated_pages, 0u);
  EXPECT_EQ(k.pages_on_node(pid, a, len, 1), 16u);
  k.validate(pid);
}

TEST(NumabPromotion, SingleReferenceModePromotesImmediately) {
  const sim::Time period = sim::microseconds(100);
  KernelConfig cfg = balanced_config(period);
  cfg.numa_balancing.two_reference = false;
  Kernel k(cfg);
  const kern::Pid pid = k.create_process();
  ThreadCtx t0 = ctx_on(pid, 0, 0);
  ThreadCtx t4 = ctx_on(pid, 4, 1);

  const std::uint64_t len = 8 * mem::kPageSize;
  const vm::Vaddr a = k.sys_mmap(t0, len, vm::Prot::kReadWrite);
  k.access(t0, a, len, vm::Prot::kWrite, 0.0);

  t4.clock = t0.clock + period;
  k.access(t4, a, len, vm::Prot::kRead, 0.0);
  EXPECT_EQ(k.stats().numab_promotions_deferred, 0u);
  EXPECT_EQ(k.stats().numab_pages_promoted, 8u);
  EXPECT_EQ(k.pages_on_node(pid, a, len, 1), 8u);
}

// --- decaying task stats ------------------------------------------------------

TEST(NumabStats, FaultScoresHalvePerScanPeriod) {
  const sim::Time period = sim::microseconds(100);
  Kernel k(balanced_config(period));
  const kern::Pid pid = k.create_process();
  ThreadCtx t = ctx_on(pid, 0, /*tid=*/7);

  const std::uint64_t len = 8 * mem::kPageSize;
  const vm::Vaddr a = k.sys_mmap(t, len, vm::Prot::kReadWrite);
  k.access(t, a, len, vm::Prot::kWrite, 0.0);
  t.clock += period;
  k.access(t, a, len, vm::Prot::kRead, 0.0);  // 8 hint faults on node 0

  const std::vector<double> now = k.numab_task_faults(pid, 7, t.clock);
  ASSERT_EQ(now.size(), 4u);
  EXPECT_DOUBLE_EQ(now[0], 8.0);

  // Two full periods later the mass has halved twice (exact in doubles).
  const std::vector<double> later =
      k.numab_task_faults(pid, 7, t.clock + 2 * period);
  EXPECT_DOUBLE_EQ(later[0], 2.0);
  EXPECT_DOUBLE_EQ(later[1], 0.0);

  // Unknown task: no stats, no preferred node.
  EXPECT_TRUE(k.numab_task_faults(pid, 99, t.clock).empty());
  EXPECT_EQ(k.numab_preferred_node(pid, 99, t.clock), topo::kInvalidNode);
  // Known task: all mass on node 0, comfortably past the 40 % hot threshold.
  EXPECT_EQ(k.numab_preferred_node(pid, 7, t.clock), 0u);
}

// --- balancer task placement --------------------------------------------------

TEST(Balancer, InterchangeSwapsCrossBoundPair) {
  KernelConfig cfg;
  cfg.topology = topo::Topology::quad_opteron();
  cfg.backing = mem::Backing::kPhantom;
  cfg.numa_balancing.enabled = true;
  cfg.numa_balancing.scan_period = sim::microseconds(50);
  cfg.numa_balancing.scan_size_pages = 1024;
  cfg.numa_balancing.balance_period = sim::microseconds(100);
  cfg.numa_balancing.policy = kern::NumaPolicy::kInterchange;
  rt::Machine m(cfg);
  sched::Balancer bal(m);

  // Two workers with deliberately cross-bound working sets: the thread on
  // node 0 streams node-1 memory and vice versa. The interchange policy
  // should find the pair and swap their cores.
  const std::uint64_t len = 32 * mem::kPageSize;
  std::vector<topo::CoreId> final_core(2, 0);
  m.run_main(15, [&](rt::Thread& th) -> sim::Task<void> {
    sim::Barrier bar(m.engine(), 2, m.cost().barrier_phase);
    rt::Team team(m, {0, 4});
    std::vector<rt::Thread*> slots(2, nullptr);
    rt::Team::WorkerFn worker = [&](unsigned tid,
                                    rt::Thread& w) -> sim::Task<void> {
      const topo::NodeId other = tid == 0 ? 1u : 0u;
      const vm::Vaddr buf = co_await w.mmap(
          len, vm::Prot::kReadWrite,
          vm::MemPolicy::bind(topo::node_mask_of(other)));
      slots[tid] = &w;
      co_await w.barrier(bar);
      if (tid == 0)
        for (rt::Thread* s : slots) bal.add_thread(*s);
      for (unsigned it = 0; it < 6; ++it) {
        co_await w.touch(buf, len, vm::Prot::kRead);
        co_await w.compute(sim::microseconds(60));
        co_await bal.tick(w);
        co_await w.barrier(bar);
      }
      final_core[tid] = w.core();
    };
    co_await team.parallel(th, std::move(worker));
  });

  EXPECT_EQ(final_core[0], 4u);
  EXPECT_EQ(final_core[1], 0u);
  EXPECT_GE(bal.stats().swaps, 1u);
  EXPECT_GE(bal.stats().migrations, 2u);
  EXPECT_EQ(m.kernel().stats().numab_task_swaps, bal.stats().swaps);
  EXPECT_EQ(m.kernel().stats().numab_task_migrations, bal.stats().migrations);
}

TEST(Balancer, PreferredNodeFollowsMemory) {
  KernelConfig cfg;
  cfg.topology = topo::Topology::quad_opteron();
  cfg.backing = mem::Backing::kPhantom;
  cfg.numa_balancing.enabled = true;
  cfg.numa_balancing.scan_period = sim::microseconds(50);
  cfg.numa_balancing.scan_size_pages = 1024;
  cfg.numa_balancing.balance_period = sim::microseconds(100);
  cfg.numa_balancing.policy = kern::NumaPolicy::kPreferredNode;
  rt::Machine m(cfg);
  sched::Balancer bal(m);

  topo::CoreId final_core = 0;
  topo::NodeId final_node = 0;
  m.run_main(0, [&](rt::Thread& th) -> sim::Task<void> {
    bal.add_thread(th);
    const std::uint64_t len = 32 * mem::kPageSize;
    const vm::Vaddr buf = co_await th.mmap(
        len, vm::Prot::kReadWrite, vm::MemPolicy::bind(topo::node_mask_of(2)));
    for (unsigned it = 0; it < 6; ++it) {
      co_await th.touch(buf, len, vm::Prot::kRead);
      co_await th.compute(sim::microseconds(60));
      co_await bal.tick(th);
    }
    final_core = th.core();
    final_node = th.node();
  });

  EXPECT_EQ(final_node, 2u);
  EXPECT_EQ(final_core, 8u);  // least-loaded = lowest-id core of node 2
  EXPECT_GE(m.kernel().stats().numab_task_migrations, 1u);
}

TEST(Balancer, PolicyNoneNeverMovesTasks) {
  KernelConfig cfg;
  cfg.topology = topo::Topology::quad_opteron();
  cfg.backing = mem::Backing::kPhantom;
  cfg.numa_balancing.enabled = true;
  cfg.numa_balancing.policy = kern::NumaPolicy::kNone;
  rt::Machine m(cfg);
  sched::Balancer bal(m);
  m.run_main(0, [&](rt::Thread& th) -> sim::Task<void> {
    bal.add_thread(th);
    const vm::Vaddr buf = co_await th.mmap(
        8 * mem::kPageSize, vm::Prot::kReadWrite,
        vm::MemPolicy::bind(topo::node_mask_of(3)));
    for (unsigned it = 0; it < 4; ++it) {
      co_await th.touch(buf, 8 * mem::kPageSize, vm::Prot::kRead);
      co_await th.compute(sim::microseconds(200));
      co_await bal.tick(th);
    }
    EXPECT_EQ(th.core(), 0u);
  });
  EXPECT_EQ(bal.stats().evaluations, 0u);
  EXPECT_EQ(m.kernel().stats().numab_task_migrations, 0u);
}

// --- off == baseline ----------------------------------------------------------

namespace equivalence {

/// A little workload exercising faults, migration, and multi-thread
/// interleaving; returns the final main-thread clock.
sim::Time run_workload(const KernelConfig& cfg, kern::EventLog* log) {
  rt::Machine m(cfg);
  if (log != nullptr) m.kernel().add_trace_sink(log);
  sim::Time final_clock = 0;
  m.run_main(0, [&](rt::Thread& th) -> sim::Task<void> {
    const std::uint64_t len = 64 * mem::kPageSize;
    const vm::Vaddr a = co_await th.mmap(len);
    co_await th.touch(a, len);
    co_await th.move_range(a, len / 2, 2);
    rt::Team team(m, {4, 8});
    rt::Team::WorkerFn worker = [&](unsigned tid,
                                    rt::Thread& w) -> sim::Task<void> {
      co_await w.touch(a + tid * (len / 2), len / 2, vm::Prot::kRead);
      co_await w.madvise(a, len / 4, kern::Advice::kMigrateOnNextTouch);
      co_await w.touch(a, len / 4);
    };
    co_await team.parallel(th, std::move(worker));
    final_clock = th.now();
  });
  return final_clock;
}

}  // namespace equivalence

TEST(NumabOff, EventForEventIdenticalToBaseline) {
  KernelConfig base;
  base.topology = topo::Topology::quad_opteron();
  base.backing = mem::Backing::kPhantom;

  // Same machine with every balancing knob set but the subsystem disabled:
  // the config must be inert.
  KernelConfig off = base;
  off.numa_balancing.scan_period = sim::microseconds(10);
  off.numa_balancing.scan_size_pages = 4096;
  off.numa_balancing.two_reference = false;
  off.numa_balancing.policy = kern::NumaPolicy::kInterchange;
  ASSERT_FALSE(off.numa_balancing.enabled);

  kern::EventLog log_base, log_off;
  const sim::Time t_base = equivalence::run_workload(base, &log_base);
  const sim::Time t_off = equivalence::run_workload(off, &log_off);

  EXPECT_EQ(t_base, t_off);
  EXPECT_EQ(log_base.to_csv(), log_off.to_csv());
}

TEST(NumabOff, DisabledRunKeepsNumabCountersZero) {
  KernelConfig off;
  off.topology = topo::Topology::quad_opteron();
  off.backing = mem::Backing::kPhantom;
  off.numa_balancing.policy = kern::NumaPolicy::kPreferredNode;

  rt::Machine m(off);
  m.run_main(0, [&](rt::Thread& th) -> sim::Task<void> {
    const vm::Vaddr a = co_await th.mmap(16 * mem::kPageSize);
    co_await th.touch(a, 16 * mem::kPageSize);
    co_await th.compute(sim::microseconds(5000));
    co_await th.touch(a, 16 * mem::kPageSize, vm::Prot::kRead);
  });
  const kern::KernelStats& s = m.kernel().stats();
  EXPECT_EQ(s.numab_scans, 0u);
  EXPECT_EQ(s.numab_pages_scanned, 0u);
  EXPECT_EQ(s.numab_hint_faults, 0u);
  EXPECT_EQ(s.numab_pages_promoted, 0u);
  EXPECT_EQ(s.numab_task_migrations, 0u);
}

// --- lock-model and determinism ----------------------------------------------

TEST(NumabDeterminism, RangeLockPromotionIsDeterministic) {
  auto run = [](kern::KernelStats& out) -> sim::Time {
    KernelConfig cfg = balanced_config(sim::microseconds(50));
    cfg.lock_model = kern::LockModel::kRange;
    cfg.numa_balancing.two_reference = true;
    rt::Machine m(cfg);
    sim::Time final_clock = 0;
    m.run_main(4, [&](rt::Thread& th) -> sim::Task<void> {
      const std::uint64_t len = 64 * mem::kPageSize;
      const vm::Vaddr a = co_await th.mmap(
          len, vm::Prot::kReadWrite,
          vm::MemPolicy::bind(topo::node_mask_of(0)));
      for (unsigned it = 0; it < 8; ++it) {
        co_await th.touch(a, len, vm::Prot::kRead);
        co_await th.compute(sim::microseconds(60));
      }
      co_await th.kmigrated_drain();
      final_clock = th.now();
    });
    out = m.kernel().stats();
    return final_clock;
  };

  kern::KernelStats s1, s2;
  const sim::Time t1 = run(s1);
  const sim::Time t2 = run(s2);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(s1.numab_scans, s2.numab_scans);
  EXPECT_EQ(s1.numab_hint_faults, s2.numab_hint_faults);
  EXPECT_EQ(s1.numab_pages_promoted, s2.numab_pages_promoted);
  // Under kRange the promotion path works end to end: the node-1 thread's
  // repeated reads of node-0 memory pull the buffer over.
  EXPECT_GT(s1.numab_pages_promoted, 0u);
  EXPECT_EQ(s1.kmigrated_pages, s2.kmigrated_pages);
}

}  // namespace
}  // namespace numasim

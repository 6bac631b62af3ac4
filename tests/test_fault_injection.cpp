// Fault-injection and memory-pressure tests: every migration path must
// survive ENOMEM, transient copy failures and node exhaustion with the same
// degradation semantics as Linux (per-page -ENOMEM/-EAGAIN from move_pages,
// in-place mapping for next-touch, no frame leaked or double-mapped), and an
// identical (plan, seed) pair must replay an identical event schedule.
#include <gtest/gtest.h>

#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "kern/fault_injector.hpp"
#include "kern/kernel.hpp"
#include "lib/user_next_touch.hpp"

namespace numasim::kern {
namespace {

class FaultInjectionTest : public ::testing::Test {
 protected:
  FaultInjectionTest()
      : topo_(topo::Topology::quad_opteron()),
        k_(KernelConfig{.topology = topo_, .backing = mem::Backing::kMaterialized,
           .max_frames_per_node = 256}) {
    pid_ = k_.create_process("finj");
  }

  ThreadCtx ctx_on(topo::CoreId core) {
    ThreadCtx t;
    t.pid = pid_;
    t.core = core;
    return t;
  }

  /// mmap + populate `pages` pages bound to `node`; returns the base address.
  vm::Vaddr make_region(ThreadCtx& t, std::uint64_t pages, topo::NodeId node) {
    const std::uint64_t len = pages * mem::kPageSize;
    const vm::Vaddr a = k_.sys_mmap(t, len, vm::Prot::kReadWrite,
                                    vm::MemPolicy::bind(topo::node_mask_of(node)));
    k_.access(t, a, len, vm::Prot::kWrite, 3500.0);
    EXPECT_EQ(k_.pages_on_node(pid_, a, len, node), pages);
    return a;
  }

  /// move_pages of `pages` pages at `a` to `dest`; returns the status array.
  std::vector<int> move_all(ThreadCtx& t, vm::Vaddr a, std::uint64_t pages,
                            topo::NodeId dest) {
    std::vector<vm::Vaddr> addrs;
    for (std::uint64_t i = 0; i < pages; ++i)
      addrs.push_back(a + i * mem::kPageSize);
    std::vector<topo::NodeId> nodes(addrs.size(), dest);
    std::vector<int> status(addrs.size(), 0);
    EXPECT_EQ(k_.sys_move_pages(t, addrs, nodes, status), 0);
    return status;
  }

  topo::Topology topo_;
  Kernel k_;
  Pid pid_ = 0;
};

// --- plan parsing -----------------------------------------------------------

TEST(FaultPlanTest, ParseRoundTrip) {
  const FaultPlan p = FaultPlan::parse(
      "alloc:p=0.25,node=1; alloc:nth=5,node=2; alloc:nth=9; "
      "cap:node=3,frames=100; copy:pt=0.125,pp=0.0625; "
      "shootdown:p=0.5; signal:p=0.75");
  EXPECT_DOUBLE_EQ(p.alloc_fail_p, 0.25);
  EXPECT_EQ(p.alloc_fail_node, 1);
  ASSERT_EQ(p.nth_allocs.size(), 2u);
  EXPECT_EQ(p.nth_allocs[0].node, 2);
  EXPECT_EQ(p.nth_allocs[0].nth, 5u);
  EXPECT_EQ(p.nth_allocs[1].node, topo::kInvalidNode);
  ASSERT_EQ(p.node_caps.size(), 1u);
  EXPECT_EQ(p.node_caps[0].frames, 100u);
  EXPECT_DOUBLE_EQ(p.copy_transient_p, 0.125);
  EXPECT_DOUBLE_EQ(p.copy_permanent_p, 0.0625);
  EXPECT_DOUBLE_EQ(p.shootdown_drop_p, 0.5);
  EXPECT_DOUBLE_EQ(p.signal_delay_p, 0.75);
  EXPECT_FALSE(p.empty());

  // to_string must re-parse to the same plan.
  const FaultPlan q = FaultPlan::parse(p.to_string());
  EXPECT_EQ(q.to_string(), p.to_string());
}

TEST(FaultPlanTest, ParseRejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse("bogus:p=1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("alloc:"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("alloc:p=zebra"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("cap:node=1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("copy:pt=0.1,pp"), std::invalid_argument);
  EXPECT_TRUE(FaultPlan::parse("").empty());
  EXPECT_TRUE(FaultPlan::parse("  ;  ").empty());
}

TEST(FaultPlanTest, NthAllocFiresOnExactAttempt) {
  FaultInjector inj(FaultPlan::parse("alloc:nth=3,node=1"), 42);
  EXPECT_FALSE(inj.fail_alloc(1));
  EXPECT_FALSE(inj.fail_alloc(0));  // other node: not counted for node 1
  EXPECT_FALSE(inj.fail_alloc(1));
  EXPECT_TRUE(inj.fail_alloc(1));   // third attempt on node 1
  EXPECT_FALSE(inj.fail_alloc(1));  // fires once
  EXPECT_EQ(inj.counters().allocs_failed, 1u);
}

TEST_F(FaultInjectionTest, CapOnNonexistentNodeIsIgnored) {
  // Plan specs are untrusted strings; a cap naming a node beyond the
  // topology must not touch the allocator (out-of-bounds) nor fail.
  FaultInjector inj(FaultPlan::parse("cap:node=9,frames=0"), 1);
  k_.set_fault_injector(&inj);
  ThreadCtx t = ctx_on(0);
  const vm::Vaddr a = make_region(t, 4, 0);
  const std::vector<int> status = move_all(t, a, 4, 1);
  k_.set_fault_injector(nullptr);
  for (int s : status) EXPECT_EQ(s, 1);
  k_.validate(pid_);
}

// --- sys_move_pages under ENOMEM (satellite 1) ------------------------------

TEST_F(FaultInjectionTest, MovePagesReportsPerPageEnomemAndLeavesPagesResident) {
  ThreadCtx t = ctx_on(0);
  const vm::Vaddr a = make_region(t, 8, 0);

  FaultInjector inj(FaultPlan::parse("alloc:nth=1,node=2; alloc:nth=4,node=2"), 7);
  k_.set_fault_injector(&inj);
  const std::vector<int> status = move_all(t, a, 8, 2);
  k_.set_fault_injector(nullptr);

  // Pages 0 and 3 hit the injected destination-alloc failures: they report
  // -ENOMEM and stay where they were; every other page moved.
  for (std::uint64_t i = 0; i < 8; ++i) {
    const vm::Vaddr pa = a + i * mem::kPageSize;
    if (i == 0 || i == 3) {
      EXPECT_EQ(status[i], -kENOMEM) << "page " << i;
      EXPECT_EQ(k_.page_node(pid_, pa), 0) << "page " << i;
    } else {
      EXPECT_EQ(status[i], 2) << "page " << i;
      EXPECT_EQ(k_.page_node(pid_, pa), 2) << "page " << i;
    }
  }
  EXPECT_EQ(k_.stats().migrations_failed, 2u);
  k_.validate(pid_);
}

TEST_F(FaultInjectionTest, MovePagesToTrulyFullNodeDegradesPerPage) {
  // No injector at all: genuinely exhaust node 2, then migrate into it.
  // Destination allocation is strict (__GFP_THISNODE), so every page must
  // come back -ENOMEM and remain resident on its source node.
  ThreadCtx t = ctx_on(0);
  const std::uint64_t cap = k_.phys().capacity_frames(2);
  const vm::Vaddr filler = make_region(t, cap, 2);
  EXPECT_EQ(k_.phys().free_frames(2), 0u);

  const vm::Vaddr a = make_region(t, 16, 0);
  const std::vector<int> status = move_all(t, a, 16, 2);
  for (std::uint64_t i = 0; i < 16; ++i) {
    EXPECT_EQ(status[i], -kENOMEM) << "page " << i;
    EXPECT_EQ(k_.page_node(pid_, a + i * mem::kPageSize), 0) << "page " << i;
  }
  EXPECT_EQ(k_.stats().migrations_failed, 16u);
  k_.validate(pid_);

  // Free a little room: a re-issued request moves exactly what now fits.
  k_.sys_munmap(t, filler + (cap - 4) * mem::kPageSize, 4 * mem::kPageSize);
  const std::vector<int> retry = move_all(t, a, 16, 2);
  std::uint64_t moved = 0;
  for (int s : retry) moved += (s == 2) ? 1u : 0u;
  EXPECT_EQ(moved, 4u);
  EXPECT_EQ(k_.pages_on_node(pid_, a, 16 * mem::kPageSize, 2), 4u);
  k_.validate(pid_);
}

// --- copy failures: retry and rollback --------------------------------------

TEST_F(FaultInjectionTest, TransientCopyFailuresAreRetriedWithBackoff) {
  ThreadCtx t = ctx_on(0);
  const vm::Vaddr a = make_region(t, 32, 0);

  EventLog log;
  k_.add_trace_sink(&log);
  FaultInjector inj(FaultPlan::parse("copy:pt=0.4"), 1234);
  k_.set_fault_injector(&inj);
  const std::vector<int> status = move_all(t, a, 32, 1);
  k_.set_fault_injector(nullptr);
  k_.remove_trace_sink(&log);

  // With pt=0.4 and 32 pages some retries must have fired; each page either
  // lands on node 1 or reports -EAGAIN after exhausting its retry budget.
  EXPECT_GT(k_.stats().migration_retries, 0u);
  EXPECT_EQ(k_.stats().migration_retries, log.count(EventType::kMigrateRetry));
  for (std::uint64_t i = 0; i < 32; ++i) {
    const vm::Vaddr pa = a + i * mem::kPageSize;
    if (status[i] == 1) {
      EXPECT_EQ(k_.page_node(pid_, pa), 1);
    } else {
      EXPECT_EQ(status[i], -kEAGAIN);
      EXPECT_EQ(k_.page_node(pid_, pa), 0);
    }
  }
  k_.validate(pid_);
}

TEST_F(FaultInjectionTest, PermanentCopyFailureRollsBackWithoutLeaking) {
  ThreadCtx t = ctx_on(0);
  const vm::Vaddr a = make_region(t, 8, 0);
  const std::uint64_t used_before = k_.phys().total_used_frames();

  EventLog log;
  k_.add_trace_sink(&log);
  FaultInjector inj(FaultPlan::parse("copy:pp=1.0"), 99);
  k_.set_fault_injector(&inj);
  const std::vector<int> status = move_all(t, a, 8, 3);
  k_.set_fault_injector(nullptr);
  k_.remove_trace_sink(&log);

  // Every copy failed permanently: all pages report -EAGAIN, stay mapped on
  // their original frames, and the aborted destination frames were freed.
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(status[i], -kEAGAIN);
    EXPECT_EQ(k_.page_node(pid_, a + i * mem::kPageSize), 0);
  }
  EXPECT_EQ(k_.phys().total_used_frames(), used_before);
  EXPECT_EQ(k_.stats().migrations_failed, 8u);
  EXPECT_EQ(log.count(EventType::kMigrateFail), 8u);
  k_.validate(pid_);
}

TEST_F(FaultInjectionTest, RangedInterfaceAndMbindSurviveCopyFailures) {
  ThreadCtx t = ctx_on(0);
  const vm::Vaddr a = make_region(t, 16, 0);
  const vm::Vaddr b = make_region(t, 16, 1);

  FaultInjector inj(FaultPlan::parse("copy:pt=0.5,pp=0.1"), 2024);
  k_.set_fault_injector(&inj);
  const std::vector<Kernel::MoveRange> ranges{{a, 16 * mem::kPageSize, 2}};
  const SyscallResult moved = k_.sys_move_pages_ranged(t, ranges);
  EXPECT_TRUE(moved.ok());
  k_.sys_mbind(t, b, 16 * mem::kPageSize,
               vm::MemPolicy::bind(topo::node_mask_of(3)), /*move_existing=*/true);
  k_.set_fault_injector(nullptr);

  // Whatever failed stayed put; whatever moved is where it was asked to go.
  EXPECT_EQ(k_.pages_on_node(pid_, a, 16 * mem::kPageSize, 2),
            static_cast<std::uint64_t>(moved.count()));
  k_.validate(pid_);
}

TEST_F(FaultInjectionTest, MigratePagesSurvivesExhaustedDestination) {
  ThreadCtx t = ctx_on(0);
  make_region(t, 16, 0);

  FaultInjector inj(FaultPlan::parse("cap:node=1,frames=6"), 5);
  k_.set_fault_injector(&inj);
  const SyscallResult moved = k_.sys_migrate_pages(
      t, pid_, topo::node_mask_of(0), topo::node_mask_of(1));
  k_.set_fault_injector(nullptr);

  // Only the frames below the cap can land on node 1; the rest stay on 0,
  // nothing leaks. (A min watermark of zero lets all 6 be used.)
  EXPECT_TRUE(moved.ok());
  EXPECT_LE(moved.count(), 6);
  EXPECT_EQ(k_.phys().used_frames(0) + k_.phys().used_frames(1), 16u);
  EXPECT_GT(k_.stats().migrations_failed, 0u);
  k_.validate(pid_);
}

// --- next-touch degradation --------------------------------------------------

TEST_F(FaultInjectionTest, KernelNextTouchDegradesInPlaceWhenNodeExhausted) {
  ThreadCtx t0 = ctx_on(0);
  const std::uint64_t pages = 8;
  const std::uint64_t len = pages * mem::kPageSize;
  const vm::Vaddr a = make_region(t0, pages, 0);
  EXPECT_EQ(k_.sys_madvise(t0, a, len, Advice::kMigrateOnNextTouch), 0);

  EventLog log;
  k_.add_trace_sink(&log);
  FaultInjector inj(FaultPlan::parse("cap:node=2,frames=0"), 3);
  k_.set_fault_injector(&inj);
  ThreadCtx t2 = ctx_on(10);  // node 2 — the exhausted destination
  const AccessResult r = k_.access(t2, a, len, vm::Prot::kRead, 3500.0);
  k_.set_fault_injector(nullptr);
  k_.remove_trace_sink(&log);

  // The touch never crashes: the pages map in place on node 0 and the
  // next-touch flag is consumed, so a second touch faults nothing.
  EXPECT_EQ(r.pages, pages);
  EXPECT_EQ(r.nexttouch_migrations, 0u);
  EXPECT_EQ(k_.pages_on_node(pid_, a, len, 0), pages);
  EXPECT_EQ(k_.stats().nexttouch_degraded, pages);
  EXPECT_EQ(log.count(EventType::kNextTouchDegraded), pages);
  k_.validate(pid_);

  const AccessResult r2 = k_.access(t2, a, len, vm::Prot::kRead, 3500.0);
  EXPECT_EQ(r2.nexttouch_migrations, 0u);
  EXPECT_EQ(k_.stats().nexttouch_degraded, pages);  // no re-degrade
}

TEST_F(FaultInjectionTest, UserNextTouchSurvivesExhaustedNode) {
  lib::UserNextTouch unt(k_, pid_);
  ThreadCtx t0 = ctx_on(0);
  const std::uint64_t pages = 8;
  const std::uint64_t len = pages * mem::kPageSize;
  const vm::Vaddr a = make_region(t0, pages, 0);
  ASSERT_EQ(unt.mark(t0, a, len), 0);

  FaultInjector inj(FaultPlan::parse("cap:node=1,frames=0"), 11);
  k_.set_fault_injector(&inj);
  ThreadCtx t1 = ctx_on(4);  // node 1 — exhausted
  k_.access(t1, a, len, vm::Prot::kRead, 3500.0);
  k_.set_fault_injector(nullptr);

  // The handler must disarm and restore protection even though every
  // move_pages status came back -ENOMEM — the access completes remotely.
  EXPECT_EQ(unt.stats().faults_handled, 1u);
  EXPECT_EQ(unt.stats().pages_moved, 0u);
  EXPECT_EQ(unt.stats().pages_failed, pages);
  EXPECT_EQ(unt.stats().degraded_windows, 1u);
  EXPECT_EQ(unt.armed_bytes(), 0u);
  EXPECT_EQ(k_.pages_on_node(pid_, a, len, 0), pages);
  k_.validate(pid_);

  // Protection restored: the next access faults no signal.
  const AccessResult r2 = k_.access(t1, a, len, vm::Prot::kRead, 3500.0);
  EXPECT_EQ(r2.sigsegv_delivered, 0u);
}

// --- shootdown and signal injection ------------------------------------------

TEST_F(FaultInjectionTest, DroppedShootdownIsResentAndCharged) {
  ThreadCtx t = ctx_on(0);
  const vm::Vaddr a = make_region(t, 4, 0);

  ThreadCtx base = ctx_on(0);
  base.pid = pid_;
  k_.sys_mprotect(base, a, 4 * mem::kPageSize, vm::Prot::kRead);
  const sim::Time baseline = base.clock;
  k_.sys_mprotect(base, a, 4 * mem::kPageSize, vm::Prot::kReadWrite);

  EventLog log;
  k_.add_trace_sink(&log);
  FaultInjector inj(FaultPlan::parse("shootdown:p=1.0"), 8);
  k_.set_fault_injector(&inj);
  ThreadCtx hit = ctx_on(0);
  k_.sys_mprotect(hit, a, 4 * mem::kPageSize, vm::Prot::kRead);
  k_.set_fault_injector(nullptr);
  k_.remove_trace_sink(&log);

  EXPECT_GT(hit.clock, baseline);  // resend wait + second IPI round
  EXPECT_GT(k_.stats().shootdown_retries, 0u);
  EXPECT_GT(log.count(EventType::kShootdownRetry), 0u);
}

TEST_F(FaultInjectionTest, DelayedSignalStillDelivers) {
  lib::UserNextTouch unt(k_, pid_);
  ThreadCtx t0 = ctx_on(0);
  const std::uint64_t len = 4 * mem::kPageSize;
  const vm::Vaddr a = make_region(t0, 4, 0);
  ASSERT_EQ(unt.mark(t0, a, len), 0);

  FaultInjector inj(FaultPlan::parse("signal:p=1.0"), 21);
  k_.set_fault_injector(&inj);
  ThreadCtx t1 = ctx_on(4);
  const AccessResult r = k_.access(t1, a, len, vm::Prot::kRead, 3500.0);
  k_.set_fault_injector(nullptr);

  EXPECT_EQ(r.sigsegv_delivered, 1u);
  EXPECT_EQ(unt.stats().faults_handled, 1u);
  EXPECT_GT(k_.stats().signals_delayed, 0u);
  EXPECT_EQ(k_.pages_on_node(pid_, a, len, 1), 4u);
  k_.validate(pid_);
}

// --- first-touch under injected pressure -------------------------------------

TEST_F(FaultInjectionTest, UserFaultsStallButNeverFail) {
  FaultInjector inj(FaultPlan::parse("alloc:p=1.0"), 17);
  k_.set_fault_injector(&inj);
  ThreadCtx t = ctx_on(0);
  const std::uint64_t len = 16 * mem::kPageSize;
  const vm::Vaddr a = k_.sys_mmap(t, len, vm::Prot::kReadWrite);
  const AccessResult r = k_.access(t, a, len, vm::Prot::kWrite, 3500.0);
  k_.set_fault_injector(nullptr);

  // Every first-touch allocation was flagged, yet all pages materialized:
  // user faults reclaim (charged as a stall) instead of failing.
  EXPECT_EQ(r.minor_faults, 16u);
  EXPECT_EQ(k_.stats().alloc_stalls, 16u);
  EXPECT_EQ(k_.pages_on_node(pid_, a, len, 0), 16u);
  k_.validate(pid_);
}

// --- determinism --------------------------------------------------------------

std::string run_faulty_workload(std::uint64_t seed) {
  const topo::Topology topo = topo::Topology::quad_opteron();
  Kernel k(KernelConfig{.topology = topo, .backing = mem::Backing::kPhantom,
                       .max_frames_per_node = 256});
  const Pid pid = k.create_process("replay");
  EventLog log(16384);
  k.add_trace_sink(&log);
  FaultInjector inj(
      FaultPlan::parse("alloc:p=0.1; copy:pt=0.3,pp=0.05; shootdown:p=0.2"),
      seed);
  k.set_fault_injector(&inj);

  ThreadCtx t;
  t.pid = pid;
  t.core = 0;
  const std::uint64_t len = 64 * mem::kPageSize;
  const vm::Vaddr a = k.sys_mmap(t, len, vm::Prot::kReadWrite,
                                 vm::MemPolicy::bind(topo::node_mask_of(0)));
  k.access(t, a, len, vm::Prot::kWrite, 3500.0);
  std::vector<vm::Vaddr> pages;
  for (std::uint64_t i = 0; i < 64; ++i) pages.push_back(a + i * mem::kPageSize);
  std::vector<topo::NodeId> nodes(pages.size(), 1);
  std::vector<int> status(pages.size(), 0);
  k.sys_move_pages(t, pages, nodes, status);
  k.sys_madvise(t, a, len, Advice::kMigrateOnNextTouch);
  ThreadCtx t2;
  t2.pid = pid;
  t2.core = 10;
  t2.clock = t.clock;
  k.access(t2, a, len, vm::Prot::kRead, 3500.0);
  k.validate(pid);
  k.set_fault_injector(nullptr);
  return log.to_csv();
}

TEST(FaultInjectionDeterminism, SamePlanAndSeedReplayIdenticalEventLogs) {
  const std::string first = run_faulty_workload(0xfeedface);
  const std::string second = run_faulty_workload(0xfeedface);
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("migrate-"), std::string::npos);  // faults did fire
}

TEST(FaultInjectionDeterminism, EmptyPlanMatchesNoInjectorExactly) {
  // An attached-but-empty injector must not perturb the simulation: same
  // event stream, no randomness consumed.
  const topo::Topology topo = topo::Topology::quad_opteron();
  auto run = [&](bool attach) {
    Kernel k(KernelConfig{.topology = topo, .backing = mem::Backing::kPhantom,
                         .max_frames_per_node = 256});
    const Pid pid = k.create_process();
    EventLog log(16384);
    k.add_trace_sink(&log);
    FaultInjector inj{FaultPlan{}, 1};
    if (attach) k.set_fault_injector(&inj);
    ThreadCtx t;
    t.pid = pid;
    const std::uint64_t len = 32 * mem::kPageSize;
    const vm::Vaddr a = k.sys_mmap(t, len, vm::Prot::kReadWrite);
    k.access(t, a, len, vm::Prot::kWrite, 3500.0);
    std::vector<vm::Vaddr> pages;
    for (std::uint64_t i = 0; i < 32; ++i)
      pages.push_back(a + i * mem::kPageSize);
    std::vector<topo::NodeId> nodes(pages.size(), 2);
    std::vector<int> status(pages.size(), 0);
    k.sys_move_pages(t, pages, nodes, status);
    k.validate(pid);
    return log.to_csv();
  };
  EXPECT_EQ(run(false), run(true));
}

// --- kmigrated (async migration daemons) under faults ------------------------

TEST_F(FaultInjectionTest, KmigratedDroppedBatchLeavesPagesResident) {
  ThreadCtx t = ctx_on(0);
  const vm::Vaddr a = make_region(t, 8, 0);

  FaultInjector inj(FaultPlan::parse("kmigrated:p=1"), 7);
  k_.set_fault_injector(&inj);
  const Kernel::MoveRange r{a, 8 * mem::kPageSize, 2};
  const SyscallResult res = k_.sys_move_pages_async(t, std::span{&r, 1});
  k_.kmigrated_drain(t);
  k_.set_fault_injector(nullptr);

  // Fire-and-forget: the submit succeeds but the batch dies on the queue, so
  // nothing moved and the loss is only visible through the counters.
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.count(), 0);
  EXPECT_EQ(k_.stats().kmigrated_batches_dropped, 1u);
  EXPECT_EQ(k_.stats().kmigrated_batches, 0u);
  EXPECT_EQ(k_.stats().kmigrated_pages, 0u);
  EXPECT_EQ(k_.pages_on_node(pid_, a, 8 * mem::kPageSize, 0), 8u);
  EXPECT_EQ(inj.counters().kmigrated_dropped, 1u);
  k_.validate(pid_);
}

TEST_F(FaultInjectionTest, KmigratedEnomemMidBatchMovesOnlyWhatFits) {
  ThreadCtx t = ctx_on(0);
  // Leave exactly 4 free frames on node 2, then async-migrate 8 pages in:
  // the daemon degrades per page, exactly like synchronous move_pages.
  const std::uint64_t cap = k_.phys().capacity_frames(2);
  make_region(t, cap - 4, 2);
  const vm::Vaddr a = make_region(t, 8, 0);

  const Kernel::MoveRange r{a, 8 * mem::kPageSize, 2};
  const SyscallResult res = k_.sys_move_pages_async(t, std::span{&r, 1});
  k_.kmigrated_drain(t);

  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.count(), 4);
  EXPECT_EQ(k_.stats().kmigrated_batches, 1u);
  EXPECT_EQ(k_.stats().kmigrated_pages, 4u);
  EXPECT_EQ(k_.stats().kmigrated_pages_failed, 4u);
  EXPECT_EQ(k_.pages_on_node(pid_, a, 8 * mem::kPageSize, 2), 4u);
  EXPECT_EQ(k_.pages_on_node(pid_, a, 8 * mem::kPageSize, 0), 4u);
  k_.validate(pid_);
}

TEST(KmigratedDeterminism, ConfigFaultPlanReplaysIdentically) {
  // Dropped kmigrated batches replay exactly: the same plan and seed give
  // the same event stream.
  const topo::Topology topo = topo::Topology::quad_opteron();
  auto run = [&] {
    FaultInjector inj(FaultPlan::parse("kmigrated:p=0.5"), 42);
    EventLog log(16384);  // both outlive the kernel
    Kernel k(KernelConfig{.topology = topo, .backing = mem::Backing::kPhantom});
    k.set_fault_injector(&inj);
    const Pid pid = k.create_process();
    k.add_trace_sink(&log);
    ThreadCtx t;
    t.pid = pid;
    const std::uint64_t len = 16 * mem::kPageSize;
    const vm::Vaddr a = k.sys_mmap(t, len, vm::Prot::kReadWrite,
                                   vm::MemPolicy::bind(topo::node_mask_of(0)));
    k.access(t, a, len, vm::Prot::kWrite, 3500.0);
    for (int i = 0; i < 4; ++i) {
      const Kernel::MoveRange r{a, len, static_cast<topo::NodeId>(1 + i % 3)};
      k.sys_move_pages_async(t, std::span{&r, 1});
    }
    k.kmigrated_drain(t);
    k.validate(pid);
    return log.to_csv() + std::to_string(k.stats().kmigrated_batches_dropped);
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace numasim::kern

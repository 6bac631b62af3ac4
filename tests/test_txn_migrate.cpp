// Transactional shadow-copy migration: the TxnMigrator state machine
// (stepwise, so a racing writer can be interleaved between any two states),
// the mode dispatch through move_pages / the async daemons / numab
// promotion, the degradation ladder (txn -> stop-and-copy -> in-place /
// defer), and the kmigrated teardown accounting.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <vector>

#include "kern/fault_injector.hpp"
#include "kern/kernel.hpp"
#include "kern/txn_migrate.hpp"
#include "obs/metrics.hpp"

namespace numasim::kern {
namespace {

KernelConfig txn_config(LockModel lock = LockModel::kCoarse) {
  KernelConfig cfg;
  cfg.topology = topo::Topology::quad_opteron();
  cfg.backing = mem::Backing::kMaterialized;
  cfg.lock_model = lock;
  cfg.migration_mode = MigrationMode::kTransactional;
  cfg.max_frames_per_node = 512;
  return cfg;
}

class TxnMigrateTest : public ::testing::TestWithParam<LockModel> {
 protected:
  TxnMigrateTest() : k_(txn_config(GetParam())) { pid_ = k_.create_process("txn"); }

  ThreadCtx ctx_on(topo::CoreId core, ThreadId tid = 0) {
    ThreadCtx t;
    t.pid = pid_;
    t.tid = tid;
    t.core = core;
    return t;
  }

  vm::Vaddr make_region(ThreadCtx& t, std::uint64_t pages, topo::NodeId node) {
    const std::uint64_t len = pages * mem::kPageSize;
    const vm::Vaddr a = k_.sys_mmap(t, len, vm::Prot::kReadWrite,
                                    vm::MemPolicy::bind(topo::node_mask_of(node)));
    k_.access(t, a, len, vm::Prot::kWrite, 0.0);
    EXPECT_EQ(k_.pages_on_node(pid_, a, len, node), pages);
    return a;
  }

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

  void scribble(vm::Vaddr addr, std::byte v) {
    const std::byte buf[4] = {v, v, v, v};
    ASSERT_TRUE(k_.poke(pid_, addr, buf));
  }

  Kernel k_;
  Pid pid_ = 0;
};

INSTANTIATE_TEST_SUITE_P(LockModels, TxnMigrateTest,
                         ::testing::Values(LockModel::kCoarse,
                                           LockModel::kRange),
                         [](const auto& pinfo) {
                           return pinfo.param == LockModel::kCoarse ? "Coarse"
                                                                    : "Range";
                         });

// --- full-syscall paths ------------------------------------------------------

TEST_P(TxnMigrateTest, CleanPagesCommitWithoutRetries) {
  ThreadCtx t = ctx_on(0);
  const vm::Vaddr a = make_region(t, 8, 0);
  scribble(a, std::byte{0x5a});

  const std::vector<int> status = move_all(t, a, 8, 1);
  for (int s : status) EXPECT_EQ(s, 1);
  EXPECT_EQ(k_.pages_on_node(pid_, a, 8 * mem::kPageSize, 1), 8u);
  EXPECT_EQ(k_.stats().txn_commits, 8u);
  EXPECT_EQ(k_.stats().txn_dirty_retries, 0u);
  EXPECT_EQ(k_.stats().txn_degraded, 0u);
  EXPECT_EQ(k_.stats().txn_aborted, 0u);

  // Data survives the shadow-copy round trip.
  std::byte got[4];
  ASSERT_TRUE(k_.peek(pid_, a, got));
  EXPECT_EQ(got[0], std::byte{0x5a});
  EXPECT_EQ(k_.phys().total_shadow_frames(), 0u);
  k_.validate(pid_);
}

TEST_P(TxnMigrateTest, WatermarkPressureDegradesToStopAndCopy) {
  ThreadCtx t = ctx_on(0);
  const vm::Vaddr a = make_region(t, 4, 0);
  // Low watermark above the node size: permanently "under pressure", but
  // min stays 0 so the stop-and-copy fallback can still allocate.
  k_.phys().set_node_watermarks(1, 0, 1 << 20);
  ASSERT_TRUE(k_.phys().under_pressure(1));

  const std::vector<int> status = move_all(t, a, 4, 1);
  for (int s : status) EXPECT_EQ(s, 1);
  EXPECT_EQ(k_.pages_on_node(pid_, a, 4 * mem::kPageSize, 1), 4u);
  EXPECT_EQ(k_.stats().txn_commits, 0u);
  EXPECT_EQ(k_.stats().txn_degraded, 4u);
  EXPECT_EQ(k_.stats().migrations_failed, 0u);
  k_.validate(pid_);
}

TEST_P(TxnMigrateTest, KmigratedBatchRunsTransactionally) {
  ThreadCtx t = ctx_on(0);
  const vm::Vaddr a = make_region(t, 16, 0);
  const Kernel::MoveRange r{a, 16 * mem::kPageSize, 1};
  EXPECT_EQ(k_.sys_move_pages_async(t, {&r, 1}), 16);
  k_.kmigrated_drain(t);

  EXPECT_EQ(k_.stats().kmigrated_pages, 16u);
  EXPECT_EQ(k_.stats().txn_commits, 16u);
  EXPECT_EQ(k_.stats().kmigrated_pages_failed, 0u);
  EXPECT_EQ(k_.pages_on_node(pid_, a, 16 * mem::kPageSize, 1), 16u);
  EXPECT_EQ(k_.phys().total_shadow_frames(), 0u);
  k_.validate(pid_);
}

// --- stepwise state machine --------------------------------------------------

TEST_P(TxnMigrateTest, DirtyRetryConvergesAgainstRacingWriter) {
  ThreadCtx t = ctx_on(0);
  const vm::Vaddr a = make_region(t, 1, 0);

  TxnMigrator txn(k_, pid_, vm::vpn_of(a), 1, sim::CostKind::kMovePagesControl,
                  sim::CostKind::kMovePagesCopy);
  EXPECT_EQ(txn.step(t), TxnState::kWriteProtect);  // shadow copied

  // Mid-flight: the shadow frame is accounted and the kernel still validates.
  EXPECT_NE(txn.shadow_frame(), mem::kInvalidFrame);
  EXPECT_EQ(k_.phys().total_shadow_frames(), 1u);
  k_.validate(pid_);

  // A writer dirties the page while the copy window is open.
  scribble(a, std::byte{0x11});

  EXPECT_EQ(txn.step(t), TxnState::kVerifyClean);  // protection armed
  EXPECT_EQ(txn.step(t), TxnState::kDirtyRetry);   // dirty hit detected
  EXPECT_EQ(txn.step(t), TxnState::kWriteProtect); // re-copied under backoff
  EXPECT_EQ(txn.step(t), TxnState::kVerifyClean);
  EXPECT_EQ(txn.step(t), TxnState::kCommitFlip);   // second pass clean
  EXPECT_EQ(txn.step(t), TxnState::kCommitted);

  EXPECT_EQ(txn.retries(), 1u);
  EXPECT_EQ(k_.stats().txn_commits, 1u);
  EXPECT_EQ(k_.stats().txn_dirty_retries, 1u);
  EXPECT_EQ(k_.page_node(pid_, a), 1);
  EXPECT_EQ(k_.phys().total_shadow_frames(), 0u);

  std::byte got[4];
  ASSERT_TRUE(k_.peek(pid_, a, got));
  EXPECT_EQ(got[0], std::byte{0x11});  // the racing write was not lost
  k_.validate(pid_);
}

TEST_P(TxnMigrateTest, WriteServedBySoftTlbInTheCopyWindowIsSeen) {
  ThreadCtx t = ctx_on(0);
  // One chunk's worth of pages, the smallest extent the soft-TLB caches.
  const std::uint64_t pages = vm::PageTable::kChunkPages;
  const std::uint64_t len = pages * mem::kPageSize;
  const vm::Vaddr a = make_region(t, pages, 0);  // first write walk faults
  k_.access(t, a, len, vm::Prot::kWrite, 0.0);   // second fills a descriptor
  const std::uint64_t hits = k_.stats().stlb_hits;
  k_.access(t, a, len, vm::Prot::kWrite, 0.0);  // third is served by it
  ASSERT_EQ(k_.stats().stlb_hits, hits + 1);

  TxnMigrator txn(k_, pid_, vm::vpn_of(a), 1, sim::CostKind::kMovePagesControl,
                  sim::CostKind::kMovePagesCopy);
  EXPECT_EQ(txn.step(t), TxnState::kWriteProtect);  // shadow copied
  // The copy pass cleared kDirty: no current descriptor may still promise
  // a dirty page.
  k_.validate(t);

  // A writer stores to the whole mapping while the copy window is open.
  k_.access(t, a, len, vm::Prot::kWrite, 0.0);
  EXPECT_EQ(txn.step(t), TxnState::kVerifyClean);
  EXPECT_EQ(txn.step(t), TxnState::kDirtyRetry);  // the write was not missed
  EXPECT_EQ(txn.run(t), TxnState::kCommitted);
  EXPECT_EQ(txn.retries(), 1u);
  EXPECT_EQ(k_.page_node(pid_, a), 1);
  k_.validate(t);
}

TEST_P(TxnMigrateTest, CommitHandsTheDirtyBitOn) {
  ThreadCtx t = ctx_on(0);
  const vm::Vaddr written = make_region(t, 1, 0);
  const vm::Vaddr read = k_.sys_mmap(t, mem::kPageSize, vm::Prot::kReadWrite,
                                     vm::MemPolicy::bind(topo::node_mask_of(0)));
  k_.access(t, read, mem::kPageSize, vm::Prot::kRead, 0.0);

  for (const vm::Vaddr a : {written, read}) {
    TxnMigrator txn(k_, pid_, vm::vpn_of(a), 1, sim::CostKind::kMovePagesControl,
                    sim::CostKind::kMovePagesCopy);
    EXPECT_EQ(txn.run(t), TxnState::kCommitted);
    // A dirty bit from before the transaction is not a write in its copy
    // window: both commit on the first pass.
    EXPECT_EQ(txn.retries(), 0u);
    const vm::Pte* pte = k_.address_space(pid_).page_table().find(vm::vpn_of(a));
    ASSERT_NE(pte, nullptr);
    EXPECT_EQ(pte->node(), 1);
    EXPECT_EQ(pte->flags & vm::Pte::kTxn, 0);
    // The written page stays dirty; the page that was only read stays clean.
    EXPECT_EQ((pte->flags & vm::Pte::kDirty) != 0, a == written);
  }
  EXPECT_EQ(k_.stats().txn_dirty_retries, 0u);
  k_.validate(t);
}

TEST_P(TxnMigrateTest, AbortBeforeTheProtectionGivesTheDirtyBitBack) {
  ThreadCtx t = ctx_on(0);
  const vm::Vaddr a = make_region(t, 1, 0);  // written, so dirty
  const vm::Pte* pte = k_.address_space(pid_).page_table().find(vm::vpn_of(a));
  ASSERT_NE(pte, nullptr);

  TxnMigrator txn(k_, pid_, vm::vpn_of(a), 1, sim::CostKind::kMovePagesControl,
                  sim::CostKind::kMovePagesCopy);
  EXPECT_EQ(txn.step(t), TxnState::kWriteProtect);
  EXPECT_EQ(pte->flags & vm::Pte::kDirty, 0);  // cleared for the copy window
  // An madvise marks the page before the protection is armed: the
  // transaction aborts with kTxn never set.
  ASSERT_EQ(k_.sys_madvise(t, a, mem::kPageSize, Advice::kMigrateOnNextTouch), 0);
  EXPECT_EQ(txn.step(t), TxnState::kAbort);
  EXPECT_EQ(txn.step(t), TxnState::kDegraded);
  EXPECT_NE(pte->flags & vm::Pte::kDirty, 0);
  EXPECT_EQ(k_.page_node(pid_, a), 0);
  EXPECT_EQ(k_.phys().total_shadow_frames(), 0u);
  k_.validate(t);
}

TEST_P(TxnMigrateTest, WriteFaultOnProtectedPageNeverStallsWriter) {
  ThreadCtx t = ctx_on(0);
  ThreadCtx w = ctx_on(4, 1);  // writer on node 1
  const vm::Vaddr a = make_region(t, 1, 0);
  w.clock = t.clock;

  TxnMigrator txn(k_, pid_, vm::vpn_of(a), 1, sim::CostKind::kMovePagesControl,
                  sim::CostKind::kMovePagesCopy);
  EXPECT_EQ(txn.step(t), TxnState::kWriteProtect);
  EXPECT_EQ(txn.step(t), TxnState::kVerifyClean);  // kTxn armed, hw write off

  // The writer faults on the protected page; the handler drops the
  // protection immediately (one page-fault charge, not a migration stall).
  const sim::Time before = w.clock;
  k_.access(w, a, mem::kPageSize, vm::Prot::kWrite, 0.0);
  EXPECT_GT(w.stats.get(sim::CostKind::kPageFault), 0u);
  EXPECT_EQ(w.stats.get(sim::CostKind::kLockWait), 0u);
  EXPECT_GT(w.clock, before);  // charged a fault, nothing more

  EXPECT_EQ(txn.step(t), TxnState::kDirtyRetry);  // cleared kTxn == dirty
  const TxnState end = txn.run(t);
  EXPECT_EQ(end, TxnState::kCommitted);
  EXPECT_EQ(k_.page_node(pid_, a), 1);
  k_.validate(pid_);
}

TEST_P(TxnMigrateTest, RetryBudgetExhaustionAbortsCleanly) {
  ThreadCtx t = ctx_on(0);
  const vm::Vaddr a = make_region(t, 1, 0);
  scribble(a, std::byte{0x77});

  TxnMigrator txn(k_, pid_, vm::vpn_of(a), 1, sim::CostKind::kMovePagesControl,
                  sim::CostKind::kMovePagesCopy);
  // Dirty the page before every verify: the transaction can never win.
  while (txn.state() != TxnState::kCommitted &&
         txn.state() != TxnState::kDegraded) {
    if (txn.state() == TxnState::kVerifyClean) scribble(a, std::byte{0x78});
    txn.step(t);
  }
  EXPECT_EQ(txn.state(), TxnState::kDegraded);
  EXPECT_EQ(txn.retries(), k_.cost().txn_retry_max);
  EXPECT_EQ(k_.stats().txn_aborted, 1u);
  EXPECT_EQ(k_.stats().txn_dirty_retries,
            static_cast<std::uint64_t>(k_.cost().txn_retry_max));

  // Aborted: shadow frame released, page untouched on its home node, hw
  // protection restored (the next write is an ordinary access).
  EXPECT_EQ(txn.shadow_frame(), mem::kInvalidFrame);
  EXPECT_EQ(k_.phys().total_shadow_frames(), 0u);
  EXPECT_EQ(k_.page_node(pid_, a), 0);
  const sim::Time faults_before = t.stats.get(sim::CostKind::kPageFault);
  k_.access(t, a, mem::kPageSize, vm::Prot::kWrite, 0.0);
  EXPECT_EQ(t.stats.get(sim::CostKind::kPageFault), faults_before);
  std::byte got[4];
  ASSERT_TRUE(k_.peek(pid_, a, got));
  EXPECT_EQ(got[0], std::byte{0x78});
  k_.validate(pid_);
}

TEST_P(TxnMigrateTest, UnmapMidFlightAbortsWithoutLeak) {
  ThreadCtx t = ctx_on(0);
  const vm::Vaddr a = make_region(t, 1, 0);

  TxnMigrator txn(k_, pid_, vm::vpn_of(a), 1, sim::CostKind::kMovePagesControl,
                  sim::CostKind::kMovePagesCopy);
  EXPECT_EQ(txn.step(t), TxnState::kWriteProtect);
  EXPECT_EQ(k_.sys_munmap(t, a, mem::kPageSize), 0);
  EXPECT_EQ(txn.run(t), TxnState::kDegraded);
  EXPECT_EQ(k_.stats().txn_aborted, 1u);
  EXPECT_EQ(k_.phys().total_shadow_frames(), 0u);
  k_.validate(pid_);
}

// --- fault injection ---------------------------------------------------------

TEST_P(TxnMigrateTest, InjectedCopyFaultsDegradePerPageNotPerBatch) {
  // Every copy attempt reports a transient fault: each transaction exhausts
  // its retry budget, aborts, and falls back to stop-and-copy — which also
  // fails its (bounded) retries. The *batch* still succeeds; the damage is
  // per-page -EAGAIN, exactly like the stop-and-copy engine.
  FaultInjector inj(FaultPlan::parse("copy:pt=1.0"), 7);
  k_.set_fault_injector(&inj);
  ThreadCtx t = ctx_on(0);
  const vm::Vaddr a = make_region(t, 4, 0);

  const std::vector<int> status = move_all(t, a, 4, 1);
  k_.set_fault_injector(nullptr);
  for (int s : status) EXPECT_EQ(s, -kEAGAIN);
  EXPECT_EQ(k_.stats().txn_aborted, 4u);
  EXPECT_EQ(k_.stats().txn_commits, 0u);
  EXPECT_EQ(k_.stats().txn_degraded, 4u);
  EXPECT_EQ(k_.stats().txn_dirty_retries,
            4u * k_.cost().txn_retry_max);
  EXPECT_EQ(k_.pages_on_node(pid_, a, 4 * mem::kPageSize, 0), 4u);
  EXPECT_EQ(k_.phys().total_shadow_frames(), 0u);
  k_.validate(pid_);
}

TEST_P(TxnMigrateTest, MixedInjectedFaultsNeverFailTheBatch) {
  FaultInjector inj(FaultPlan::parse("copy:pt=0.2,pp=0.05"), 42);
  k_.set_fault_injector(&inj);
  ThreadCtx t = ctx_on(0);
  const vm::Vaddr a = make_region(t, 32, 0);

  const std::vector<int> status = move_all(t, a, 32, 1);
  k_.set_fault_injector(nullptr);
  for (int s : status) EXPECT_TRUE(s == 1 || s == -kEAGAIN || s == -kENOMEM);
  EXPECT_EQ(k_.phys().total_shadow_frames(), 0u);
  k_.validate(pid_);
}

// --- determinism -------------------------------------------------------------

TEST(TxnMigrateDeterminism, SamePlanSameSeedSameSchedule) {
  auto run = [] {
    KernelConfig cfg = txn_config(LockModel::kCoarse);
    cfg.fault_plan = FaultPlan::parse("copy:pt=0.2,pp=0.05; shootdown:p=0.05");
    cfg.fault_seed = 99;
    Kernel k(cfg);
    const Pid pid = k.create_process();
    ThreadCtx t;
    t.pid = pid;
    const std::uint64_t len = 64 * mem::kPageSize;
    const vm::Vaddr a = k.sys_mmap(t, len, vm::Prot::kReadWrite,
                                   vm::MemPolicy::bind(topo::node_mask_of(0)));
    k.access(t, a, len, vm::Prot::kWrite, 0.0);
    std::vector<vm::Vaddr> addrs;
    for (std::uint64_t i = 0; i < 64; ++i) addrs.push_back(a + i * mem::kPageSize);
    std::vector<topo::NodeId> nodes(64, 1);
    std::vector<int> status(64, 0);
    k.sys_move_pages(t, addrs, nodes, status);
    k.validate(pid);
    const KernelStats& s = k.stats();
    return std::tuple(t.clock, s.txn_commits, s.txn_dirty_retries,
                      s.txn_degraded, s.txn_aborted, s.migrations_failed,
                      status);
  };
  EXPECT_EQ(run(), run());
}

TEST(TxnMigrateMode, StopAndCopyModeTouchesNoTxnCounters) {
  KernelConfig cfg = txn_config();
  cfg.migration_mode = MigrationMode::kStopAndCopy;
  Kernel k(cfg);
  const Pid pid = k.create_process();
  ThreadCtx t;
  t.pid = pid;
  const std::uint64_t len = 16 * mem::kPageSize;
  const vm::Vaddr a = k.sys_mmap(t, len, vm::Prot::kReadWrite,
                                 vm::MemPolicy::bind(topo::node_mask_of(0)));
  k.access(t, a, len, vm::Prot::kWrite, 0.0);
  std::vector<vm::Vaddr> addrs;
  for (std::uint64_t i = 0; i < 16; ++i) addrs.push_back(a + i * mem::kPageSize);
  std::vector<topo::NodeId> nodes(16, 1);
  std::vector<int> status(16, 0);
  EXPECT_EQ(k.sys_move_pages(t, addrs, nodes, status), 0);
  EXPECT_EQ(k.stats().txn_commits, 0u);
  EXPECT_EQ(k.stats().txn_dirty_retries, 0u);
  EXPECT_EQ(k.stats().txn_degraded, 0u);
  EXPECT_EQ(k.stats().txn_aborted, 0u);
  EXPECT_EQ(k.phys().total_shadow_frames(), 0u);
  k.validate(pid);
}

// --- numab promotion defers instead of stop-and-copying ----------------------

TEST(TxnMigrateNumab, PromotionDefersUnderPressureThenLands) {
  KernelConfig cfg = txn_config();
  cfg.backing = mem::Backing::kPhantom;
  cfg.numa_balancing.enabled = true;
  cfg.numa_balancing.scan_period = sim::microseconds(100);
  cfg.numa_balancing.scan_size_pages = 1024;
  cfg.numa_balancing.two_reference = false;
  Kernel k(cfg);
  const Pid pid = k.create_process();
  ThreadCtx t0;
  t0.pid = pid;
  t0.core = 0;
  ThreadCtx t4;
  t4.pid = pid;
  t4.core = 4;  // node 1
  t4.tid = 1;

  const std::uint64_t len = 8 * mem::kPageSize;
  const vm::Vaddr a = k.sys_mmap(t0, len, vm::Prot::kReadWrite);
  k.access(t0, a, len, vm::Prot::kWrite, 0.0);  // first-touch node 0, arms
  ASSERT_EQ(k.pages_on_node(pid, a, len, 0), 8u);

  // Promotion target under pressure: every transaction degrades and the
  // page is *deferred* — not stop-and-copied, not counted as failed.
  k.phys().set_node_watermarks(1, 0, 1 << 20);
  t4.clock = t0.clock + sim::microseconds(100);
  k.access(t4, a, len, vm::Prot::kRead, 0.0);
  EXPECT_GT(k.stats().numab_hint_faults, 0u);
  EXPECT_GE(k.stats().txn_degraded, 8u);
  EXPECT_EQ(k.stats().kmigrated_pages, 0u);
  EXPECT_EQ(k.stats().kmigrated_pages_failed, 0u);
  EXPECT_EQ(k.pages_on_node(pid, a, len, 0), 8u);

  // Pressure gone: the next scan pass re-promotes and the pages land.
  k.phys().set_node_watermarks(1, 0, 0);
  t4.clock += sim::microseconds(100);
  k.access(t4, a, len, vm::Prot::kRead, 0.0);
  t4.clock += sim::microseconds(100);
  k.access(t4, a, len, vm::Prot::kRead, 0.0);
  k.kmigrated_drain(t4);
  EXPECT_EQ(k.pages_on_node(pid, a, len, 1), 8u);
  EXPECT_GT(k.stats().txn_commits, 0u);
  k.validate(pid);
}

// --- kmigrated teardown accounting -------------------------------------------

TEST(KmigratedTeardown, InflightBatchesAreCountedNotSilentlyDropped) {
  obs::Registry reg;
  {
    KernelConfig cfg;
    cfg.topology = topo::Topology::quad_opteron();
    cfg.backing = mem::Backing::kPhantom;
    Kernel k(cfg);
    k.set_metrics(&reg);
    const Pid pid = k.create_process();
    ThreadCtx t;
    t.pid = pid;
    const std::uint64_t len = 32 * mem::kPageSize;
    const vm::Vaddr a = k.sys_mmap(t, len, vm::Prot::kReadWrite,
                                   vm::MemPolicy::bind(topo::node_mask_of(0)));
    k.access(t, a, len, vm::Prot::kWrite, 0.0);
    const Kernel::MoveRange r{a, len, 1};
    EXPECT_GT(k.sys_move_pages_async(t, {&r, 1}), 0);
    // Destroyed with the batch still completing on the daemon's timeline:
    // the kernel must account it, not lose it.
  }
  EXPECT_GE(reg.snapshot().counters.at("kern.kmigrated.dropped"), 1u);
}

TEST(KmigratedTeardown, DrainedKernelDropsNothing) {
  obs::Registry reg;
  {
    KernelConfig cfg;
    cfg.topology = topo::Topology::quad_opteron();
    cfg.backing = mem::Backing::kPhantom;
    Kernel k(cfg);
    k.set_metrics(&reg);
    const Pid pid = k.create_process();
    ThreadCtx t;
    t.pid = pid;
    const std::uint64_t len = 8 * mem::kPageSize;
    const vm::Vaddr a = k.sys_mmap(t, len, vm::Prot::kReadWrite,
                                   vm::MemPolicy::bind(topo::node_mask_of(0)));
    k.access(t, a, len, vm::Prot::kWrite, 0.0);
    const Kernel::MoveRange r{a, len, 1};
    EXPECT_GT(k.sys_move_pages_async(t, {&r, 1}), 0);
    k.kmigrated_drain(t);
  }
  EXPECT_EQ(reg.snapshot().counters.at("kern.kmigrated.dropped"), 0u);
}

}  // namespace
}  // namespace numasim::kern

// The one page-migration pipeline, driven through every entry point that
// moves pages — move_pages(2), the ranged and async interfaces, mbind(MOVE),
// migrate_pages(2) and the next-touch fault — crossed with both lock models
// and both engines (migrate_pages(2) is stop-and-copy only). Every entry
// point must honour the same contract (docs/failure-semantics.md): an
// injected copy fault rolls each page back with nothing leaked, and a full
// fast tier is made room on by direct demotion. The pipeline's billing and
// tracing rules are pinned below the table.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "kern/fault_injector.hpp"
#include "kern/kernel.hpp"
#include "obs/metrics.hpp"

namespace numasim::kern {
namespace {

enum class Entry {
  kMovePages,
  kRanged,
  kAsync,
  kMbind,
  kMigratePages,
  kNextTouch,
};

const char* entry_name(Entry e) {
  switch (e) {
    case Entry::kMovePages: return "move_pages";
    case Entry::kRanged: return "ranged";
    case Entry::kAsync: return "async";
    case Entry::kMbind: return "mbind";
    case Entry::kMigratePages: return "migrate_pages";
    case Entry::kNextTouch: return "next_touch";
  }
  return "?";
}

using Param = std::tuple<Entry, LockModel, MigrationMode>;

std::vector<Param> all_params() {
  std::vector<Param> out;
  for (Entry e : {Entry::kMovePages, Entry::kRanged, Entry::kAsync, Entry::kMbind,
                  Entry::kMigratePages, Entry::kNextTouch})
    for (LockModel lock : {LockModel::kCoarse, LockModel::kRange})
      for (MigrationMode mode :
           {MigrationMode::kStopAndCopy, MigrationMode::kTransactional}) {
        if (e == Entry::kMigratePages && mode == MigrationMode::kTransactional)
          continue;
        out.emplace_back(e, lock, mode);
      }
  return out;
}

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  const auto [e, lock, mode] = info.param;
  return std::string{entry_name(e)} +
         (lock == LockModel::kCoarse ? "_coarse_" : "_range_") +
         migration_mode_name(mode);
}

constexpr std::uint64_t kPages = 64;
constexpr std::uint64_t kLen = kPages * mem::kPageSize;

class MigrationPipelineTest : public ::testing::TestWithParam<Param> {
 protected:
  Entry entry() const { return std::get<0>(GetParam()); }

  KernelConfig config(topo::Topology topology) const {
    KernelConfig cfg;
    cfg.topology = std::move(topology);
    cfg.backing = mem::Backing::kPhantom;
    cfg.lock_model = std::get<1>(GetParam());
    cfg.migration_mode = std::get<2>(GetParam());
    return cfg;
  }

  /// A thread of `pid` on the first core of `node` (the toucher's node is
  /// the next-touch destination).
  static ThreadCtx thread_on(const Kernel& k, Pid pid, topo::NodeId node) {
    ThreadCtx t;
    t.pid = pid;
    while (k.topo().node_of_core(t.core) != node) ++t.core;
    return t;
  }

  /// mmap + populate `kPages` pages bound to `node`.
  static vm::Vaddr region_on(Kernel& k, ThreadCtx& t, topo::NodeId node,
                             std::uint64_t pages = kPages) {
    const vm::Vaddr a =
        k.sys_mmap(t, pages * mem::kPageSize, vm::Prot::kReadWrite,
                   vm::MemPolicy::bind(topo::node_mask_of(node)));
    k.access(t, a, pages * mem::kPageSize, vm::Prot::kWrite, 0.0);
    EXPECT_EQ(k.pages_on_node(t.pid, a, pages * mem::kPageSize, node), pages);
    return a;
  }

  /// Move the kPages pages at `buf` from `src` to `dest` through entry().
  /// `t` runs on `dest` (the next-touch entries migrate toward the toucher).
  void move(Kernel& k, ThreadCtx& t, vm::Vaddr buf, topo::NodeId src,
            topo::NodeId dest) const {
    const Kernel::MoveRange range{buf, kLen, dest};
    switch (entry()) {
      case Entry::kMovePages: {
        std::vector<vm::Vaddr> pages;
        for (std::uint64_t i = 0; i < kPages; ++i)
          pages.push_back(buf + i * mem::kPageSize);
        const std::vector<topo::NodeId> nodes(kPages, dest);
        std::vector<int> status(kPages, 0);
        EXPECT_EQ(k.sys_move_pages(t, pages, nodes, status), 0);
        break;
      }
      case Entry::kRanged:
        EXPECT_TRUE(k.sys_move_pages_ranged(t, {&range, 1}).ok());
        break;
      case Entry::kAsync:
        EXPECT_TRUE(k.sys_move_pages_async(t, {&range, 1}).ok());
        k.kmigrated_drain(t);
        break;
      case Entry::kMbind:
        EXPECT_EQ(k.sys_mbind(t, buf, kLen, vm::MemPolicy::bind(topo::node_mask_of(dest)),
                              /*move_existing=*/true),
                  0);
        break;
      case Entry::kMigratePages:
        EXPECT_TRUE(k.sys_migrate_pages(t, t.pid, topo::node_mask_of(src),
                                        topo::node_mask_of(dest))
                        .ok());
        break;
      case Entry::kNextTouch:
        EXPECT_EQ(k.sys_madvise(t, buf, kLen, Advice::kMigrateOnNextTouch), 0);
        k.access(t, buf, kLen, vm::Prot::kWrite, 0.0);
        k.kmigrated_drain(t);
        break;
    }
  }
};

INSTANTIATE_TEST_SUITE_P(EntryPoints, MigrationPipelineTest,
                         ::testing::ValuesIn(all_params()), param_name);

TEST_P(MigrationPipelineTest, CopyFaultRollsBackEveryPage) {
  obs::Registry reg;  // outlives the kernel
  Kernel k(config(topo::Topology::quad_opteron()));
  k.set_metrics(&reg);
  const Pid pid = k.create_process("pipeline");
  ThreadCtx t = thread_on(k, pid, 1);
  const vm::Vaddr buf = region_on(k, t, 0);
  const std::uint64_t used = k.phys().total_used_frames();
  const std::uint64_t shadow = k.phys().total_shadow_frames();
  const std::uint64_t failed = k.stats().migrations_failed;

  FaultInjector inj(FaultPlan::parse("copy:pp=1"), 7);
  k.set_fault_injector(&inj);
  move(k, t, buf, 0, 1);
  k.set_fault_injector(nullptr);

  // Every attempted page failed its copy and was rolled back in place.
  EXPECT_EQ(k.pages_on_node(pid, buf, kLen, 0), kPages);
  EXPECT_EQ(k.stats().migrations_failed - failed, kPages);
  EXPECT_EQ(k.phys().total_used_frames(), used);
  EXPECT_EQ(k.phys().total_shadow_frames(), shadow);
  // One kern.migrate_page_ns sample per page, whichever path moved it.
  EXPECT_EQ(reg.histogram("kern.migrate_page_ns").count(), kPages);
  k.validate(pid);
  k.set_metrics(nullptr);
}

TEST_P(MigrationPipelineTest, DirectDemotionMakesRoomOnFullFastTier) {
  // Two nodes: fast node 0 with 256 frames, DRAM node 1. A filler (lower
  // VPNs, so direct demotion walks it first) leaves ~16 fast frames free.
  KernelConfig cfg = config(topo::Topology::from_spec(
      "nodes=2 cores=2 shape=line tiers=fast:1,dram:1 fast_mb=1"));
  cfg.tiers.enabled = true;
  ASSERT_TRUE(cfg.tiers.demotion);
  Kernel k(cfg);
  const Pid pid = k.create_process("pipeline");
  ThreadCtx t = thread_on(k, pid, 0);
  region_on(k, t, 0, 240);
  const vm::Vaddr buf = region_on(k, t, 1);

  move(k, t, buf, 1, 0);

  EXPECT_EQ(k.pages_on_node(pid, buf, kLen, 0), kPages);
  EXPECT_GT(k.stats().tier_demotions, 0u);
  EXPECT_EQ(k.stats().migrations_failed, 0u);
  k.validate(pid);
}

// --- billing and tracing rules ------------------------------------------------

/// Where one move_pages call billed its page copies.
struct CopyBill {
  sim::Time copy = 0;            ///< the mover's kMovePagesCopy time
  std::uint64_t page_samples = 0;
  std::uint64_t page_ns = 0;     ///< sum of the kern.migrate_page_ns samples
  std::uint64_t degraded = 0;    ///< kern.migrate.txn.degraded
};

/// Populate 16 pages on node 0 and move_pages them to node 1 on a fresh
/// kernel whose node 1 is permanently under its low watermark, so every
/// transaction degrades at admission.
CopyBill move_pages_bill(MigrationMode mode) {
  obs::Registry reg;  // outlives the kernel
  Kernel k(KernelConfig{.topology = topo::Topology::quad_opteron(),
                        .backing = mem::Backing::kPhantom,
                        .migration_mode = mode,
                        .max_frames_per_node = 512});
  k.set_metrics(&reg);
  k.phys().set_node_watermarks(1, 0, 1 << 20);
  const Pid pid = k.create_process();
  ThreadCtx t;
  t.pid = pid;
  constexpr std::uint64_t kN = 16;
  const vm::Vaddr a = k.sys_mmap(t, kN * mem::kPageSize, vm::Prot::kReadWrite,
                                 vm::MemPolicy::bind(topo::node_mask_of(0)));
  k.access(t, a, kN * mem::kPageSize, vm::Prot::kWrite, 0.0);
  std::vector<vm::Vaddr> pages;
  for (std::uint64_t i = 0; i < kN; ++i) pages.push_back(a + i * mem::kPageSize);
  const std::vector<topo::NodeId> nodes(kN, 1);
  std::vector<int> status(kN, 0);
  t.stats.reset();
  EXPECT_EQ(k.sys_move_pages(t, pages, nodes, status), 0);
  EXPECT_EQ(k.pages_on_node(pid, a, kN * mem::kPageSize, 1), kN);
  const obs::Histogram& h = reg.histogram("kern.migrate_page_ns");
  CopyBill bill{t.stats.get(sim::CostKind::kMovePagesCopy), h.count(), h.sum(),
                k.stats().txn_degraded};
  k.set_metrics(nullptr);
  return bill;
}

TEST(MigrationPipeline, TxnDegradedMovePagesCopiesInTheChunkFlush) {
  // A degraded transaction's stop-and-copy fallback defers its copy into
  // the chunk's coalesced flush, exactly like the stop-and-copy engine: the
  // per-page samples bill no copy time, the chunk's copy time is the same.
  const CopyBill sc = move_pages_bill(MigrationMode::kStopAndCopy);
  const CopyBill txn = move_pages_bill(MigrationMode::kTransactional);
  EXPECT_EQ(sc.degraded, 0u);
  EXPECT_EQ(txn.degraded, 16u);
  EXPECT_GT(sc.copy, 0u);
  EXPECT_EQ(txn.copy, sc.copy);
  EXPECT_EQ(sc.page_samples, 16u);
  EXPECT_EQ(txn.page_samples, 16u);
  EXPECT_EQ(txn.page_ns, sc.page_ns);
}

TEST(MigrationPipeline, KmigratedFailuresStampTheDaemonClock) {
  // A page the daemon fails to move is traced on the daemon's context,
  // which runs after the submitter has already returned.
  for (MigrationMode mode :
       {MigrationMode::kStopAndCopy, MigrationMode::kTransactional}) {
    EventLog log;  // outlives the kernel
    Kernel k(KernelConfig{.topology = topo::Topology::quad_opteron(),
                          .backing = mem::Backing::kPhantom,
                          .migration_mode = mode});
    const Pid pid = k.create_process();
    ThreadCtx t;
    t.pid = pid;
    const vm::Vaddr a = k.sys_mmap(t, 4 * mem::kPageSize, vm::Prot::kReadWrite,
                                   vm::MemPolicy::bind(topo::node_mask_of(0)));
    k.access(t, a, 4 * mem::kPageSize, vm::Prot::kWrite, 0.0);

    FaultInjector inj(FaultPlan::parse("alloc:p=1"), 3);
    k.set_fault_injector(&inj);
    k.add_trace_sink(&log);
    const Kernel::MoveRange r{a, 4 * mem::kPageSize, 1};
    EXPECT_EQ(k.sys_move_pages_async(t, {&r, 1}), 0);
    k.remove_trace_sink(&log);
    k.set_fault_injector(nullptr);

    EXPECT_EQ(k.stats().kmigrated_pages_failed, 4u);
    std::uint64_t fails = 0;
    for (const Event& e : log.events()) {
      if (e.type != EventType::kMigrateFail) continue;
      ++fails;
      EXPECT_GT(e.when, t.clock) << migration_mode_name(mode);
    }
    EXPECT_EQ(fails, 4u) << migration_mode_name(mode);
    k.validate(pid);
  }
}

// --- frame reuse ----------------------------------------------------------------

TEST(MigrationPipeline, MovedBackPagesTakeTheLowestFreeFramesInOrder) {
  // Eight pages move 0 -> 1 one at a time, so node 0 frees frames 0..7 in
  // order, then move back one at a time and take node 0's lowest free frame
  // each: frames 0..7 again, in order. validate() runs after every move: an
  // allocator that handed out an id but still marked it free fails the
  // allocator audit there, before the id could be handed out twice.
  Kernel k(KernelConfig{.topology = topo::Topology::quad_opteron(),
                        .backing = mem::Backing::kPhantom});
  const Pid pid = k.create_process();
  ThreadCtx t;
  t.pid = pid;
  constexpr std::uint64_t kN = 8;
  const vm::Vaddr a = k.sys_mmap(t, kN * mem::kPageSize, vm::Prot::kReadWrite,
                                 vm::MemPolicy::bind(topo::node_mask_of(0)));
  k.access(t, a, kN * mem::kPageSize, vm::Prot::kWrite, 0.0);
  const vm::PageTable& pt = k.address_space(pid).page_table();
  auto frame_of = [&](std::uint64_t i) {
    return pt.find(vm::vpn_of(a + i * mem::kPageSize))->frame;
  };
  auto move_one = [&](std::uint64_t i, topo::NodeId dest) {
    const vm::Vaddr page = a + i * mem::kPageSize;
    const topo::NodeId node = dest;
    int status = 0;
    EXPECT_EQ(k.sys_move_pages(t, {&page, 1}, {&node, 1}, {&status, 1}), 0);
    EXPECT_EQ(status, static_cast<int>(dest));
    k.validate(pid);
  };
  for (std::uint64_t i = 0; i < kN; ++i) ASSERT_EQ(frame_of(i), i);
  for (std::uint64_t i = 0; i < kN; ++i) move_one(i, 1);
  for (std::uint64_t i = 0; i < kN; ++i) {
    move_one(i, 0);
    EXPECT_EQ(frame_of(i), i);
  }
  EXPECT_EQ(k.pages_on_node(pid, a, kN * mem::kPageSize, 0), kN);
}

}  // namespace
}  // namespace numasim::kern

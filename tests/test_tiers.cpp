// Heterogeneous memory tiers: the spec grammar and its structured errors,
// asymmetric device write bandwidth, numab promotion up-tier, the watermark
// demotion daemon (cold-page selection, hysteresis against promote/demote
// ping-pong, fault-injection drops), direct demotion under allocation
// pressure vs. per-page ENOMEM with demotion off, the MPOL_PREFERRED_MANY
// tier policy, and validate()'s tier-occupancy audit.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "kern/fault_injector.hpp"
#include "kern/kernel.hpp"
#include "lib/numalib.hpp"
#include "topo/topology.hpp"

namespace numasim {
namespace {

using kern::Kernel;
using kern::KernelConfig;
using kern::ThreadCtx;

// Two nodes (one fast, one DRAM), two cores each, 1 MB fast tier = 256
// frames. Cores 0-1 sit on the fast node, 2-3 on the DRAM node.
constexpr std::uint64_t kFastFrames = 256;

KernelConfig tiered_config(const char* spec =
                               "nodes=2 cores=2 shape=line "
                               "tiers=fast:1,dram:1 fast_mb=1") {
  KernelConfig cfg;
  cfg.topology = topo::Topology::from_spec(spec);
  cfg.backing = mem::Backing::kPhantom;
  cfg.tiers.enabled = true;
  return cfg;
}

ThreadCtx ctx_on(kern::Pid pid, topo::CoreId core, kern::ThreadId tid = 0) {
  ThreadCtx t;
  t.pid = pid;
  t.core = core;
  t.tid = tid;
  return t;
}

// --- spec grammar ------------------------------------------------------------

TEST(TierSpec, GrammarAssignsTiersInListedOrder) {
  const topo::Topology t =
      topo::Topology::from_spec("nodes=4 cores=1 tiers=fast:1,dram:2,far:1");
  EXPECT_TRUE(t.tiered());
  EXPECT_EQ(t.tier_of(0), topo::MemTier::kFast);
  EXPECT_EQ(t.tier_of(1), topo::MemTier::kDram);
  EXPECT_EQ(t.tier_of(2), topo::MemTier::kDram);
  EXPECT_EQ(t.tier_of(3), topo::MemTier::kFar);
  EXPECT_EQ(t.nodes_of_tier(topo::MemTier::kFast).size(), 1u);
  EXPECT_EQ(t.nodes_of_tier(topo::MemTier::kDram).size(), 2u);
  EXPECT_EQ(t.nodes_of_tier(topo::MemTier::kFar).size(), 1u);

  // Tier defaults derive from the dram numbers: fast = 3x bandwidth, far
  // writes at half the far read rate.
  const double dram_bw = t.node_spec(1).dram_bytes_per_us;
  EXPECT_DOUBLE_EQ(t.node_spec(0).dram_bytes_per_us, 3.0 * dram_bw);
  EXPECT_DOUBLE_EQ(t.node_spec(3).dram_write_bytes_per_us,
                   t.node_spec(3).dram_bytes_per_us / 2.0);
  EXPECT_EQ(t.node_spec(0).dram_capacity_bytes, 64ull << 20);
}

TEST(TierSpec, FlatSpecStaysUntiered) {
  const topo::Topology t = topo::Topology::from_spec("nodes=4 cores=2");
  EXPECT_FALSE(t.tiered());
  for (topo::NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(t.tier_of(n), topo::MemTier::kDram);
    EXPECT_DOUBLE_EQ(t.node_spec(n).dram_write_bytes_per_us, 0.0);
  }
}

TEST(TierSpec, SpecErrorCarriesKeyAndToken) {
  // Counts must sum to `nodes`.
  try {
    topo::Topology::from_spec("nodes=4 cores=1 tiers=fast:1,dram:1");
    FAIL() << "expected SpecError";
  } catch (const topo::SpecError& e) {
    EXPECT_EQ(e.key, "tiers");
    EXPECT_FALSE(std::string(e.what()).empty());
  }
  // Unknown tier name: the offending token is isolated.
  try {
    topo::Topology::from_spec("nodes=2 cores=1 tiers=hbm:2");
    FAIL() << "expected SpecError";
  } catch (const topo::SpecError& e) {
    EXPECT_EQ(e.key, "tiers");
    EXPECT_FALSE(e.token.empty());
  }
  // SpecError still satisfies pre-existing std::invalid_argument catches.
  EXPECT_THROW(topo::Topology::from_spec("nodes=2 cores=1 tiers=fast:x"),
               std::invalid_argument);
}

// --- asymmetric device bandwidth ---------------------------------------------

TEST(TierHw, FarWritesStreamSlowerThanReads) {
  // kFar reads at 1000 B/us but writes at 250 B/us; the same streams on the
  // DRAM node stay symmetric. 4 MB per access swamps the 1 MB L3.
  KernelConfig cfg;
  cfg.topology = topo::Topology::from_spec(
      "nodes=2 cores=2 shape=line tiers=dram:1,far:1 "
      "far_bw=1000 far_wr_bw=250 l3_mb=1");
  cfg.backing = mem::Backing::kPhantom;
  cfg.tiers.enabled = true;
  Kernel k(cfg);
  const kern::Pid pid = k.create_process();

  const std::uint64_t len = 1024 * mem::kPageSize;
  const auto timed = [&](topo::CoreId core, topo::NodeId node,
                         vm::Prot want) {
    ThreadCtx t = ctx_on(pid, core);
    const vm::Vaddr a = k.sys_mmap(t, len, vm::Prot::kReadWrite,
                                   vm::MemPolicy::bind(topo::node_mask_of(node)));
    k.access(t, a, len, vm::Prot::kWrite, 3500.0);  // populate
    const sim::Time begin = t.clock;
    k.access(t, a, len, want, 3500.0);
    return t.clock - begin;
  };

  const sim::Time far_rd = timed(2, 1, vm::Prot::kRead);
  const sim::Time far_wr = timed(2, 1, vm::Prot::kWrite);
  EXPECT_GT(far_wr, far_rd);  // stretched by the read/write bandwidth ratio

  const sim::Time dram_rd = timed(0, 0, vm::Prot::kRead);
  const sim::Time dram_wr = timed(0, 0, vm::Prot::kWrite);
  EXPECT_EQ(dram_wr, dram_rd);  // symmetric tier: scale == 1 fast path
}

// --- promotion ---------------------------------------------------------------

TEST(TierPromotion, NumabPromotesUpTierAfterTwoReferences) {
  KernelConfig cfg = tiered_config(
      "nodes=2 cores=2 shape=line tiers=fast:1,dram:1 fast_mb=64");
  cfg.numa_balancing.enabled = true;
  cfg.numa_balancing.scan_period = sim::microseconds(100);
  cfg.numa_balancing.scan_size_pages = 1024;
  Kernel k(cfg);
  const kern::Pid pid = k.create_process();
  ThreadCtx t = ctx_on(pid, 0);  // fast node 0

  // Buffer lives down-tier on DRAM; the fast-node thread hammers it.
  const std::uint64_t len = 16 * mem::kPageSize;
  const vm::Vaddr a = k.sys_mmap(t, len, vm::Prot::kReadWrite,
                                 vm::MemPolicy::bind(topo::node_mask_of(1)));
  k.access(t, a, len, vm::Prot::kWrite, 0.0);  // arms the scan clock
  ASSERT_EQ(k.pages_on_node(pid, a, len, 1), 16u);

  // Window 1: remote hint faults defer (first reference).
  t.clock += cfg.numa_balancing.scan_period;
  k.access(t, a, len, vm::Prot::kRead, 0.0);
  EXPECT_EQ(k.stats().numab_promotions_deferred, 16u);
  EXPECT_EQ(k.stats().tier_promotions, 0u);

  // Window 2: confirmed — promoted up-tier through kmigrated.
  t.clock += cfg.numa_balancing.scan_period;
  k.access(t, a, len, vm::Prot::kRead, 0.0);
  EXPECT_EQ(k.stats().tier_promotions, 16u);
  EXPECT_EQ(k.pages_on_node(pid, a, len, 0), 16u);
  EXPECT_GT(k.stats().kmigrated_pages, 0u);
  k.validate(pid);
}

TEST(TierPromotion, CounterGatedOnTierConfig) {
  // Same machine and workload, but tiers.enabled=false: classic AutoNUMA
  // still pulls the pages to the faulting node, yet no tier counter moves.
  KernelConfig cfg = tiered_config(
      "nodes=2 cores=2 shape=line tiers=fast:1,dram:1 fast_mb=64");
  cfg.tiers.enabled = false;
  cfg.numa_balancing.enabled = true;
  cfg.numa_balancing.scan_period = sim::microseconds(100);
  cfg.numa_balancing.scan_size_pages = 1024;
  Kernel k(cfg);
  const kern::Pid pid = k.create_process();
  ThreadCtx t = ctx_on(pid, 0);
  const std::uint64_t len = 16 * mem::kPageSize;
  const vm::Vaddr a = k.sys_mmap(t, len, vm::Prot::kReadWrite,
                                 vm::MemPolicy::bind(topo::node_mask_of(1)));
  k.access(t, a, len, vm::Prot::kWrite, 0.0);
  t.clock += cfg.numa_balancing.scan_period;
  k.access(t, a, len, vm::Prot::kRead, 0.0);
  t.clock += cfg.numa_balancing.scan_period;
  k.access(t, a, len, vm::Prot::kRead, 0.0);
  EXPECT_EQ(k.pages_on_node(pid, a, len, 0), 16u);
  EXPECT_EQ(k.stats().tier_promotions, 0u);
  EXPECT_EQ(k.stats().tier_demote_passes, 0u);
}

// --- watermark demotion ------------------------------------------------------

// Fills the fast node past its high watermark with pages that then go cold,
// and drives the scan clock from the DRAM node so no promotions interfere.
struct DemotionRig {
  explicit DemotionRig(KernelConfig cfg) : k(std::move(cfg)) {
    pid = k.create_process("tiers");
    t = ctx_on(pid, /*core=*/2);  // DRAM node 1: hint faults stay local
    const std::uint64_t flen = 240 * mem::kPageSize;
    filler = k.sys_mmap(t, flen, vm::Prot::kReadWrite,
                        vm::MemPolicy::bind(topo::node_mask_of(0)));
    k.access(t, filler, flen, vm::Prot::kWrite, 0.0);
    const std::uint64_t dlen = 16 * mem::kPageSize;
    drv = k.sys_mmap(t, dlen, vm::Prot::kReadWrite,
                     vm::MemPolicy::bind(topo::node_mask_of(1)));
    k.access(t, drv, dlen, vm::Prot::kWrite, 0.0);
  }

  /// One scan window: only the small DRAM-local driver region is touched,
  /// so the filler ages (numa_idle) instead of refaulting.
  void window() {
    t.clock += sim::microseconds(100);
    k.access(t, drv, 16 * mem::kPageSize, vm::Prot::kRead, 0.0);
  }

  Kernel k;
  kern::Pid pid = 0;
  ThreadCtx t;
  vm::Vaddr filler = 0;
  vm::Vaddr drv = 0;
};

KernelConfig demotion_config() {
  KernelConfig cfg = tiered_config();  // 256 fast frames, watermark 230
  cfg.numa_balancing.enabled = true;
  cfg.numa_balancing.scan_period = sim::microseconds(100);
  cfg.numa_balancing.scan_size_pages = 1024;
  return cfg;
}

TEST(TierDemotion, WatermarkPassDemotesColdPages) {
  DemotionRig rig(demotion_config());
  ASSERT_EQ(rig.k.fast_occupancy_pct(), 240 * 100 / kFastFrames);

  // Window 1 tags the filler; windows 2-3 age it to demote_after_windows.
  // The pass at the end of window 3 demotes one batch down-tier, dropping
  // the fast node back under its watermark, after which passes stop.
  for (int i = 0; i < 4; ++i) rig.window();
  const kern::KernelStats& s = rig.k.stats();
  EXPECT_GE(s.tier_demote_passes, 1u);
  EXPECT_EQ(s.tier_demotions, 64u);  // one demote_batch_pages batch
  EXPECT_EQ(rig.k.pages_on_node(rig.pid, rig.filler, 240 * mem::kPageSize, 1),
            64u);
  EXPECT_LT(rig.k.fast_occupancy_pct(), 90);
  rig.k.validate(rig.pid);
}

TEST(TierDemotion, HysteresisBlocksPingPongWithinScanPeriod) {
  DemotionRig rig(demotion_config());
  for (int i = 0; i < 4; ++i) rig.window();
  ASSERT_EQ(rig.k.stats().tier_demotions, 64u);

  // A fast-node thread immediately re-touches everything. The demoted pages'
  // two-reference state was reset on demotion, so the first remote fault
  // only defers — nothing promotes back within the same scan period. (The
  // driver region itself may have been promoted up-tier during the windows,
  // hence the snapshot rather than an absolute zero.)
  const std::uint64_t promos = rig.k.stats().tier_promotions;
  const std::uint64_t deferred = rig.k.stats().numab_promotions_deferred;
  ThreadCtx hot = ctx_on(rig.pid, /*core=*/0, /*tid=*/1);
  hot.clock = rig.t.clock;
  rig.k.access(hot, rig.filler, 240 * mem::kPageSize, vm::Prot::kRead, 0.0);
  EXPECT_EQ(rig.k.stats().tier_promotions, promos);
  EXPECT_GT(rig.k.stats().numab_promotions_deferred, deferred);
  EXPECT_EQ(rig.k.stats().tier_demotions, 64u);  // and nothing re-demoted
  rig.k.validate(rig.pid);
}

TEST(TierDemotion, HonorsFaultInjectorKmigratedDrop) {
  // Every kmigrated batch is lost on the daemon queue: the demotion pass
  // runs (and is counted) but no page actually moves down-tier.
  kern::FaultInjector inj(kern::FaultPlan::parse("kmigrated:p=1"), 7);
  DemotionRig rig(demotion_config());
  rig.k.set_fault_injector(&inj);
  for (int i = 0; i < 4; ++i) rig.window();
  const kern::KernelStats& s = rig.k.stats();
  EXPECT_GE(s.tier_demote_passes, 1u);
  EXPECT_EQ(s.tier_demotions, 0u);
  EXPECT_GT(s.kmigrated_batches_dropped, 0u);
  EXPECT_EQ(rig.k.pages_on_node(rig.pid, rig.filler, 240 * mem::kPageSize, 0),
            240u);
  rig.k.validate(rig.pid);
}

// --- direct demotion under allocation pressure -------------------------------

std::vector<int> move_all(Kernel& k, ThreadCtx& t, vm::Vaddr a,
                          std::uint64_t pages, topo::NodeId dest) {
  std::vector<vm::Vaddr> addrs;
  for (std::uint64_t i = 0; i < pages; ++i)
    addrs.push_back(a + i * mem::kPageSize);
  std::vector<topo::NodeId> nodes(addrs.size(), dest);
  std::vector<int> status(addrs.size(), 0);
  EXPECT_EQ(k.sys_move_pages(t, addrs, nodes, status), 0);
  return status;
}

TEST(TierDemotion, DirectDemotionKeepsMovePagesSucceeding) {
  Kernel k(tiered_config());
  const kern::Pid pid = k.create_process();
  ThreadCtx t = ctx_on(pid, 2);
  const vm::Vaddr filler =
      k.sys_mmap(t, 240 * mem::kPageSize, vm::Prot::kReadWrite,
                 vm::MemPolicy::bind(topo::node_mask_of(0)));
  k.access(t, filler, 240 * mem::kPageSize, vm::Prot::kWrite, 0.0);
  const vm::Vaddr buf =
      k.sys_mmap(t, 64 * mem::kPageSize, vm::Prot::kReadWrite,
                 vm::MemPolicy::bind(topo::node_mask_of(1)));
  k.access(t, buf, 64 * mem::kPageSize, vm::Prot::kWrite, 0.0);

  // 64 pages into a node with ~16 free frames: the shortfall is covered by
  // evicting filler pages (lower VPNs, walked first) down to DRAM.
  const std::vector<int> status = move_all(k, t, buf, 64, 0);
  for (const int s : status) EXPECT_EQ(s, 0);
  EXPECT_EQ(k.pages_on_node(pid, buf, 64 * mem::kPageSize, 0), 64u);
  EXPECT_EQ(k.stats().migrations_failed, 0u);
  EXPECT_GT(k.stats().tier_demotions, 0u);
  EXPECT_GE(k.stats().tier_demote_passes, 0u);
  k.validate(pid);
}

TEST(TierDemotion, DemotionOffDegradesToPerPageEnomem) {
  KernelConfig cfg = tiered_config();
  cfg.tiers.demotion = false;
  Kernel k(cfg);
  const kern::Pid pid = k.create_process();
  ThreadCtx t = ctx_on(pid, 2);
  const vm::Vaddr filler =
      k.sys_mmap(t, 240 * mem::kPageSize, vm::Prot::kReadWrite,
                 vm::MemPolicy::bind(topo::node_mask_of(0)));
  k.access(t, filler, 240 * mem::kPageSize, vm::Prot::kWrite, 0.0);
  const vm::Vaddr buf =
      k.sys_mmap(t, 64 * mem::kPageSize, vm::Prot::kReadWrite,
                 vm::MemPolicy::bind(topo::node_mask_of(1)));
  k.access(t, buf, 64 * mem::kPageSize, vm::Prot::kWrite, 0.0);

  const std::vector<int> status = move_all(k, t, buf, 64, 0);
  std::uint64_t enomem = 0;
  for (const int s : status)
    if (s == -kern::kENOMEM) ++enomem;
  EXPECT_GT(enomem, 0u);
  EXPECT_GT(k.stats().migrations_failed, 0u);
  EXPECT_EQ(k.stats().tier_demotions, 0u);
  // The failed pages stay where they were — nothing is torn down.
  EXPECT_EQ(k.pages_on_node(pid, buf, 64 * mem::kPageSize, 1), enomem);
  EXPECT_EQ(k.pages_on_node(pid, filler, 240 * mem::kPageSize, 0), 240u);
  k.validate(pid);
}

// --- tier-preference policy --------------------------------------------------

TEST(TierPolicy, PreferredManyFillsFastThenSpillsDownTier) {
  Kernel k(tiered_config());
  const kern::Pid pid = k.create_process();
  ThreadCtx t = ctx_on(pid, 0);

  const vm::MemPolicy pol = lib::tier_preferred(k.topo());
  EXPECT_EQ(pol.mode, vm::PolicyMode::kPreferredMany);

  // Twice the fast tier's capacity: allocation must never hard-fail — the
  // fast node fills to its admission watermark and the rest spills to DRAM.
  const std::uint64_t pages = 2 * kFastFrames;
  const std::uint64_t len = pages * mem::kPageSize;
  const vm::Vaddr a = k.sys_mmap(t, len, vm::Prot::kReadWrite, pol);
  k.access(t, a, len, vm::Prot::kWrite, 0.0);

  const std::uint64_t on_fast = k.pages_on_node(pid, a, len, 0);
  const std::uint64_t on_dram = k.pages_on_node(pid, a, len, 1);
  EXPECT_EQ(on_fast + on_dram, pages);
  EXPECT_GT(on_fast, 0u);
  EXPECT_LE(on_fast, kFastFrames);
  EXPECT_GT(on_dram, 0u);
  k.validate(pid);
}

// --- occupancy audit ---------------------------------------------------------

TEST(TierAudit, ValidateAuditsTierOccupancyThroughChurn) {
  DemotionRig rig(demotion_config());
  EXPECT_GE(rig.k.fast_occupancy_pct(), 0);
  EXPECT_LE(rig.k.fast_occupancy_pct(), 100);
  for (int i = 0; i < 4; ++i) {
    rig.window();
    rig.k.validate(rig.pid);  // PhysMem::audit() after every demotion pass
  }
  // Promote some pages back up, then unmap everything: the incremental
  // tier_used accounting must agree with the pools at every step.
  ThreadCtx hot = ctx_on(rig.pid, 0, 1);
  hot.clock = rig.t.clock;
  for (int i = 0; i < 3; ++i) {
    hot.clock += sim::microseconds(100);
    rig.k.access(hot, rig.filler, 240 * mem::kPageSize, vm::Prot::kRead, 0.0);
  }
  rig.k.validate(rig.pid);
  rig.k.sys_munmap(rig.t, rig.filler, 240 * mem::kPageSize);
  rig.k.validate(rig.pid);
  EXPECT_LT(rig.k.fast_occupancy_pct(), 50);
}

}  // namespace
}  // namespace numasim

// Reproduction assertions: the paper's headline quantitative claims, checked
// on every test run so a regression in any modelled mechanism fails CI.
// Each test is a compact version of the corresponding bench/ harness.
#include <gtest/gtest.h>

#include <vector>

#include "apps/lu.hpp"
#include "apps/matmul_batch.hpp"
#include "lib/user_next_touch.hpp"
#include "rt/team.hpp"

namespace numasim {
namespace {

struct Probe {
  topo::Topology topo = topo::Topology::quad_opteron();
  kern::Kernel k;
  kern::Pid pid = k.create_process();
  kern::ThreadCtx owner;    // node 0
  kern::ThreadCtx toucher;  // node 1
  vm::Vaddr buf = 0;
  std::uint64_t len = 0;

  explicit Probe(std::uint64_t npages,
                 kern::MovePagesImpl impl = kern::MovePagesImpl::kLinear)
      : k(kern::KernelConfig{.topology = topo,
                             .backing = mem::Backing::kPhantom,
                             .move_pages_impl = impl}),
        len(npages * mem::kPageSize) {
    owner.pid = pid;
    owner.core = 0;
    toucher.pid = pid;
    toucher.core = 4;
    buf = k.sys_mmap(owner, len, vm::Prot::kReadWrite, {}, "buf");
    k.access(owner, buf, len, vm::Prot::kWrite, 3500.0);
    toucher.clock = owner.clock;
  }

  /// `impl` is the implementation the probe's kernel was built with.
  double move_pages_mbps(kern::MovePagesImpl impl) {
    EXPECT_EQ(k.config().move_pages_impl, impl);
    std::vector<vm::Vaddr> pages;
    for (std::uint64_t i = 0; i < len; i += mem::kPageSize) pages.push_back(buf + i);
    std::vector<topo::NodeId> nodes(pages.size(), 1);
    std::vector<int> status(pages.size(), 0);
    const sim::Time t0 = owner.clock;
    k.sys_move_pages(owner, pages, nodes, status);
    return sim::mb_per_second(len, owner.clock - t0);
  }

  double kernel_nt_mbps() {
    k.sys_madvise(toucher, buf, len, kern::Advice::kMigrateOnNextTouch);
    const sim::Time t0 = toucher.clock - /*madvise already counted*/ 0;
    for (std::uint64_t i = 0; i < len; i += mem::kPageSize)
      k.access(toucher, buf + i, 8, vm::Prot::kReadWrite, 0.0);
    (void)t0;
    return sim::mb_per_second(len, toucher.clock - owner.clock);
  }
};

// --- Fig. 4 ------------------------------------------------------------------

TEST(ReproFig4, PatchedMovePagesPlateausNear600MBs) {
  EXPECT_NEAR(Probe(4096).move_pages_mbps(kern::MovePagesImpl::kLinear), 600, 60);
  EXPECT_NEAR(Probe(16384).move_pages_mbps(kern::MovePagesImpl::kLinear), 600, 60);
}

TEST(ReproFig4, MovePagesBaseOverheadNear160us) {
  Probe p(1);
  const sim::Time t0 = p.owner.clock;
  p.move_pages_mbps(kern::MovePagesImpl::kLinear);
  const double us = sim::to_microseconds(p.owner.clock - t0);
  EXPECT_GT(us, 140);
  EXPECT_LT(us, 200);
}

TEST(ReproFig4, UnpatchedCollapsesQuadratically) {
  constexpr kern::MovePagesImpl kQuad = kern::MovePagesImpl::kQuadratic;
  const double small = Probe(128, kQuad).move_pages_mbps(kQuad);
  const double large = Probe(8192, kQuad).move_pages_mbps(kQuad);
  EXPECT_GT(small, 350);  // fine at small sizes
  EXPECT_LT(large, 100);  // collapsed
}

TEST(ReproFig4, MigratePagesFasterPlateauHigherBase) {
  Probe p(8192);
  const sim::Time t0 = p.owner.clock;
  p.k.sys_migrate_pages(p.owner, p.pid, topo::node_mask_of(0), topo::node_mask_of(1));
  const double mbps = sim::mb_per_second(p.len, p.owner.clock - t0);
  EXPECT_NEAR(mbps, 780, 60);

  Probe q(1);
  const sim::Time t1 = q.owner.clock;
  q.k.sys_migrate_pages(q.owner, q.pid, topo::node_mask_of(0), topo::node_mask_of(1));
  EXPECT_GT(sim::to_microseconds(q.owner.clock - t1), 350);  // ~400 us base
}

// --- Fig. 5 ------------------------------------------------------------------

TEST(ReproFig5, KernelNextTouchNear800EvenSmall) {
  EXPECT_GT(Probe(64).kernel_nt_mbps(), 700);
  EXPECT_NEAR(Probe(2048).kernel_nt_mbps(), 800, 60);
}

TEST(ReproFig5, KernelNextTouchBeatsUserNextTouch) {
  for (std::uint64_t npages : {16u, 256u, 2048u}) {
    Probe user(npages);
    lib::UserNextTouch unt(user.k, user.pid);
    const sim::Time t0 = user.toucher.clock;
    unt.mark(user.toucher, user.buf, user.len);
    for (std::uint64_t i = 0; i < user.len; i += mem::kPageSize)
      user.k.access(user.toucher, user.buf + i, 8, vm::Prot::kReadWrite, 0.0);
    const double user_mbps = sim::mb_per_second(user.len, user.toucher.clock - t0);

    const double kernel_mbps = Probe(npages).kernel_nt_mbps();
    EXPECT_GT(kernel_mbps, user_mbps) << npages << " pages";
  }
}

// --- Fig. 6 ------------------------------------------------------------------

TEST(ReproFig6, CostShares) {
  // Kernel NT at 4096 pages: copy ~80 %, control ~20 % (paper Sec. 4.3).
  Probe p(4096);
  p.toucher.stats.reset();
  p.kernel_nt_mbps();
  const auto& s = p.toucher.stats;
  EXPECT_NEAR(s.fraction(sim::CostKind::kNextTouchCopy), 0.80, 0.06);
  const double control = s.fraction(sim::CostKind::kNextTouchControl) +
                         s.fraction(sim::CostKind::kPageFault);
  EXPECT_NEAR(control, 0.20, 0.06);

  // User NT: move_pages control ~38 % of the total cost.
  Probe u(4096);
  lib::UserNextTouch unt(u.k, u.pid);
  u.toucher.stats.reset();
  unt.mark(u.toucher, u.buf, u.len);
  for (std::uint64_t i = 0; i < u.len; i += mem::kPageSize)
    u.k.access(u.toucher, u.buf + i, 8, vm::Prot::kReadWrite, 0.0);
  const double mv_control = u.toucher.stats.fraction(sim::CostKind::kMovePagesControl);
  EXPECT_NEAR(mv_control, 0.38, 0.06);
}

// --- Fig. 7 ------------------------------------------------------------------

sim::Time fig7_span(std::uint64_t npages, unsigned nthreads, bool lazy) {
  rt::Machine::Config mc;
  mc.backing = mem::Backing::kPhantom;
  rt::Machine m(mc);
  sim::Time span = 0;
  m.run_main(0, [&](rt::Thread& th) -> sim::Task<void> {
    const std::uint64_t len = npages * mem::kPageSize;
    const vm::Vaddr buf = co_await th.mmap(len, vm::Prot::kReadWrite,
                                           vm::MemPolicy::bind(topo::node_mask_of(0)));
    co_await th.touch(buf, len);
    rt::Team team = rt::Team::node_cores(m, 1, nthreads);
    const std::uint64_t per = len / nthreads;
    rt::Team::WorkerFn worker = [&, lazy, per, buf](unsigned tid,
                                                    rt::Thread& w) -> sim::Task<void> {
      const vm::Vaddr lo = buf + tid * per;
      if (lazy) {
        co_await w.madvise(lo, per, kern::Advice::kMigrateOnNextTouch);
        co_await w.touch_pages_sparse(lo, per);
      } else {
        co_await w.move_range(lo, per, 1);
      }
    };
    co_await team.parallel(th, std::move(worker));
    span = team.last_span();
  });
  return span;
}

TEST(ReproFig7, FourThreadGainsMatchPaper) {
  const std::uint64_t npages = 8192;
  const double sync1 = sim::mb_per_second(npages * mem::kPageSize, fig7_span(npages, 1, false));
  const double sync4 = sim::mb_per_second(npages * mem::kPageSize, fig7_span(npages, 4, false));
  const double lazy4 = sim::mb_per_second(npages * mem::kPageSize, fig7_span(npages, 4, true));

  const double sync_gain = sync4 / sync1 - 1.0;
  EXPECT_GT(sync_gain, 0.40);  // paper: +50-60 %
  EXPECT_LT(sync_gain, 0.90);
  EXPECT_GT(lazy4, sync4);          // lazy scales better
  EXPECT_NEAR(lazy4, 1300, 150);    // paper: up to 1.3 GB/s
}

TEST(ReproFig7, NoSyncGainBelowOneMegabyte) {
  const std::uint64_t npages = 64;
  const sim::Time t1 = fig7_span(npages, 1, false);
  const sim::Time t4 = fig7_span(npages, 4, false);
  // Within 20 % of each other: parallelism buys nothing this small.
  EXPECT_LT(static_cast<double>(t1) / static_cast<double>(t4), 1.2);
}

// --- Table 1 / Fig. 8 ---------------------------------------------------------

sim::Time lu_time(std::uint64_t n, std::uint64_t bs, bool nt) {
  rt::Machine::Config mc;
  mc.backing = mem::Backing::kPhantom;
  rt::Machine m(mc);
  rt::Team team = rt::Team::all_cores(m);
  apps::LuConfig cfg;
  cfg.n = n;
  cfg.bs = bs;
  cfg.next_touch = nt;
  apps::LuFactorization lu(m, team, cfg);
  m.run_main(0, [&](rt::Thread& th) -> sim::Task<void> { co_await lu.run(th); });
  return lu.result().factor_time;
}

TEST(ReproTable1, NextTouchLosesBelow512Blocks) {
  EXPECT_GT(lu_time(2048, 64, true), lu_time(2048, 64, false));
  EXPECT_GT(lu_time(2048, 128, true), lu_time(2048, 128, false));
}

TEST(ReproTable1, NextTouchWinsAt512Blocks) {
  const sim::Time stat = lu_time(4096, 512, false);
  const sim::Time nt = lu_time(4096, 512, true);
  EXPECT_LT(nt, stat);
  EXPECT_GT(static_cast<double>(stat) / static_cast<double>(nt), 1.2);
}

sim::Time fig8_time(std::uint64_t n, apps::MatmulBatchConfig::Mode mode) {
  rt::Machine::Config mc;
  mc.backing = mem::Backing::kPhantom;
  rt::Machine m(mc);
  rt::Team team = rt::Team::all_cores(m);
  apps::MatmulBatchConfig cfg;
  cfg.n = n;
  cfg.mode = mode;
  apps::MatmulBatch app(m, team, cfg);
  m.run_main(0, [&](rt::Thread& th) -> sim::Task<void> { co_await app.run(th); });
  return app.result().compute_time;
}

TEST(ReproFig8, CrossoverAt512) {
  using Mode = apps::MatmulBatchConfig::Mode;
  // Below the cache threshold: static wins, user NT is the worst.
  EXPECT_LT(fig8_time(128, Mode::kStatic), fig8_time(128, Mode::kKernelNextTouch));
  EXPECT_LT(fig8_time(128, Mode::kKernelNextTouch), fig8_time(128, Mode::kUserNextTouch));
  // At and above 512: both NT variants clearly beat static; kernel NT leads.
  const sim::Time stat = fig8_time(512, Mode::kStatic);
  const sim::Time knt = fig8_time(512, Mode::kKernelNextTouch);
  const sim::Time unt = fig8_time(512, Mode::kUserNextTouch);
  EXPECT_LT(knt, stat);
  EXPECT_LT(unt, stat);
  EXPECT_LE(knt, unt);
}

}  // namespace
}  // namespace numasim

// Tests for the sparse solver workload: numeric correctness under
// migration + replication, policy timing shapes, partition wrap-around.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/spmv.hpp"

namespace numasim::apps {
namespace {

SpmvResult run_spmv(SpmvConfig cfg, mem::Backing backing,
                    std::vector<double>* ref = nullptr,
                    std::vector<double>* got = nullptr) {
  rt::Machine::Config mc;
  mc.backing = backing;
  mc.replication = cfg.policy == SpmvConfig::Policy::kNextTouchReplX;
  rt::Machine m(mc);
  rt::Team team = rt::Team::all_cores(m);
  Spmv app(m, team, cfg);
  m.run_main(0, [&](rt::Thread& th) -> sim::Task<void> { co_await app.run(th); });
  if (ref != nullptr) *ref = app.reference_y();
  if (got != nullptr) *got = app.simulated_y();
  return app.result();
}

TEST(Spmv, NumericallyCorrectUnderStatic) {
  SpmvConfig cfg;
  cfg.n = 512;
  cfg.nnz_per_row = 8;
  cfg.iterations = 1;
  cfg.numeric = true;
  std::vector<double> ref, got;
  run_spmv(cfg, mem::Backing::kMaterialized, &ref, &got);
  ASSERT_EQ(ref.size(), 512u);
  for (std::size_t i = 0; i < ref.size(); ++i)
    ASSERT_NEAR(got[i], ref[i], 1e-12) << i;
}

TEST(Spmv, NumericallyCorrectUnderNextTouchAndReplication) {
  SpmvConfig cfg;
  cfg.n = 512;
  cfg.nnz_per_row = 8;
  cfg.iterations = 3;
  cfg.repartition_every = 1;
  cfg.policy = SpmvConfig::Policy::kNextTouchReplX;
  cfg.numeric = true;
  std::vector<double> ref, got;
  const SpmvResult r = run_spmv(cfg, mem::Backing::kMaterialized, &ref, &got);
  EXPECT_GT(r.pages_migrated, 0u);
  EXPECT_GT(r.replicas_created, 0u);
  for (std::size_t i = 0; i < ref.size(); ++i)
    ASSERT_NEAR(got[i], ref[i], 1e-12) << i;
}

TEST(Spmv, ReplicatingSharedVectorHelps) {
  SpmvConfig cfg;
  cfg.n = 1u << 15;
  cfg.nnz_per_row = 16;
  cfg.iterations = 6;
  cfg.repartition_every = 2;

  cfg.policy = SpmvConfig::Policy::kNextTouch;
  const sim::Time nt = run_spmv(cfg, mem::Backing::kPhantom).solve_time;
  cfg.policy = SpmvConfig::Policy::kNextTouchReplX;
  const sim::Time repl = run_spmv(cfg, mem::Backing::kPhantom).solve_time;
  EXPECT_LT(repl, nt);
}

TEST(Spmv, NextTouchBeatsStaticWhenPartitionDrifts) {
  SpmvConfig cfg;
  cfg.n = 1u << 15;
  cfg.nnz_per_row = 16;
  cfg.iterations = 8;
  cfg.repartition_every = 2;

  cfg.policy = SpmvConfig::Policy::kStatic;
  const sim::Time stat = run_spmv(cfg, mem::Backing::kPhantom).solve_time;
  cfg.policy = SpmvConfig::Policy::kNextTouch;
  const SpmvResult nt = run_spmv(cfg, mem::Backing::kPhantom);
  EXPECT_GT(nt.pages_migrated, 0u);
  EXPECT_LT(nt.solve_time, stat);
}

TEST(Spmv, RejectsBadConfigs) {
  rt::Machine m;
  rt::Team team = rt::Team::all_cores(m);
  SpmvConfig cfg;
  cfg.n = 0;
  EXPECT_THROW(Spmv(m, team, cfg), std::invalid_argument);
  rt::Machine::Config mc;
  mc.backing = mem::Backing::kPhantom;
  rt::Machine phantom(mc);
  rt::Team pteam = rt::Team::all_cores(phantom);
  SpmvConfig nc;
  nc.numeric = true;
  EXPECT_THROW(Spmv(phantom, pteam, nc), std::invalid_argument);
}

TEST(Spmv, DeterministicAcrossRuns) {
  SpmvConfig cfg;
  cfg.n = 1u << 13;
  cfg.iterations = 4;
  cfg.policy = SpmvConfig::Policy::kNextTouch;
  const sim::Time a = run_spmv(cfg, mem::Backing::kPhantom).solve_time;
  const sim::Time b = run_spmv(cfg, mem::Backing::kPhantom).solve_time;
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace numasim::apps

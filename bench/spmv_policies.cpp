// Beyond-the-paper workload: iterative sparse solver with a drifting row
// partition. Compares static placement, next-touch redistribution, and
// next-touch + replication of the shared gather vector (the combination of
// the paper's contribution and its future work).
#include "apps/spmv.hpp"
#include "common.hpp"

using namespace numasim;

namespace {

apps::SpmvResult run(apps::SpmvConfig cfg) {
  rt::Machine::Config mc;
  mc.backing = mem::Backing::kPhantom;
  mc.replication = cfg.policy == apps::SpmvConfig::Policy::kNextTouchReplX;
  rt::Machine m(mc);
  bench::observe(m);
  rt::Team team = rt::Team::all_cores(m);
  apps::Spmv app(m, team, cfg);
  m.run_main(0, [&](rt::Thread& th) -> sim::Task<void> { co_await app.run(th); });
  return app.result();
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = numasim::bench::parse_options(argc, argv);
  numasim::bench::Observability obsv(opts);
  using Policy = apps::SpmvConfig::Policy;

  numasim::bench::print_header(
      opts,
      "SpMV solver, 16 threads, partition drifts every 2 iterations "
      "(simulated ms)",
      {"rows", "static_ms", "next_touch_ms", "nt+replicate_ms", "migrated",
       "replicas"});

  for (std::uint64_t n : {1u << 14, 1u << 16, 1u << 18}) {
    if (opts.quick && n > (1u << 16)) continue;
    apps::SpmvConfig cfg;
    cfg.n = n;
    cfg.nnz_per_row = 16;
    cfg.iterations = 8;
    cfg.repartition_every = 2;

    cfg.policy = Policy::kStatic;
    const auto stat = run(cfg);
    cfg.policy = Policy::kNextTouch;
    const auto nt = run(cfg);
    cfg.policy = Policy::kNextTouchReplX;
    const auto repl = run(cfg);

    numasim::bench::print_row(
        opts,
        {numasim::bench::fmt_u64(n),
         numasim::bench::fmt(sim::to_seconds(stat.solve_time) * 1e3, "%.1f"),
         numasim::bench::fmt(sim::to_seconds(nt.solve_time) * 1e3, "%.1f"),
         numasim::bench::fmt(sim::to_seconds(repl.solve_time) * 1e3, "%.1f"),
         numasim::bench::fmt_u64(repl.pages_migrated),
         numasim::bench::fmt_u64(repl.replicas_created)});
  }
  obsv.finish();
  return 0;
}

// Sparse iterative solver example: next-touch + replication working
// together. The row partition drifts (as a load balancer would shift it),
// next-touch keeps each thread's CSR rows local, and the read-shared gather
// vector is replicated so every node reads it at local speed. Numerics are
// verified against a host reference while pages migrate underneath.
//
//   $ ./sparse_solver [rows]   (default 32768)
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "apps/spmv.hpp"

using namespace numasim;

namespace {

apps::SpmvResult run(std::uint64_t n, apps::SpmvConfig::Policy policy,
                     bool numeric) {
  rt::Machine::Config mc;
  mc.backing = numeric ? mem::Backing::kMaterialized : mem::Backing::kPhantom;
  mc.replication = policy == apps::SpmvConfig::Policy::kNextTouchReplX;
  rt::Machine m(mc);
  rt::Team team = rt::Team::all_cores(m);
  apps::SpmvConfig cfg;
  cfg.n = n;
  cfg.nnz_per_row = 16;
  cfg.iterations = 8;
  cfg.repartition_every = 2;
  cfg.policy = policy;
  cfg.numeric = numeric;
  apps::Spmv app(m, team, cfg);
  m.run_main(0, [&](rt::Thread& th) -> sim::Task<void> { co_await app.run(th); });

  if (numeric) {
    double max_err = 0;
    for (std::size_t i = 0; i < app.reference_y().size(); ++i)
      max_err = std::max(max_err,
                         std::abs(app.simulated_y()[i] - app.reference_y()[i]));
    std::printf("  verified SpMV against host reference: max error %.2e\n", max_err);
  }
  return app.result();
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 32768;
  const bool numeric = n <= 4096;
  std::printf("sparse solver: %llu rows x 16 nnz, 16 threads, partition drifts "
              "every 2 of 8 iterations\n\n",
              static_cast<unsigned long long>(n));

  using Policy = apps::SpmvConfig::Policy;
  std::printf("[static interleaved]\n");
  const auto stat = run(n, Policy::kStatic, numeric);
  std::printf("  solve time: %s\n\n", sim::format_time(stat.solve_time).c_str());

  std::printf("[next-touch on CSR rows]\n");
  const auto nt = run(n, Policy::kNextTouch, numeric);
  std::printf("  solve time: %s  (migrated %llu pages)\n\n",
              sim::format_time(nt.solve_time).c_str(),
              static_cast<unsigned long long>(nt.pages_migrated));

  std::printf("[next-touch + replicated gather vector]\n");
  const auto repl = run(n, Policy::kNextTouchReplX, numeric);
  std::printf("  solve time: %s  (migrated %llu pages, %llu replicas)\n\n",
              sim::format_time(repl.solve_time).c_str(),
              static_cast<unsigned long long>(repl.pages_migrated),
              static_cast<unsigned long long>(repl.replicas_created));

  std::printf("next-touch vs static:      %+.1f%%\n",
              100.0 * (static_cast<double>(stat.solve_time) /
                           static_cast<double>(nt.solve_time) -
                       1.0));
  std::printf("nt+replication vs static:  %+.1f%%\n",
              100.0 * (static_cast<double>(stat.solve_time) /
                           static_cast<double>(repl.solve_time) -
                       1.0));
  return 0;
}

// Ablation: larger NUMA machines (paper Sec. 6: "We are now running similar
// experiments on larger NUMA machines where data locality is more critical,
// making the Next-touch policy even more interesting").
//
// The LU workload at a fixed size on rings of 2..16 nodes: with more nodes,
// interleaved static placement means a larger remote share and longer
// routes, so next-touch's improvement should grow with the machine.
#include <string>

#include "apps/lu.hpp"
#include "common.hpp"

using namespace numasim;

namespace {

sim::Time run_lu(const topo::Topology& topo, std::uint64_t n, std::uint64_t bs,
                 bool nt) {
  rt::Machine m(bench::phantom_kernel_config(topo));
  bench::observe(m);
  rt::Team team = rt::Team::all_cores(m);
  apps::LuConfig cfg;
  cfg.n = n;
  cfg.bs = bs;
  cfg.next_touch = nt;
  apps::LuFactorization lu(m, team, cfg);
  m.run_main(0, [&](rt::Thread& th) -> sim::Task<void> { co_await lu.run(th); });
  return lu.result().factor_time;
}

}  // namespace

int main(int argc, char** argv) {
  // --tier-spec would replace every ring of the sweep with one machine.
  const auto opts =
      numasim::bench::parse_options(argc, argv, {.tier_spec = false});
  numasim::bench::Observability obsv(opts);
  const std::uint64_t n = opts.quick ? 2048 : 4096;
  const std::uint64_t bs = 512;

  numasim::bench::print_header(
      opts, "Ablation — LU " + std::to_string(n) + "/512 on growing ring machines",
      {"nodes", "cores", "static_s", "next_touch_s", "improvement_%"});

  for (unsigned nodes : {2u, 4u, 8u, 16u}) {
    // Keep 16 cores total so compute capacity is constant; only the memory
    // system grows more distributed.
    const unsigned cores = 16 / nodes;
    const topo::Topology topo = topo::Topology::from_spec(
        "nodes=" + std::to_string(nodes) + " cores=" + std::to_string(cores) +
        " shape=ring link_bw=2200 hop_ns=15");
    const sim::Time stat = run_lu(topo, n, bs, false);
    const sim::Time nt = run_lu(topo, n, bs, true);
    numasim::bench::print_row(
        opts,
        {numasim::bench::fmt_u64(nodes), numasim::bench::fmt_u64(cores),
         numasim::bench::fmt(sim::to_seconds(stat), "%.2f"),
         numasim::bench::fmt(sim::to_seconds(nt), "%.2f"),
         numasim::bench::fmt(
             100.0 * (static_cast<double>(stat) / static_cast<double>(nt) - 1.0),
             "%+.1f")});
  }
  obsv.finish();
  return 0;
}

// Ablation: coarse (paper-faithful mmap_sem) versus range-locked migration
// engine, head to head on the Fig. 7 workload — N threads on node 1 each
// calling move_pages on a disjoint chunk of a node-0 buffer.
//
// Coarse serializes every chunk behind one per-process lock, so aggregate
// throughput plateaus near the single-lock service rate regardless of
// thread count. The range engine takes the whole-space lock shared and
// serializes only overlapping page runs per VMA, so disjoint chunks migrate
// in parallel until the copy hardware (HT links) saturates. The lock-wait
// columns show where the coarse plateau comes from.
#include <vector>

#include "common.hpp"
#include "rt/team.hpp"

using namespace numasim;

namespace {

struct RunResult {
  sim::Time span = 0;
  sim::Time lock_wait = 0;
};

RunResult run_one(kern::LockModel model, std::uint64_t npages, unsigned nthreads) {
  kern::KernelConfig cfg =
      bench::phantom_kernel_config(topo::Topology::quad_opteron());
  cfg.lock_model = model;
  rt::Machine m(cfg);
  bench::observe(m);
  RunResult res;
  m.run_main(0, [&](rt::Thread& th) -> sim::Task<void> {
    const std::uint64_t len = npages * mem::kPageSize;
    const vm::Vaddr buf = co_await th.mmap(
        len, vm::Prot::kReadWrite, vm::MemPolicy::bind(topo::node_mask_of(0)));
    co_await th.touch(buf, len);

    rt::Team team = rt::Team::node_cores(m, 1, nthreads);
    const std::uint64_t chunk_pages = npages / nthreads;
    rt::Team::WorkerFn worker = [&, chunk_pages,
                                 buf](unsigned tid, rt::Thread& w) -> sim::Task<void> {
      const vm::Vaddr lo = buf + tid * chunk_pages * mem::kPageSize;
      co_await w.move_range(lo, chunk_pages * mem::kPageSize, 1);
    };
    co_await team.parallel(th, std::move(worker));
    res.span = team.last_span();
    res.lock_wait = team.last_stats().get(sim::CostKind::kLockWait);
  });
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  // The sweep sets the lock model itself.
  const auto opts =
      numasim::bench::parse_options(argc, argv, {.lock_model = false});
  numasim::bench::Observability obsv(opts);

  std::vector<std::string> cols{"pages"};
  for (unsigned n : {1u, 2u, 4u}) cols.push_back("coarse_" + std::to_string(n) + "t");
  for (unsigned n : {1u, 2u, 4u}) cols.push_back("range_" + std::to_string(n) + "t");
  cols.insert(cols.end(),
              {"range_speedup_4t", "coarse_lockw_4t_us", "range_lockw_4t_us"});
  numasim::bench::print_header(
      opts, "Ablation — coarse vs range-locked migration engine (MB/s)", cols);

  for (std::uint64_t pages = 64; pages <= (opts.quick ? 2048u : 32768u); pages *= 2) {
    std::vector<std::string> row{numasim::bench::fmt_u64(pages)};
    double coarse4 = 0, range4 = 0;
    sim::Time coarse_lockw = 0, range_lockw = 0;
    for (unsigned nt : {1u, 2u, 4u}) {
      const RunResult r = run_one(kern::LockModel::kCoarse, pages, nt);
      const double mbps = sim::mb_per_second(pages * mem::kPageSize, r.span);
      if (nt == 4) {
        coarse4 = mbps;
        coarse_lockw = r.lock_wait;
      }
      row.push_back(numasim::bench::fmt(mbps));
    }
    for (unsigned nt : {1u, 2u, 4u}) {
      const RunResult r = run_one(kern::LockModel::kRange, pages, nt);
      const double mbps = sim::mb_per_second(pages * mem::kPageSize, r.span);
      if (nt == 4) {
        range4 = mbps;
        range_lockw = r.lock_wait;
      }
      row.push_back(numasim::bench::fmt(mbps));
    }
    row.push_back(numasim::bench::fmt(range4 / coarse4, "%.2fx"));
    row.push_back(numasim::bench::fmt(static_cast<double>(coarse_lockw) / 1000.0));
    row.push_back(numasim::bench::fmt(static_cast<double>(range_lockw) / 1000.0));
    numasim::bench::print_row(opts, row);
  }
  obsv.finish();
  return 0;
}

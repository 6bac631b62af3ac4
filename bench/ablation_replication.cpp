// Ablation: read-only replication (the paper's future work) versus
// next-touch and static placement on a read-mostly shared table.
//
// All 16 threads repeatedly read the same lookup table that lives on node 0.
//   static      — 12 of 16 threads read remotely forever;
//   next-touch  — the table migrates to the FIRST toucher's node only (a
//                 shared structure cannot follow everyone);
//   replicate   — every node gets a local copy after its first pass.
#include "common.hpp"

using namespace numasim;

namespace {

enum class Mode { kStatic, kNextTouch, kReplicate };

sim::Time run(Mode mode, std::uint64_t npages, unsigned passes) {
  rt::Machine::Config mc = bench::phantom_config();
  mc.replication = true;
  rt::Machine m(mc);
  bench::observe(m);
  sim::Time span = 0;

  m.run_main(0, [&](rt::Thread& th) -> sim::Task<void> {
    const std::uint64_t len = npages * mem::kPageSize;
    const vm::Vaddr table = co_await th.mmap(
        len, vm::Prot::kReadWrite, vm::MemPolicy::bind(topo::node_mask_of(0)));
    co_await th.touch(table, len);
    if (mode == Mode::kNextTouch)
      co_await th.madvise(table, len, kern::Advice::kMigrateOnNextTouch);
    else if (mode == Mode::kReplicate)
      co_await th.madvise(table, len, kern::Advice::kReplicate);

    rt::Team team = rt::Team::all_cores(m);
    rt::Team::WorkerFn worker = [&, table, len, passes](unsigned,
                                                        rt::Thread& w) -> sim::Task<void> {
      for (unsigned p = 0; p < passes; ++p)
        co_await w.touch(table, len, vm::Prot::kRead);
    };
    co_await team.parallel(th, std::move(worker));
    span = team.last_span();
  });
  return span;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = numasim::bench::parse_options(argc, argv);
  numasim::bench::Observability obsv(opts);
  const std::uint64_t npages = opts.quick ? 256 : 1024;  // 4 MiB table
  numasim::bench::print_header(
      opts, "Ablation — shared read-mostly table, 16 threads (simulated ms)",
      {"passes", "static_ms", "next_touch_ms", "replicate_ms"});

  for (unsigned passes : {1u, 2u, 4u, 8u, 16u}) {
    numasim::bench::print_row(
        opts,
        {numasim::bench::fmt_u64(passes),
         numasim::bench::fmt(sim::to_seconds(run(Mode::kStatic, npages, passes)) * 1e3, "%.2f"),
         numasim::bench::fmt(sim::to_seconds(run(Mode::kNextTouch, npages, passes)) * 1e3, "%.2f"),
         numasim::bench::fmt(sim::to_seconds(run(Mode::kReplicate, npages, passes)) * 1e3, "%.2f")});
  }
  obsv.finish();
  return 0;
}

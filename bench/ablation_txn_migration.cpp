// Ablation: stop-and-copy vs transactional shadow-copy migration under a
// write-hot phase-shifting workload.
//
// Four workers bound to node 1 take over a buffer first-touched on node 0:
// each writes its chunk remotely (the old phase's data is still hot), then
// migrates it with move_pages, then keeps writing it locally. Under
// stop-and-copy, concurrent migrations serialize on the long per-page
// critical section (move_pages_serial_per_page); the transactional engine
// copies outside the lock and serializes only the commit flips, so the
// workers' aggregate stall (lock-wait) and the end-to-end runtime both
// drop. The sweep pre-fills node 1 to rising occupancy: past the low
// watermark the transactional engine stops admitting shadow copies and
// degrades per page to stop-and-copy (the `degraded` column), and at 100 %
// both engines fail pages with per-page ENOMEM (`failed`) — never a batch
// failure.
#include <vector>

#include "common.hpp"

using namespace numasim;

namespace {

struct Result {
  sim::Time span = 0;   ///< fork-to-join wall span of the takeover
  sim::Time stall = 0;  ///< aggregate worker lock-wait
  std::uint64_t moved = 0;
  std::uint64_t commits = 0;
  std::uint64_t dirty_retries = 0;
  std::uint64_t degraded = 0;
  std::uint64_t failed = 0;
};

Result run(kern::MigrationMode mode, unsigned occ_pct, bool quick) {
  kern::KernelConfig cfg = bench::phantom_config();
  cfg.migration_mode = mode;
  const std::uint64_t max_frames = quick ? 4096 : 16384;
  cfg.max_frames_per_node = max_frames;
  rt::Machine m(cfg);
  bench::observe(m);
  // Pressure ladder: shadow-copy admission yields once node 1 falls below
  // 4 % free; min stays 0 so stop-and-copy keeps allocating to the last
  // frame. Stop-and-copy mode is unaffected (it never doubles a page).
  m.kernel().phys().set_node_watermarks(1, 0, max_frames * 4 / 100);

  constexpr unsigned kThreads = 4;
  const std::uint64_t npages = max_frames / 2;

  Result res;
  m.run_main(0, [&](rt::Thread& th) -> sim::Task<void> {
    if (occ_pct > 0) {
      const std::uint64_t flen = (max_frames * occ_pct / 100) * mem::kPageSize;
      const vm::Vaddr filler = co_await th.mmap(
          flen, vm::Prot::kReadWrite, vm::MemPolicy::bind(topo::node_mask_of(1)));
      co_await th.touch(filler, flen);
    }
    const std::uint64_t len = npages * mem::kPageSize;
    const vm::Vaddr buf = co_await th.mmap(
        len, vm::Prot::kReadWrite, vm::MemPolicy::bind(topo::node_mask_of(0)));
    co_await th.touch(buf, len);  // phase 1: the node-0 phase owned it

    rt::Team team = rt::Team::node_cores(m, 1, kThreads);
    const std::uint64_t chunk_pages = npages / kThreads;
    rt::Team::WorkerFn worker = [&, buf, chunk_pages](
                                    unsigned tid,
                                    rt::Thread& w) -> sim::Task<void> {
      const vm::Vaddr lo = buf + tid * chunk_pages * mem::kPageSize;
      const std::uint64_t bytes = chunk_pages * mem::kPageSize;
      // Phase shift: still writing the old placement remotely...
      co_await w.touch(lo, bytes, vm::Prot::kWrite);
      // ...pull the chunk over (this is where the engines differ)...
      co_await w.move_range(lo, bytes, 1);
      // ...and keep writing, now (mostly) locally.
      co_await w.touch(lo, bytes, vm::Prot::kWrite);
      co_await w.touch(lo, bytes, vm::Prot::kWrite);
    };
    co_await team.parallel(th, std::move(worker));
    res.span = team.last_span();
    res.stall = team.last_stats().get(sim::CostKind::kLockWait);
  });

  const kern::KernelStats& s = m.kernel().stats();
  res.moved = s.pages_migrated_move;
  res.commits = s.txn_commits;
  res.dirty_retries = s.txn_dirty_retries;
  res.degraded = s.txn_degraded;
  res.failed = s.migrations_failed;
  return res;
}

std::vector<std::string> row_of(unsigned occ, const char* mode,
                                const Result& r) {
  return {std::to_string(occ),
          mode,
          numasim::bench::fmt(static_cast<double>(r.span) / 1000.0),
          numasim::bench::fmt(static_cast<double>(r.stall) / 1000.0),
          numasim::bench::fmt_u64(r.moved),
          numasim::bench::fmt_u64(r.commits),
          numasim::bench::fmt_u64(r.dirty_retries),
          numasim::bench::fmt_u64(r.degraded),
          numasim::bench::fmt_u64(r.failed)};
}

}  // namespace

int main(int argc, char** argv) {
  // The sweep sets the migration engine itself.
  const auto opts =
      numasim::bench::parse_options(argc, argv, {.migration_mode = false});
  numasim::bench::Observability obsv(opts);

  numasim::bench::print_header(
      opts,
      "Ablation — stop-and-copy vs transactional migration, write-hot "
      "phase shift (node-1 occupancy sweep)",
      {"occupancy%", "mode", "runtime_us", "stall_us", "moved", "commits",
       "dirty_retries", "degraded", "failed"});

  for (const unsigned occ : {0u, 50u, 90u, 99u, 100u}) {
    const Result sc = run(kern::MigrationMode::kStopAndCopy, occ, opts.quick);
    const Result tx = run(kern::MigrationMode::kTransactional, occ, opts.quick);
    numasim::bench::print_row(opts, row_of(occ, "stop_and_copy", sc));
    numasim::bench::print_row(opts, row_of(occ, "transactional", tx));
  }
  obsv.finish();
  return 0;
}

// Ablation: heterogeneous memory tiers — promotion engine and demotion
// on/off under fast-tier pressure.
//
// A two-node machine with one HBM-like fast node (node 0, small) and one
// DRAM node (node 1, large). The fast node is pre-filled to rising
// occupancy; four workers on the fast node's cores then take over a buffer
// sitting on DRAM: each writes its chunk remotely, explicitly promotes the
// first half with move_pages, and keeps writing the whole chunk so AutoNUMA
// hint faults promote the second half through kmigrated (two-reference
// confirmed, using the configured migration engine). Past the high
// watermark every promotion needs room: with demotion on, cold filler pages
// walk down to DRAM (watermark passes at scan ticks, direct demotion under
// allocation pressure) and promotion keeps succeeding; with demotion off
// the fast node degrades promotions to per-page ENOMEM (`failed`). The
// stop-and-copy vs transactional contrast shows in the workers' aggregate
// stall: transactional promotion copies outside the serialized critical
// section, so at >=90 % fast-tier occupancy its stall stays well below
// stop-and-copy's.
#include <vector>

#include "common.hpp"

using namespace numasim;

namespace {

struct Result {
  sim::Time span = 0;   ///< fork-to-join wall span of the takeover
  sim::Time stall = 0;  ///< aggregate worker lock-wait
  std::uint64_t moved = 0;     ///< pages moved by the explicit move_pages
  std::uint64_t failed = 0;    ///< per-page migration failures (ENOMEM legs)
  std::uint64_t promoted = 0;  ///< kern.tier.promotions (numab up-tier)
  std::uint64_t demoted = 0;   ///< kern.tier.demotions
  std::int64_t fast_occ = 0;   ///< kern.tier.fast_occupancy at the end
};

Result run(kern::MigrationMode mode, bool demotion, unsigned occ_pct,
           bool quick) {
  // Fast node 0 holds 16 MB (quick) / 64 MB; DRAM node 1 is effectively
  // unbounded. Line shape keeps one hop between the tiers.
  const std::uint64_t fast_frames = quick ? 4096 : 16384;
  const std::string spec =
      "nodes=2 cores=4 shape=line tiers=fast:1,dram:1 fast_mb=" +
      std::to_string(fast_frames * mem::kPageSize >> 20);
  const topo::Topology topo = topo::Topology::from_spec(spec);
  kern::KernelConfig cfg = bench::phantom_kernel_config(topo);
  cfg.migration_mode = mode;
  cfg.tiers.enabled = true;
  cfg.tiers.demotion = demotion;
  // Fast scan clock so hint faults confirm within the takeover, and a window
  // wide enough to cover the filler + buffer.
  cfg.numa_balancing.enabled = true;
  cfg.numa_balancing.scan_period = sim::microseconds(20);
  cfg.numa_balancing.scan_size_pages = 2 * fast_frames;
  rt::Machine m(cfg);
  bench::observe(m);

  constexpr unsigned kThreads = 4;
  const std::uint64_t npages = fast_frames / 2;

  Result res;
  m.run_main(0, [&](rt::Thread& th) -> sim::Task<void> {
    if (occ_pct > 0) {
      // Fill the fast tier; these pages go cold once the takeover starts,
      // so they are the demotion victims.
      const std::uint64_t flen = (fast_frames * occ_pct / 100) * mem::kPageSize;
      const vm::Vaddr filler = co_await th.mmap(
          flen, vm::Prot::kReadWrite, vm::MemPolicy::bind(topo::node_mask_of(0)));
      co_await th.touch(filler, flen);
    }
    const std::uint64_t len = npages * mem::kPageSize;
    const vm::Vaddr buf = co_await th.mmap(
        len, vm::Prot::kReadWrite, vm::MemPolicy::bind(topo::node_mask_of(1)));
    co_await th.touch(buf, len);  // phase 1: resident on DRAM

    rt::Team team = rt::Team::node_cores(m, 0, kThreads);
    const std::uint64_t chunk_pages = npages / kThreads;
    rt::Team::WorkerFn worker = [&, buf, chunk_pages](
                                    unsigned tid,
                                    rt::Thread& w) -> sim::Task<void> {
      const vm::Vaddr lo = buf + tid * chunk_pages * mem::kPageSize;
      const std::uint64_t bytes = chunk_pages * mem::kPageSize;
      // Still writing the DRAM placement remotely...
      co_await w.touch(lo, bytes, vm::Prot::kWrite);
      // ...explicitly promote the first half (sync move_pages into the fast
      // node — the direct-demotion pressure path)...
      co_await w.move_range(lo, bytes / 2, 0);
      // ...and keep writing the whole chunk: hint faults promote the second
      // half through kmigrated with the configured engine.
      co_await w.touch(lo, bytes, vm::Prot::kWrite);
      co_await w.touch(lo, bytes, vm::Prot::kWrite);
      co_await w.touch(lo, bytes, vm::Prot::kWrite);
    };
    co_await team.parallel(th, std::move(worker));
    res.span = team.last_span();
    res.stall = team.last_stats().get(sim::CostKind::kLockWait);
  });

  const kern::KernelStats& s = m.kernel().stats();
  res.moved = s.pages_migrated_move;
  res.failed = s.migrations_failed;
  res.promoted = s.tier_promotions;
  res.demoted = s.tier_demotions;
  res.fast_occ = m.kernel().fast_occupancy_pct();
  return res;
}

std::vector<std::string> row_of(unsigned occ, const char* mode, bool demotion,
                                const Result& r) {
  return {std::to_string(occ),
          mode,
          demotion ? "on" : "off",
          numasim::bench::fmt(static_cast<double>(r.span) / 1000.0),
          numasim::bench::fmt(static_cast<double>(r.stall) / 1000.0),
          numasim::bench::fmt_u64(r.moved),
          numasim::bench::fmt_u64(r.failed),
          numasim::bench::fmt_u64(r.promoted),
          numasim::bench::fmt_u64(r.demoted),
          std::to_string(r.fast_occ)};
}

}  // namespace

int main(int argc, char** argv) {
  // The sweep sets the migration engine and the demotion switch itself.
  const auto opts = numasim::bench::parse_options(
      argc, argv, {.migration_mode = false, .demotion = false});
  numasim::bench::Observability obsv(opts);

  numasim::bench::print_header(
      opts,
      "Ablation — memory tiers: promotion engine x demotion under fast-node "
      "occupancy sweep",
      {"occupancy%", "mode", "demotion", "runtime_us", "stall_us", "moved",
       "failed", "promoted", "demoted", "fast_occ%"});

  for (const unsigned occ : {0u, 50u, 90u, 99u}) {
    const Result sc =
        run(kern::MigrationMode::kStopAndCopy, true, occ, opts.quick);
    const Result tx =
        run(kern::MigrationMode::kTransactional, true, occ, opts.quick);
    numasim::bench::print_row(opts, row_of(occ, "stop_and_copy", true, sc));
    numasim::bench::print_row(opts, row_of(occ, "transactional", true, tx));
  }
  // The ENOMEM contrast: at 99 % occupancy with demotion off, the fast tier
  // cannot make room and promotions degrade to per-page failures.
  for (const auto mode : {kern::MigrationMode::kStopAndCopy,
                          kern::MigrationMode::kTransactional}) {
    const Result r = run(mode, false, 99, opts.quick);
    numasim::bench::print_row(
        opts, row_of(99,
                     mode == kern::MigrationMode::kStopAndCopy
                         ? "stop_and_copy"
                         : "transactional",
                     false, r));
  }
  obsv.finish();
  return 0;
}

// Host-performance microbenchmarks of the simulator core itself: how fast the
// engine, page-table walks, fault paths, the AutoNUMA scanner, and the ranged
// migration engine run on the *host*. These bound how large a simulated
// experiment is practical (the Table 1 32k runs walk ~10^8 pages).
//
// Unlike the fig*/table*/ablation_* binaries this one measures wall-clock, so
// its numbers vary run to run; the `checksum` column is the part that must
// not: it folds the final simulated clock and kernel counters of each
// scenario, so two builds that disagree on any simulated event disagree on
// the checksum. CI appends the wall-clock rows to BENCH_simcore.json (see
// docs/performance.md) and fails on regressions.
//
// The scenario matrix is (scenario x nodes x pages x lock model); override
// the axes with --nodes=/--pages= (comma-separated lists). Only seed-era
// public APIs are used, so the same source builds against older checkouts
// for honest before/after measurement.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common.hpp"
#include "kern/kernel.hpp"
#include "rt/machine.hpp"
#include "rt/team.hpp"
#include "rt/thread.hpp"

using namespace numasim;

namespace {

/// FNV-1a fold for the determinism checksum column.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 1099511628211ull;
}

struct Scenario {
  const char* name;
  /// Runs the scenario; returns the determinism checksum.
  std::uint64_t (*run)(const topo::Topology&, kern::LockModel, std::uint64_t);
};

kern::KernelConfig config_for(const topo::Topology& topo, kern::LockModel lm) {
  kern::KernelConfig cfg = bench::phantom_kernel_config(topo);
  cfg.lock_model = lm;
  return cfg;
}

/// Pure engine throughput: one coroutine advancing simulated time, one event
/// per step (frame allocation + queue churn dominated).
std::uint64_t run_events(const topo::Topology&, kern::LockModel,
                         std::uint64_t pages) {
  const std::uint64_t steps = pages * 8;
  sim::Engine e;
  e.start([](sim::Engine& eng, std::uint64_t n) -> sim::Task<void> {
    for (std::uint64_t i = 0; i < n; ++i) co_await eng.advance(10);
  }(e, steps));
  e.run();
  return mix(e.events_processed(), e.now());
}

/// Fork-join churn: repeated parallel regions over all cores (coroutine
/// frame allocation + same-timestamp posting dominated).
std::uint64_t run_forkjoin(const topo::Topology& topo, kern::LockModel lm,
                           std::uint64_t pages) {
  const std::uint64_t regions = pages / 16 == 0 ? 1 : pages / 16;
  rt::Machine::Config mc = config_for(topo, lm);
  rt::Machine m(mc);
  bench::observe(m);
  m.run_main(0, [&](rt::Thread& th) -> sim::Task<void> {
    for (std::uint64_t i = 0; i < regions; ++i) {
      rt::Team team = rt::Team::all_cores(m);
      rt::Team::WorkerFn w = [](unsigned, rt::Thread& wt) -> sim::Task<void> {
        co_await wt.compute(1000);
      };
      co_await team.parallel(th, std::move(w));
    }
  });
  return mix(m.engine().events_processed(), m.engine().now());
}

/// First-touch fault storm: allocate and write-fault `pages` fresh pages.
std::uint64_t run_faults(const topo::Topology& topo, kern::LockModel lm,
                         std::uint64_t pages) {
  std::uint64_t h = 14695981039346656037ull;
  for (int rep = 0; rep < 4; ++rep) {
    kern::Kernel k(config_for(topo, lm));
    bench::observe(k);
    kern::ThreadCtx t;
    t.pid = k.create_process();
    const std::uint64_t len = pages * mem::kPageSize;
    const vm::Vaddr a = k.sys_mmap(t, len, vm::Prot::kReadWrite);
    k.access(t, a, len, vm::Prot::kWrite, 3500.0);
    h = mix(h, t.clock);
    h = mix(h, k.stats().minor_faults);
  }
  return h;
}

/// Page-table walk: populate `pages` pages once, then sweep the range with
/// the kernel's residency query (the hot inspection path every figure uses).
std::uint64_t run_pt_walk(const topo::Topology& topo, kern::LockModel lm,
                          std::uint64_t pages) {
  kern::Kernel k(config_for(topo, lm));
  bench::observe(k);
  kern::ThreadCtx t;
  t.pid = k.create_process();
  const std::uint64_t len = pages * mem::kPageSize;
  const vm::Vaddr a = k.sys_mmap(t, len, vm::Prot::kReadWrite);
  k.access(t, a, len, vm::Prot::kWrite, 3500.0);
  std::uint64_t h = mix(14695981039346656037ull, t.clock);
  std::uint64_t resident = 0;
  for (int rep = 0; rep < 128; ++rep)
    for (topo::NodeId n = 0; n < k.topo().num_nodes(); ++n)
      resident += k.pages_on_node(t.pid, a, len, n);
  return mix(h, resident);
}

/// AutoNUMA scan windows: enable balancing with an aggressive period and
/// re-touch the region so every pass is one scan window (tag + hint faults).
std::uint64_t run_numab_scan(const topo::Topology& topo, kern::LockModel lm,
                             std::uint64_t pages) {
  kern::KernelConfig cfg = config_for(topo, lm);
  cfg.numa_balancing.enabled = true;
  cfg.numa_balancing.scan_period = 50'000;  // 50 us: every pass scans
  cfg.numa_balancing.scan_size_pages = pages;
  kern::Kernel k(cfg);
  bench::observe(k);
  kern::ThreadCtx t;
  t.pid = k.create_process();
  const std::uint64_t len = pages * mem::kPageSize;
  const vm::Vaddr a = k.sys_mmap(t, len, vm::Prot::kReadWrite);
  k.access(t, a, len, vm::Prot::kWrite, 3500.0);
  for (int pass = 0; pass < 16; ++pass)
    k.access(t, a, len, vm::Prot::kRead, 3500.0);
  std::uint64_t h = mix(14695981039346656037ull, t.clock);
  h = mix(h, k.stats().numab_pages_scanned);
  return mix(h, k.stats().numab_hint_faults);
}

/// Ranged migration ping-pong: the paper's proposed interface, driven hard.
std::uint64_t run_migrate_ranged(const topo::Topology& topo,
                                 kern::LockModel lm, std::uint64_t pages) {
  kern::Kernel k(config_for(topo, lm));
  bench::observe(k);
  kern::ThreadCtx t;
  t.pid = k.create_process();
  const std::uint64_t len = pages * mem::kPageSize;
  const vm::Vaddr a = k.sys_mmap(t, len, vm::Prot::kReadWrite);
  k.access(t, a, len, vm::Prot::kWrite, 3500.0);
  std::uint64_t h = 14695981039346656037ull;
  const topo::NodeId nn = k.topo().num_nodes();
  for (int round = 0; round < 8; ++round) {
    const kern::Kernel::MoveRange r{a, len,
                                    static_cast<topo::NodeId>(round % nn)};
    h = mix(h, static_cast<std::uint64_t>(
                   k.sys_move_pages_ranged(t, {&r, 1})));
  }
  h = mix(h, t.clock);
  return mix(h, k.stats().pages_migrated_move);
}

/// Soft-TLB best case: populate once, then hammer the same fully mapped
/// same-node range with repeated whole-range reads. After the first read
/// fills the extent descriptor every later access is a cache hit that skips
/// the page walk entirely — the scenario the soft-TLB exists for. The
/// checksum folds only simulated state (clock, faults), never the stlb
/// hit/miss counters, so --stlb=on and --stlb=off rows must agree on it.
std::uint64_t run_stlb_hot(const topo::Topology& topo, kern::LockModel lm,
                           std::uint64_t pages) {
  kern::Kernel k(config_for(topo, lm));
  bench::observe(k);
  kern::ThreadCtx t;
  t.pid = k.create_process();
  const std::uint64_t len = pages * mem::kPageSize;
  const vm::Vaddr a = k.sys_mmap(t, len, vm::Prot::kReadWrite);
  k.access(t, a, len, vm::Prot::kWrite, 3500.0);
  for (int rep = 0; rep < 64; ++rep)
    k.access(t, a, len, vm::Prot::kRead, 3500.0);
  std::uint64_t h = mix(14695981039346656037ull, t.clock);
  return mix(h, k.stats().minor_faults);
}

/// Soft-TLB worst case: every access is preceded by an mprotect over the
/// range, which bumps the process mapping generation and invalidates every
/// cached descriptor — so each access misses, walks, and refills. Bounds the
/// overhead the cache adds when it never hits.
std::uint64_t run_stlb_churn(const topo::Topology& topo, kern::LockModel lm,
                             std::uint64_t pages) {
  kern::Kernel k(config_for(topo, lm));
  bench::observe(k);
  kern::ThreadCtx t;
  t.pid = k.create_process();
  const std::uint64_t len = pages * mem::kPageSize;
  const vm::Vaddr a = k.sys_mmap(t, len, vm::Prot::kReadWrite);
  k.access(t, a, len, vm::Prot::kWrite, 3500.0);
  std::uint64_t h = 14695981039346656037ull;
  for (int rep = 0; rep < 32; ++rep) {
    h = mix(h, static_cast<std::uint64_t>(
                   k.sys_mprotect(t, a, len, vm::Prot::kReadWrite)));
    k.access(t, a, len, vm::Prot::kRead, 3500.0);
  }
  h = mix(h, t.clock);
  return mix(h, k.stats().minor_faults);
}

constexpr Scenario kScenarios[] = {
    {"events", run_events},
    {"forkjoin", run_forkjoin},
    {"faults", run_faults},
    {"pt_walk", run_pt_walk},
    {"numab_scan", run_numab_scan},
    {"migrate_ranged", run_migrate_ranged},
    {"stlb_hot", run_stlb_hot},
    {"stlb_churn", run_stlb_churn},
};

/// Parse "a,b,c" into unsigned values; exits 2 on junk.
std::vector<std::uint64_t> parse_list(const char* prog, const char* flag,
                                      const char* s) {
  std::vector<std::uint64_t> out;
  const char* p = s;
  while (*p != '\0') {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(p, &end, 10);
    if (end == p || v == 0 || (*end != ',' && *end != '\0')) {
      std::fprintf(stderr, "%s: bad %s list '%s'\n", prog, flag, s);
      std::exit(2);
    }
    out.push_back(v);
    p = *end == ',' ? end + 1 : end;
  }
  if (out.empty()) {
    std::fprintf(stderr, "%s: empty %s list\n", prog, flag);
    std::exit(2);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // Matrix axes are local flags; everything else (--csv/--quick/--metrics/
  // --trace=/--stlb=...) goes through the shared strict parser. The matrix
  // sweeps lock models and node counts itself, so it refuses --lock-model
  // and --tier-spec.
  std::vector<std::uint64_t> nodes_axis;
  std::vector<std::uint64_t> pages_axis;
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--nodes=", 8) == 0) {
      nodes_axis = parse_list(argv[0], "--nodes", argv[i] + 8);
    } else if (std::strncmp(argv[i], "--pages=", 8) == 0) {
      pages_axis = parse_list(argv[0], "--pages", argv[i] + 8);
    } else if (std::strcmp(argv[i], "--list") == 0) {
      for (const Scenario& sc : kScenarios) std::printf("%s\n", sc.name);
      return 0;
    } else {
      if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0)
        std::fprintf(stderr,
                     "%s extra flags:\n"
                     "  --nodes=N,...  node counts to sweep (default 2,4)\n"
                     "  --pages=N,...  pages per scenario (default 4096,32768)\n"
                     "  --list         print scenario names and exit\n",
                     argv[0]);
      rest.push_back(argv[i]);
    }
  }
  const bench::Options opt =
      bench::parse_options(static_cast<int>(rest.size()), rest.data(),
                           {.lock_model = false, .tier_spec = false});
  bench::Observability obs(opt);

  if (nodes_axis.empty()) nodes_axis = opt.quick ? std::vector<std::uint64_t>{4}
                                                 : std::vector<std::uint64_t>{2, 4};
  if (pages_axis.empty())
    pages_axis = opt.quick ? std::vector<std::uint64_t>{2048}
                           : std::vector<std::uint64_t>{4096, 32768};
  const std::vector<kern::LockModel> locks =
      opt.quick ? std::vector<kern::LockModel>{kern::LockModel::kCoarse}
                : std::vector<kern::LockModel>{kern::LockModel::kCoarse,
                                               kern::LockModel::kRange};

  bench::print_header(opt, "simulator-core host performance",
                      {"scenario", "nodes", "pages", "lock_model", "wall_ms",
                       "checksum"});
  for (const Scenario& sc : kScenarios) {
    for (const std::uint64_t nn : nodes_axis) {
      const topo::Topology topo = topo::Topology::from_spec(
          "nodes=" + std::to_string(nn) + " cores=2");
      for (const std::uint64_t pages : pages_axis) {
        for (const kern::LockModel lm : locks) {
          const auto t0 = std::chrono::steady_clock::now();
          const std::uint64_t checksum = sc.run(topo, lm, pages);
          const auto t1 = std::chrono::steady_clock::now();
          const double ms =
              std::chrono::duration<double, std::milli>(t1 - t0).count();
          char sum[32];
          std::snprintf(sum, sizeof sum, "%016llx",
                        static_cast<unsigned long long>(checksum));
          bench::print_row(opt, {sc.name, std::to_string(nn),
                                 std::to_string(pages),
                                 lm == kern::LockModel::kCoarse ? "coarse"
                                                                : "range",
                                 bench::fmt(ms, "%.3f"), sum});
        }
      }
    }
  }
  obs.finish();
  return 0;
}

#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <exception>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>

#include "apps/kvstore.hpp"
#include "apps/lu.hpp"
#include "apps/traffic.hpp"
#include "kern/kernel.hpp"
#include "obs/metrics.hpp"
#include "rt/machine.hpp"
#include "rt/team.hpp"
#include "rt/thread.hpp"
#include "sim/barrier.hpp"
#include "sim/stats.hpp"

namespace numasim::suite {

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (unsigned i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

namespace {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(ns_between(a, b)) / 1e9;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// Kernel counters reported as per-layer metrics, read from the registry by
// name: a counter a later change removes becomes a missing metric, not a
// broken build.
constexpr const char* kKernCounters[] = {
    "kern.minor_faults",           "kern.nexttouch_faults",
    "kern.pages_migrated_nexttouch", "kern.pages_migrated_move",
    "kern.tlb_shootdowns",         "kern.migrations_failed",
    "kern.kmigrated.pages_failed", "kern.numab.scans",
    "kern.numab.pages_scanned",    "kern.numab.hint_faults",
    "kern.numab.pages_promoted",   "kern.kmigrated.batches",
    "kern.kmigrated.pages",        "kern.migrate.txn.commits",
    "kern.migrate.txn.dirty_retries", "kern.migrate.txn.degraded",
    "kern.tier.promotions",        "kern.tier.demotions",
    "kern.stlb.hits",              "kern.stlb.misses",
    "kern.stlb.invalidations",
};

// Counters whose pages count as migrated, and as failed migrations.
constexpr const char* kMigratedCounters[] = {
    "kern.pages_migrated_move", "kern.pages_migrated_process",
    "kern.pages_migrated_nexttouch", "kern.kmigrated.pages"};
constexpr const char* kFailedCounters[] = {
    "kern.migrations_failed", "kern.kmigrated.pages_failed",
    "kern.nexttouch_degraded"};

struct SimtMetric {
  sim::CostKind kind;
  const char* name;
};
constexpr SimtMetric kSimt[] = {
    {sim::CostKind::kCompute, "apps.simt.compute_ms"},
    {sim::CostKind::kMemAccess, "apps.simt.mem_access_ms"},
    {sim::CostKind::kPageFault, "kern.simt.page_fault_ms"},
    {sim::CostKind::kAllocZero, "kern.simt.alloc_zero_ms"},
    {sim::CostKind::kMovePagesControl, "kern.simt.move_pages_control_ms"},
    {sim::CostKind::kMovePagesCopy, "kern.simt.move_pages_copy_ms"},
    {sim::CostKind::kTlbShootdown, "kern.simt.tlb_shootdown_ms"},
    {sim::CostKind::kLockWait, "kern.simt.lock_wait_ms"},
    {sim::CostKind::kMadvise, "kern.simt.madvise_ms"},
    {sim::CostKind::kNextTouchControl, "kern.simt.next_touch_control_ms"},
    {sim::CostKind::kNextTouchCopy, "kern.simt.next_touch_copy_ms"},
    {sim::CostKind::kNumaScan, "kern.simt.numa_scan_ms"},
    {sim::CostKind::kNumaHint, "kern.simt.numa_hint_ms"},
    {sim::CostKind::kOther, "kern.simt.other_ms"},
};

// Metrics only some workloads produce; the others report 0 so every rep
// carries the same metric names.
constexpr std::pair<const char*, const char*> kWorkloadMetrics[] = {
    {"apps.requests", "count"},        {"apps.index_probes", "count"},
    {"apps.scan_slots", "count"},      {"apps.kv.hot_remote_pct", "%"},
    {"apps.lu.nexttouch_migrations", "count"},
    {"apps.lu.madvise_calls", "count"}, {"apps.lu.nt_gain_pct", "%"},
    {"apps.paper_err_pct", "%"},       {"apps.fig7.sync_mbps", "sim_MB/s"},
    {"apps.fig7.lazy_mbps", "sim_MB/s"}, {"vm.pages_touched", "count"},
};

constexpr std::size_t kAuditAllThreads = 16;

/// Shared skeleton of one rep: timings, spans, the metrics registry, and the
/// post-run audit of every machine the rep built.
class Rep {
 public:
  Rep(HostTrace* tr, HostTrace::SpanId parent)
      : tr_(tr), span_(tr, "rep", parent), t0_(Clock::now()) {}

  HostTrace::SpanId span() const { return span_.id(); }

  /// Register a machine right after construction.
  void adopt(rt::Machine& m) { machines_.push_back(&m); }

  /// Run `m`'s part of the timed region. A registry binds one kernel's
  /// counters at a time, so a traced rep attaches it for just this run (its
  /// histograms then see the whole run) and retires it right after; untraced
  /// reps attach it only in finish(), to read the counters.
  template <typename Fn>
  void run(rt::Machine& m, Fn&& body) {
    if (tr_ != nullptr) m.kernel().set_metrics(&reg_);
    body();
    if (tr_ != nullptr) m.kernel().set_metrics(nullptr);
  }

  void begin_timed() {
    events_ = 0;
    for (rt::Machine* m : machines_) events_ -= m->engine().events_processed();
    t1_ = Clock::now();
  }
  void end_timed() {
    t2_ = Clock::now();
    for (rt::Machine* m : machines_) events_ += m->engine().events_processed();
  }

  void set_makespan(sim::Time t) { r_.makespan_ns = t; }
  std::vector<sim::Time>& ops() { return r_.op_ns; }
  void check(bool ok, const std::string& what) {
    if (!ok) r_.check_failures.push_back(what);
  }

  /// Audit and account every adopted machine (after end_timed), detach the
  /// registry, and assemble the rep's result. Workloads add their own
  /// metrics, attempts and failures to the returned value.
  RepResult finish() {
    sim::CostStats simt;
    std::uint64_t threads = 0, allocs = 0, frees = 0, fallbacks = 0, wm_blocks = 0;
    for (rt::Machine* m : machines_) {
      kern::Kernel& k = m->kernel();
      if (tr_ == nullptr) k.set_metrics(&reg_);
      // validate(ctx) re-runs the whole validate(pid) audit (50-180 ms on
      // the 2-4 GiB address spaces here) before auditing the thread's
      // soft-TLB, so machines that fork hundreds of region workers audit
      // only their first (main) and last-spawned threads.
      const auto& ths = m->threads();
      try {
        for (std::size_t i = 0; i < ths.size(); ++i)
          if (ths.size() <= kAuditAllThreads || i == 0 || i + 1 == ths.size())
            k.validate(ths[i]->ctx());
      } catch (const std::exception& e) {
        check(false, std::string("validate: ") + e.what());
      }
      for (const auto& th : m->threads()) simt += th->stats();
      threads += m->threads().size();
      const mem::PhysMem& pm = k.phys();
      allocs += pm.total_allocs();
      frees += pm.total_frees();
      fallbacks += pm.fallback_allocs();
      for (topo::NodeId n = 0; n < m->topology().num_nodes(); ++n)
        wm_blocks += pm.watermark_blocks(n);
      k.set_metrics(nullptr);  // retire: counters fold into owned totals
    }

    r_.setup_s = seconds_between(t0_, t1_);
    r_.host_s = seconds_between(t1_, t2_);
    snap_ = reg_.snapshot();
    const obs::Snapshot& snap = snap_;
    auto set = [&](const std::string& name, double v, const char* unit) {
      r_.layer[name] = Metric{v, unit};
    };

    // Every counter is a simulated outcome (soft-TLB counters included:
    // they are host memoization, but deterministic), so all of them go into
    // the checksum. Histograms do not: untraced reps never fill them.
    r_.checksum = kFnvBasis;
    for (const auto& [name, v] : snap.counters) r_.checksum = fnv_mix(r_.checksum, v);
    r_.checksum = fnv_mix(r_.checksum, events_);
    r_.checksum = fnv_mix(r_.checksum, r_.makespan_ns);
    for (sim::Time t : r_.op_ns) r_.checksum = fnv_mix(r_.checksum, t);

    for (const char* name : kFailedCounters) r_.failed += counter(name);

    set("sim.events", static_cast<double>(events_), "count");
    set("rt.threads_spawned", static_cast<double>(threads), "count");
    set("mem.allocs", static_cast<double>(allocs), "count");
    set("mem.frees", static_cast<double>(frees), "count");
    set("mem.fallback_allocs", static_cast<double>(fallbacks), "count");
    set("mem.watermark_blocks", static_cast<double>(wm_blocks), "count");
    for (const SimtMetric& s : kSimt)
      set(s.name, static_cast<double>(simt.get(s.kind)) / 1e6, "sim_ms");
    for (const auto& [name, unit] : kWorkloadMetrics) set(name, 0.0, unit);

    for (const char* name : kKernCounters) {
      if (snap.counters.count(name) != 0)
        set(name, static_cast<double>(counter(name)), "count");
    }
    // Useful work over attempts: `num` over the sum of the `den` counters.
    auto derive = [&](const char* name, const char* num,
                      std::initializer_list<const char*> den) {
      double d = 0;
      for (const char* c : den) {
        if (snap.counters.count(c) == 0) return;
        d += static_cast<double>(counter(c));
      }
      set(name, ratio(static_cast<double>(counter(num)), d), "ratio");
    };
    derive("kern.numab.promote_ratio", "kern.numab.pages_promoted",
           {"kern.numab.hint_faults"});
    derive("kern.tier.churn_ratio", "kern.tier.demotions", {"kern.tier.promotions"});
    derive("kern.stlb.hit_ratio", "kern.stlb.hits", {"kern.stlb.hits", "kern.stlb.misses"});

    std::uint64_t migrated = 0;
    for (const char* name : kMigratedCounters) migrated += counter(name);
    set("kern.sim_migrate_mbps",
        sim::mb_per_second(migrated * mem::kPageSize, r_.makespan_ns), "sim_MB/s");

    auto hist = [&](const char* name, const char* suffix, const char* unit,
                    auto stat) {
      const auto it = snap.histograms.find(name);
      if (it != snap.histograms.end())
        set(std::string(name) + suffix, stat(it->second), unit);
    };
    hist("kern.fault_service_ns", ".p99", "sim_ns",
         [](const obs::HistogramSnap& h) { return h.percentile(99); });
    hist("kern.kmigrated.batch_latency_ns", ".p99", "sim_ns",
         [](const obs::HistogramSnap& h) { return h.percentile(99); });
    hist("kern.migrate_page_ns", ".mean", "sim_ns",
         [](const obs::HistogramSnap& h) { return h.mean(); });
    hist("kern.lock_wait_ns", ".sum", "sim_ns",
         [](const obs::HistogramSnap& h) { return static_cast<double>(h.sum); });

    if (tr_ != nullptr) host_layer_metrics();
    return r_;
  }

  /// Registry counter of the finished rep (0 when absent).
  std::uint64_t counter(const char* name) const {
    const auto it = snap_.counters.find(name);
    return it == snap_.counters.end() ? 0 : it->second;
  }

 private:
  /// Host-time attribution of the traced rep, from its spans.
  void host_layer_metrics() {
    double machine_ns = 0, app_ns = 0;
    HostTrace::SpanId run = HostTrace::kNone;
    const auto& spans = tr_->spans();
    for (HostTrace::SpanId i = 0; i < spans.size(); ++i) {
      if (spans[i].parent != span_.id()) continue;
      const auto d = static_cast<double>(tr_->dur_ns(i));
      if (spans[i].name == "setup.machine") machine_ns += d;
      if (spans[i].name == "setup.app") app_ns += d;
      if (spans[i].name == "sim.run") run = i;
    }
    r_.layer["rt.machine_ctor_host_ms"] = Metric{machine_ns / 1e6, "ms"};
    r_.layer["apps.setup_host_ms"] = Metric{app_ns / 1e6, "ms"};
    if (run == HostTrace::kNone) return;
    const auto run_ns = static_cast<double>(tr_->dur_ns(run));
    double calls_ns = 0;
    auto share = [&](const char* name, Call c) {
      const double ns = static_cast<double>(tr_->calls_under(run, c).ns);
      calls_ns += ns;
      r_.layer[name] = Metric{100.0 * ratio(ns, run_ns), "%"};
    };
    share("apps.traffic_host_pct", Call::kTrafficNext);
    share("kern.move_pages_host_pct", Call::kMovePages);
    share("kern.madvise_host_pct", Call::kMadvise);
    share("kern.access_host_pct", Call::kAccess);
    share("vm.placement_query_host_pct", Call::kPlacement);
    // The engine run minus every boundary the benchmark timed inside it:
    // event dispatch plus all the layers below the benchmark's calls.
    r_.layer["sim.host_ns_per_event"] =
        Metric{ratio(run_ns - calls_ns, static_cast<double>(events_)), "ns"};
  }

  HostTrace* tr_;
  // Workloads construct their Rep before their machines, so the registry
  // outlives every kernel it was attached to.
  obs::Registry reg_;
  SpanScope span_;
  Clock::time_point t0_, t1_{}, t2_{};
  std::uint64_t events_ = 0;
  std::vector<rt::Machine*> machines_;
  RepResult r_;
  obs::Snapshot snap_;
};

void set_layer(RepResult& r, const char* name, double v) { r.layer[name].value = v; }

// ---------------------------------------------------------------------------
// lu_table1: Table 1's 16384x512 row — LuFactorization static, then with the
// per-iteration next-touch hook. Paper improvement +85.8 % (held out: the
// cost model was calibrated on Figs. 4-7, not on Table 1).

constexpr std::uint64_t kLuN = 16384;
constexpr std::uint64_t kLuBs = 512;
constexpr double kPaperLuGainPct = 85.8;

kern::KernelConfig phantom_quad() {
  kern::KernelConfig cfg;
  cfg.backing = mem::Backing::kPhantom;
  return cfg;
}

RepResult run_lu(std::uint64_t /*seed: LU draws no randomness*/, HostTrace* tr,
                 HostTrace::SpanId parent) {
  Rep rep(tr, parent);
  std::unique_ptr<rt::Machine> ms, mn;
  {
    SpanScope s(tr, "setup.machine", rep.span());
    ms = std::make_unique<rt::Machine>(phantom_quad());
    mn = std::make_unique<rt::Machine>(phantom_quad());
  }
  rep.adopt(*ms);
  rep.adopt(*mn);
  std::unique_ptr<rt::Team> ts, tn;
  std::unique_ptr<apps::LuFactorization> lus, lun;
  {
    SpanScope s(tr, "setup.app", rep.span());
    ts = std::make_unique<rt::Team>(rt::Team::all_cores(*ms));
    tn = std::make_unique<rt::Team>(rt::Team::all_cores(*mn));
    apps::LuConfig cfg;
    cfg.n = kLuN;
    cfg.bs = kLuBs;
    lus = std::make_unique<apps::LuFactorization>(*ms, *ts, cfg);
    cfg.next_touch = true;
    lun = std::make_unique<apps::LuFactorization>(*mn, *tn, cfg);
  }

  rep.begin_timed();
  {
    SpanScope run(tr, "sim.run", rep.span());
    {
      SpanScope p(tr, "lu.static", run.id());
      rep.run(*ms, [&] {
        ms->run_main(0, [&](rt::Thread& th) -> sim::Task<void> { co_await lus->run(th); });
      });
    }
    {
      SpanScope p(tr, "lu.next_touch", run.id());
      rep.run(*mn, [&] {
        mn->run_main(0, [&](rt::Thread& th) -> sim::Task<void> { co_await lun->run(th); });
      });
    }
  }
  rep.end_timed();

  const apps::LuResult& nt = lun->result();
  rep.set_makespan(nt.factor_time);
  // One operation = one worker's share of a parallel region (thread 0 is
  // the main thread; every other thread is a forked region worker).
  const auto& threads = mn->threads();
  for (std::size_t i = 1; i < threads.size(); ++i)
    rep.ops().push_back(threads[i]->stats().total());
  const sim::Time stat = lus->result().factor_time;
  rep.check(nt.factor_time > 0 && stat > 0, "lu: zero factorization time");

  RepResult r = rep.finish();
  r.checksum = fnv_mix(r.checksum, stat);
  r.attempted = rep.counter("kern.nexttouch_faults");
  const double gain =
      100.0 * (ratio(static_cast<double>(stat), static_cast<double>(nt.factor_time)) - 1.0);
  set_layer(r, "apps.lu.nexttouch_migrations", static_cast<double>(nt.nexttouch_migrations));
  set_layer(r, "apps.lu.madvise_calls", static_cast<double>(nt.madvise_calls));
  set_layer(r, "apps.lu.nt_gain_pct", gain);
  set_layer(r, "apps.paper_err_pct",
            100.0 * std::abs(gain - kPaperLuGainPct) / kPaperLuGainPct);
  return r;
}

// ---------------------------------------------------------------------------
// migrate_fig7: Fig. 7's 4-thread plateau at scale. Four threads bound to
// the destination node migrate a 4 GiB buffer node 0 -> 1 -> 2 -> 3 -> 1 ...
// with synchronous move_pages, then with madvise + touch (kernel
// next-touch), under the paper-faithful coarse lock model. The workers call
// the kernel entry points themselves, exactly as rt::Thread::move_pages and
// rt::Thread::touch_pages_sparse do, so each call can be timed from here.

constexpr std::uint64_t kFigPages = std::uint64_t{1} << 20;
constexpr unsigned kFigThreads = 4;
constexpr unsigned kSyncRounds = 12;
constexpr unsigned kLazyRounds = 12;
constexpr std::size_t kChunk = rt::Thread::kChunkPages;
// Fig. 7 4-thread plateaus read off the paper's plot (the cost model was
// tuned to these, so this error is calibration error).
constexpr double kPaperSyncMBps = 975.0;
constexpr double kPaperLazyMBps = 1300.0;

RepResult run_migrate(std::uint64_t /*seed: no randomness*/, HostTrace* tr,
                      HostTrace::SpanId parent) {
  Rep rep(tr, parent);
  std::unique_ptr<rt::Machine> m;
  {
    SpanScope s(tr, "setup.machine", rep.span());
    m = std::make_unique<rt::Machine>(phantom_quad());
  }
  rep.adopt(*m);
  kern::Kernel& k = m->kernel();
  const std::uint64_t len = kFigPages * mem::kPageSize;
  vm::Vaddr buf = 0;
  {
    SpanScope s(tr, "setup.app", rep.span());
    m->run_main(0, [&](rt::Thread& th) -> sim::Task<void> {
      buf = co_await th.mmap(len, vm::Prot::kReadWrite,
                             vm::MemPolicy::bind(topo::node_mask_of(0)));
      co_await th.touch(buf, len);
    });
  }
  rep.check(buf != 0 && k.pages_on_node(m->pid(), buf, len, 0) == kFigPages,
            "migrate: buffer not populated on node 0");

  constexpr unsigned kRounds = kSyncRounds + kLazyRounds;
  std::array<sim::Time, kRounds> round_ns{};
  std::uint64_t not_landed = 0, touched = 0;

  // One worker's slice of a round, chunked exactly like rt::Thread does.
  auto migrate_slice = [&](rt::Thread& w, unsigned tid, bool sync, topo::NodeId dest,
                           HostTrace::SpanId round) -> sim::Task<void> {
    constexpr std::uint64_t slice = kFigPages / kFigThreads;
    const vm::Vaddr lo = buf + tid * slice * mem::kPageSize;
    if (sync) {
      std::array<vm::Vaddr, kChunk> pages{};
      std::array<topo::NodeId, kChunk> nodes{};
      std::array<int, kChunk> status{};
      nodes.fill(dest);
      {
        CallTimer ct(tr, round, Call::kMovePages);
        k.move_pages_enter(w.ctx(), slice);
      }
      co_await w.sync();
      for (std::uint64_t off = 0; off < slice; off += kChunk) {
        const std::size_t n = std::min<std::uint64_t>(kChunk, slice - off);
        for (std::size_t i = 0; i < n; ++i) pages[i] = lo + (off + i) * mem::kPageSize;
        const sim::Time t0 = w.now();
        {
          CallTimer ct(tr, round, Call::kMovePages);
          k.move_pages_chunk(w.ctx(), std::span(pages).first(n), std::span(nodes).first(n),
                             std::span(status).first(n), slice);
        }
        rep.ops().push_back(w.now() - t0);
        co_await w.sync();
      }
    } else {
      {
        CallTimer ct(tr, round, Call::kMadvise);
        k.sys_madvise(w.ctx(), lo, slice * mem::kPageSize, kern::Advice::kMigrateOnNextTouch);
      }
      co_await w.sync();
      for (std::uint64_t off = 0; off < slice; off += kChunk) {
        const std::uint64_t n = std::min<std::uint64_t>(kChunk, slice - off);
        const sim::Time t0 = w.now();
        kern::AccessResult a;
        {
          CallTimer ct(tr, round, Call::kAccess);
          a = k.access(w.ctx(), lo + off * mem::kPageSize, n * mem::kPageSize,
                       vm::Prot::kReadWrite, 0.0);
        }
        touched += a.pages;
        rep.ops().push_back(w.now() - t0);
        co_await w.sync();
      }
    }
  };

  rep.begin_timed();
  {
    SpanScope run(tr, "sim.run", rep.span());
    rt::Machine::Body rounds = [&](rt::Thread& th) -> sim::Task<void> {
      for (unsigned r = 0; r < kRounds; ++r) {
        const bool sync = r < kSyncRounds;
        const auto dest = static_cast<topo::NodeId>(1 + r % 3);
        SpanScope round(tr, sync ? "round.sync" : "round.lazy", run.id());
        const HostTrace::SpanId rid = round.id();
        rt::Team team = rt::Team::node_cores(*m, dest, kFigThreads);
        rt::Team::WorkerFn worker = [&, sync, dest, rid](unsigned tid, rt::Thread& w) {
          return migrate_slice(w, tid, sync, dest, rid);
        };
        co_await team.parallel(th, worker, "migrate");
        round_ns[r] = team.last_span();
        std::uint64_t on = 0;
        {
          CallTimer ct(tr, rid, Call::kPlacement);
          on = k.pages_on_node(m->pid(), buf, len, dest);
        }
        not_landed += kFigPages - on;
      }
    };
    rep.run(*m, [&] { m->run_main(0, rounds); });
  }
  rep.end_timed();

  sim::Time sync_ns = 0, lazy_ns = 0;
  for (unsigned r = 0; r < kRounds; ++r) (r < kSyncRounds ? sync_ns : lazy_ns) += round_ns[r];
  rep.set_makespan(sync_ns + lazy_ns);
  rep.check(not_landed == 0, "migrate: pages missing from the destination node");

  RepResult r = rep.finish();
  r.attempted = kFigPages * kRounds;
  r.failed += not_landed;
  const double sync_mbps = sim::mb_per_second(len * kSyncRounds, sync_ns);
  const double lazy_mbps = sim::mb_per_second(len * kLazyRounds, lazy_ns);
  set_layer(r, "vm.pages_touched", static_cast<double>(touched));
  set_layer(r, "apps.paper_err_pct",
            50.0 * (std::abs(sync_mbps - kPaperSyncMBps) / kPaperSyncMBps +
                    std::abs(lazy_mbps - kPaperLazyMBps) / kPaperLazyMBps));
  set_layer(r, "apps.fig7.sync_mbps", sync_mbps);
  set_layer(r, "apps.fig7.lazy_mbps", lazy_mbps);
  return r;
}

// ---------------------------------------------------------------------------
// kv_*: the serving_mixes store (16 shards x 512 keys x 1 KiB) under four
// tenants x two closed-loop clients (no think time), three phases whose hot
// shard shifts one tenant over at each boundary. Numeric mode on
// materialized backing: every get re-reads its value's stamp, so integrity
// under migration is checked on every run.

constexpr unsigned kTenants = 4;
constexpr unsigned kClientsPerTenant = 2;
constexpr unsigned kClients = kTenants * kClientsPerTenant;
constexpr unsigned kPhases = 3;
constexpr std::uint64_t kShards = 16;
constexpr std::uint64_t kKeysPerShard = 512;
constexpr std::uint64_t kShardsPerTenant = kShards / kTenants;
constexpr std::uint64_t kRequestsPerPhase = 100'000;  // per client
constexpr std::uint64_t kWarmupDiv = 4;  // first quarter of a phase: warm-up
constexpr double kTheta = 0.99;

struct KvVariant {
  kern::KernelConfig cfg;
  apps::Mix mix;
  apps::KvPlacement placement;
};

/// AutoNUMA on the quad Opteron, tuned as bench/serving_mixes does: a full
/// tag cycle every ~1.2 ms, single-reference promotion.
KvVariant kv_autonuma() {
  KvVariant v{kern::KernelConfig{}, apps::Mix::kScanMixed, apps::KvPlacement::kFirstTouch};
  kern::NumaBalancingConfig& nb = v.cfg.numa_balancing;
  nb.enabled = true;
  nb.scan_period = sim::microseconds(300);
  nb.scan_size_pages = 512;
  nb.two_reference = false;
  nb.balance_period = sim::milliseconds(100);
  return v;
}

/// Two fast + two DRAM nodes whose 4 MB fast tiers hold the 8 MB store only
/// up to their 90 % demotion watermark, transactional migration, and
/// two-reference promotion. serving_mixes's tiering policy (3 MB tiers, a
/// 1.5 ms clock) flips between two regimes with the traffic seed (makespan
/// 1.14-1.98 s over seeds 1-10); this shape stays in one (2.42-2.51 s) and
/// moves ~70k pages up and ~70k down per rep.
KvVariant kv_tiered_writes() {
  KvVariant v{kern::KernelConfig{}, apps::Mix::kWriteHeavy, apps::KvPlacement::kTiered};
  v.cfg.topology = topo::Topology::from_spec("nodes=4 cores=4 tiers=fast:2,dram:2 fast_mb=4");
  v.cfg.tiers.enabled = true;
  v.cfg.migration_mode = kern::MigrationMode::kTransactional;
  kern::NumaBalancingConfig& nb = v.cfg.numa_balancing;
  nb.enabled = true;
  nb.scan_period = sim::microseconds(750);
  nb.scan_size_pages = 512;
  nb.two_reference = true;
  nb.balance_period = sim::milliseconds(100);
  return v;
}

/// Host-time phase spans shared by the clients: the first client to enter a
/// phase closes the previous phase's span and opens the new one, so every
/// client's calls land inside the span of the phase they belong to.
class PhaseSpans {
 public:
  PhaseSpans(HostTrace* tr, HostTrace::SpanId parent) : tr_(tr), parent_(parent) {}
  void enter(unsigned phase) {
    if (tr_ == nullptr || static_cast<int>(phase) <= cur_phase_) return;
    close();
    cur_ = tr_->begin("phase." + std::to_string(phase), parent_);
    cur_phase_ = static_cast<int>(phase);
  }
  void close() {
    if (tr_ != nullptr && cur_ != HostTrace::kNone) tr_->end(cur_);
    cur_ = HostTrace::kNone;
  }
  HostTrace::SpanId current() const { return cur_; }

 private:
  HostTrace* tr_;
  HostTrace::SpanId parent_;
  HostTrace::SpanId cur_ = HostTrace::kNone;
  int cur_phase_ = -1;
};

RepResult run_kv(const KvVariant& v, std::uint64_t seed, HostTrace* tr,
                 HostTrace::SpanId parent) {
  Rep rep(tr, parent);
  std::unique_ptr<rt::Machine> m;
  {
    SpanScope s(tr, "setup.machine", rep.span());
    m = std::make_unique<rt::Machine>(v.cfg);
  }
  rep.adopt(*m);

  // Seed-derived streams: client traffic and the store's index layout.
  const std::uint64_t base = fnv_mix(kFnvBasis, seed);
  std::unique_ptr<apps::KvStore> store;
  std::unique_ptr<rt::Team> team;
  std::unique_ptr<sim::Barrier> bar;
  {
    SpanScope s(tr, "setup.app", rep.span());
    apps::KvConfig kc;
    kc.shards = kShards;
    kc.keys_per_shard = kKeysPerShard;
    kc.value_bytes = 1024;
    kc.placement = v.placement;
    kc.index_seed = base ^ 0x5e3911d50a1b77c3ull;
    kc.numeric = true;
    store = std::make_unique<apps::KvStore>(*m, kc);
    std::vector<topo::CoreId> cores;
    for (unsigned t = 0; t < kTenants; ++t)
      for (unsigned c = 0; c < kClientsPerTenant; ++c)
        cores.push_back(static_cast<topo::CoreId>(4 * t + c));
    team = std::make_unique<rt::Team>(*m, cores);
    bar = std::make_unique<sim::Barrier>(m->engine(), kClients, m->cost().barrier_phase);
    m->run_main(2, [&](rt::Thread& th) -> sim::Task<void> { co_await store->setup(th); });
  }

  std::array<sim::Time, kPhases + 1> boundary{};
  std::array<std::array<double, kTenants>, kPhases> remote{};
  std::array<std::vector<sim::Time>, kClients> lat;
  rep.begin_timed();
  {
    SpanScope run(tr, "sim.run", rep.span());
    PhaseSpans phases(tr, run.id());
    rt::Team::WorkerFn worker = [&](unsigned tid, rt::Thread& w) -> sim::Task<void> {
      const unsigned tenant = tid / kClientsPerTenant;
      apps::ClientTraffic::Config tc;
      tc.tenant = tenant;
      tc.tenants = kTenants;
      tc.keys_per_tenant = kKeysPerShard * kShardsPerTenant;
      tc.mix = v.mix;
      tc.theta = kTheta;
      tc.plan = {kPhases, kRequestsPerPhase};
      tc.seed = base ^ (0x9e3779b97f4a7c15ull * (tid + 1));
      apps::ClientTraffic gen(tc);
      lat[tid].reserve(kPhases * (kRequestsPerPhase - kRequestsPerPhase / kWarmupDiv));

      co_await w.barrier(*bar);
      if (tid == 0) boundary[0] = w.now();
      for (unsigned phase = 0; phase < kPhases; ++phase) {
        phases.enter(phase);
        const std::uint64_t warm = kRequestsPerPhase / kWarmupDiv;
        for (std::uint64_t i = 0; i < kRequestsPerPhase; ++i) {
          apps::Request q;
          {
            CallTimer ct(tr, phases.current(), Call::kTrafficNext);
            q = gen.next();
          }
          const sim::Time t0 = w.now();
          co_await store->execute(w, q);
          if (i >= warm) lat[tid].push_back(w.now() - t0);
        }
        co_await w.barrier(*bar);
        // Between the boundary barriers: timing-free placement inspection.
        if (tid % kClientsPerTenant == 0) {
          const std::uint64_t hot =
              static_cast<std::uint64_t>(gen.range_of(phase)) * kShardsPerTenant;
          CallTimer ct(tr, phases.current(), Call::kPlacement);
          std::uint64_t present = 0;
          for (topo::NodeId n = 0; n < m->topology().num_nodes(); ++n)
            present += store->shard_pages_on(hot, n);
          const std::uint64_t on = store->shard_pages_on(hot, w.node());
          remote[phase][tenant] =
              present == 0 ? 0.0
                           : 1.0 - static_cast<double>(on) / static_cast<double>(present);
        }
        if (tid == 0) boundary[phase + 1] = w.now();
        co_await w.barrier(*bar);
      }
    };
    rep.run(*m, [&] {
      m->run_main(2, [&](rt::Thread& th) -> sim::Task<void> {
        co_await team->parallel(th, worker, "serving");
        co_await th.kmigrated_drain();
      });
    });
    phases.close();
  }
  rep.end_timed();

  rep.set_makespan(boundary[kPhases] - boundary[0]);
  for (const auto& l : lat) rep.ops().insert(rep.ops().end(), l.begin(), l.end());
  const std::uint64_t bad_stamps = store->verify_all();
  const apps::KvStore::OpStats& st = store->stats();
  rep.check(bad_stamps == 0, "kv: verify_all found corrupted values");
  rep.check(st.verify_failures == 0, "kv: a get read a stale or corrupted value");

  RepResult r = rep.finish();
  const std::uint64_t requests = st.gets + st.puts + st.scans;
  r.attempted = requests + rep.counter("kern.kmigrated.pages") +
                rep.counter("kern.kmigrated.pages_failed");
  r.failed += bad_stamps + st.verify_failures;
  double remote_sum = 0;
  for (const auto& ph : remote)
    for (double x : ph) remote_sum += x;
  const double remote_pct = 100.0 * remote_sum / (kPhases * kTenants);
  r.checksum = fnv_mix(r.checksum, requests);
  r.checksum = fnv_mix(r.checksum, st.index_probes);
  r.checksum = fnv_mix(r.checksum, static_cast<std::uint64_t>(remote_pct * 1e6));
  set_layer(r, "apps.requests", static_cast<double>(requests));
  set_layer(r, "apps.index_probes", static_cast<double>(st.index_probes));
  set_layer(r, "apps.scan_slots", static_cast<double>(st.scan_slots));
  set_layer(r, "apps.kv.hot_remote_pct", remote_pct);
  return r;
}

RepResult run_kv_autonuma(std::uint64_t seed, HostTrace* tr, HostTrace::SpanId parent) {
  return run_kv(kv_autonuma(), seed, tr, parent);
}

RepResult run_kv_tiered(std::uint64_t seed, HostTrace* tr, HostTrace::SpanId parent) {
  return run_kv(kv_tiered_writes(), seed, tr, parent);
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w{
      {"lu_table1", "parallel-region worker task", run_lu},
      {"migrate_fig7", "64-page kernel migration call", run_migrate},
      {"kv_autonuma", "request (steady window)", run_kv_autonuma},
      {"kv_tiered_writes", "request (steady window)", run_kv_tiered},
  };
  return w;
}

}  // namespace numasim::suite

// Observability subsystem tests: log2 histogram bucketing, registry
// snapshot/delta semantics and kernel binding, Chrome trace-event JSON
// well-formedness, the zero-cost/zero-randomness guarantee when no sink is
// attached, the periodic reporter cadence, and the SyscallResult wrapper.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "kern/event_log.hpp"
#include "kern/fault_injector.hpp"
#include "kern/kernel.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace numasim::obs {
namespace {

// --- histogram bucketing -----------------------------------------------------

TEST(Histogram, BucketOfIsBitWidth) {
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(7), 3u);
  EXPECT_EQ(Histogram::bucket_of(8), 4u);
  EXPECT_EQ(Histogram::bucket_of(1023), 10u);
  EXPECT_EQ(Histogram::bucket_of(1024), 11u);
  EXPECT_EQ(Histogram::bucket_of(std::uint64_t{1} << 63), 64u);
  EXPECT_EQ(Histogram::bucket_of(~std::uint64_t{0}), 64u);
}

TEST(Histogram, BucketBoundsRoundTrip) {
  EXPECT_EQ(Histogram::bucket_lo(0), 0u);
  EXPECT_EQ(Histogram::bucket_hi(0), 0u);
  EXPECT_EQ(Histogram::bucket_lo(1), 1u);
  EXPECT_EQ(Histogram::bucket_hi(1), 1u);
  EXPECT_EQ(Histogram::bucket_lo(2), 2u);
  EXPECT_EQ(Histogram::bucket_hi(2), 3u);
  EXPECT_EQ(Histogram::bucket_lo(64), std::uint64_t{1} << 63);
  EXPECT_EQ(Histogram::bucket_hi(64), ~std::uint64_t{0});
  for (std::size_t b = 1; b < 64; ++b) {
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_lo(b)), b) << b;
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_hi(b)), b) << b;
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_hi(b) + 1), b + 1) << b;
  }
}

TEST(Histogram, RecordTracksStats) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);  // empty histogram reports 0, not uint64 max
  EXPECT_EQ(h.quantile(0.5), 0u);
  h.record(0);
  h.record(1);
  h.record(5);
  h.record(1000);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 1006u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_DOUBLE_EQ(h.mean(), 1006.0 / 4.0);
  EXPECT_EQ(h.bucket(0), 1u);   // {0}
  EXPECT_EQ(h.bucket(1), 1u);   // {1}
  EXPECT_EQ(h.bucket(3), 1u);   // [4,8)
  EXPECT_EQ(h.bucket(10), 1u);  // [512,1024)
  // rank(0.5) over 4 samples selects the 2nd (value 1, bucket 1).
  EXPECT_EQ(h.quantile(0.5), 1u);
  // The top quantile is clamped by the observed max, not the bucket bound.
  EXPECT_EQ(h.quantile(1.0), 1000u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(Histogram, RecordTimesEqualsThatManyRecords) {
  Histogram once;
  Histogram each;
  once.record(7);
  once.record(300, 5);
  each.record(7);
  for (int i = 0; i < 5; ++i) each.record(300);
  EXPECT_EQ(once.count(), each.count());
  EXPECT_EQ(once.sum(), each.sum());
  EXPECT_EQ(once.min(), each.min());
  EXPECT_EQ(once.max(), each.max());
  for (std::size_t b = 0; b < kHistBuckets; ++b)
    EXPECT_EQ(once.bucket(b), each.bucket(b)) << b;
  EXPECT_EQ(once.quantile(0.5), each.quantile(0.5));
}

TEST(Histogram, PercentileInterpolatesWithinBucket) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);  // empty
  // All four samples share bucket 3 = [4,8): the samples spread evenly
  // across (lo, hi], so ranks land at lo + (hi-lo) * rank/4.
  h.record(4);
  h.record(5);
  h.record(6);
  h.record(7);
  EXPECT_DOUBLE_EQ(h.percentile(25), 4.75);
  EXPECT_DOUBLE_EQ(h.percentile(50), 5.5);
  EXPECT_DOUBLE_EQ(h.percentile(100), 7.0);  // == max, exactly
}

TEST(Histogram, PercentileClampsToObservedRange) {
  Histogram h;
  h.record(1000);  // bucket 10 = [512, 1023]: interpolation alone would
                   // report 1023 for the top rank and 512 + eps for low p
  EXPECT_DOUBLE_EQ(h.percentile(0), 1000.0);
  EXPECT_DOUBLE_EQ(h.percentile(1), 1000.0);
  EXPECT_DOUBLE_EQ(h.percentile(99), 1000.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 1000.0);
  // Out-of-range p is clamped, not rejected.
  EXPECT_DOUBLE_EQ(h.percentile(-5), 1000.0);
  EXPECT_DOUBLE_EQ(h.percentile(250), 1000.0);
}

TEST(Histogram, PercentileIsMonotoneAndBoundedByQuantile) {
  Histogram h;
  std::uint64_t x = 88172645463325252ull;  // deterministic xorshift spread
  for (int i = 0; i < 1000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    h.record(x % 100000);
  }
  double prev = -1.0;
  for (double p = 0; p <= 100.0; p += 0.5) {
    const double v = h.percentile(p);
    EXPECT_GE(v, prev) << "p=" << p;
    EXPECT_GE(v, static_cast<double>(h.min()));
    EXPECT_LE(v, static_cast<double>(h.max()));
    // quantile() reports the rank's bucket upper bound; the interpolated
    // estimate never exceeds it.
    EXPECT_LE(v, static_cast<double>(h.quantile(p / 100.0)) + 1e-9) << p;
    prev = v;
  }
}

TEST(Histogram, SnapshotPercentileMatchesLive) {
  Registry reg;
  Histogram& h = reg.histogram("lat");
  for (std::uint64_t v : {3u, 17u, 90u, 1500u, 70000u}) h.record(v);
  const Snapshot s = reg.snapshot();
  const HistogramSnap& hs = s.histograms.at("lat");
  for (double p : {0.0, 25.0, 50.0, 95.0, 99.0, 100.0})
    EXPECT_DOUBLE_EQ(hs.percentile(p), h.percentile(p)) << p;
  EXPECT_DOUBLE_EQ(HistogramSnap{}.percentile(50), 0.0);  // empty snap
}

// --- registry ----------------------------------------------------------------

TEST(Registry, OwnedBoundAndRetire) {
  Registry reg;
  reg.counter("a").inc(3);
  std::uint64_t src = 5;
  reg.bind_counter("kern.x", &src);

  Snapshot s = reg.snapshot();
  EXPECT_EQ(s.counters.at("a"), 3u);
  EXPECT_EQ(s.counters.at("kern.x"), 5u);

  src = 7;  // bound counters read through the pointer at snapshot time
  EXPECT_EQ(reg.snapshot().counters.at("kern.x"), 7u);

  reg.retire("kern.");
  src = 999;  // must no longer be dereferenced
  EXPECT_EQ(reg.snapshot().counters.at("kern.x"), 7u);

  // Re-binding after retire sums with the retired remainder.
  std::uint64_t src2 = 10;
  reg.bind_counter("kern.x", &src2);
  EXPECT_EQ(reg.snapshot().counters.at("kern.x"), 17u);
}

TEST(Registry, StableReferencesAcrossInserts) {
  Registry reg;
  Counter& a = reg.counter("a");
  Histogram& h = reg.histogram("h");
  for (int i = 0; i < 100; ++i) {
    std::string name = "c";
    name += std::to_string(i);
    reg.counter(name).inc();
  }
  a.inc(42);
  h.record(9);
  EXPECT_EQ(reg.counter("a").value(), 42u);
  EXPECT_EQ(reg.histogram("h").count(), 1u);
}

TEST(Registry, SnapshotDelta) {
  Registry reg;
  reg.counter("events").inc(10);
  reg.gauge("level").set(3);
  reg.histogram("lat").record(100);

  Snapshot before = reg.snapshot();
  reg.counter("events").inc(5);
  reg.gauge("level").set(-2);
  reg.histogram("lat").record(200);
  reg.histogram("lat").record(300);
  Snapshot after = reg.snapshot();

  Snapshot d = after.delta_since(before);
  EXPECT_EQ(d.counters.at("events"), 5u);
  EXPECT_EQ(d.gauges.at("level"), -2);  // gauges report the later level
  EXPECT_EQ(d.histograms.at("lat").count, 2u);
  EXPECT_EQ(d.histograms.at("lat").sum, 500u);
}

// --- kernel binding ----------------------------------------------------------

class ObsKernelTest : public ::testing::Test {
 protected:
  ObsKernelTest() : topo_(topo::Topology::quad_opteron()) {}

  static kern::ThreadCtx ctx_on(kern::Pid pid, topo::CoreId core) {
    kern::ThreadCtx t;
    t.pid = pid;
    t.core = core;
    return t;
  }

  /// Fault-heavy workload: populate on node 0, mark migrate-on-next-touch,
  /// touch everything from node 1. Returns the toucher's final clock.
  static sim::Time workload(kern::Kernel& k) {
    const kern::Pid pid = k.create_process("obs");
    kern::ThreadCtx t0 = ctx_on(pid, 0);
    const std::uint64_t len = 64 * mem::kPageSize;
    const vm::Vaddr a = k.sys_mmap(t0, len, vm::Prot::kReadWrite, {}, "w");
    k.access(t0, a, len, vm::Prot::kWrite, 3500.0);
    kern::ThreadCtx t1 = ctx_on(pid, 4);
    t1.tid = 1;
    t1.clock = t0.clock;
    EXPECT_EQ(k.sys_madvise(t1, a, len, kern::Advice::kMigrateOnNextTouch), 0);
    k.access(t1, a, len, vm::Prot::kReadWrite, 3500.0);
    return t1.clock;
  }

  topo::Topology topo_;
};

TEST_F(ObsKernelTest, RegistryDeltaMatchesKernelStats) {
  // Declared before the kernel: an attached registry must outlive it (the
  // kernel's destructor retires its bound counters into the registry).
  Registry reg;
  kern::Kernel k(kern::KernelConfig{.topology = topo_, .backing = mem::Backing::kPhantom});
  k.set_metrics(&reg);
  const kern::KernelStats s0 = k.stats();
  const Snapshot snap0 = reg.snapshot();

  workload(k);

  const kern::KernelStats s1 = k.stats();
  const Snapshot d = reg.snapshot().delta_since(snap0);
  EXPECT_GT(s1.minor_faults, s0.minor_faults);
  EXPECT_GT(s1.pages_migrated_nexttouch, s0.pages_migrated_nexttouch);
  EXPECT_EQ(d.counters.at("kern.minor_faults"), s1.minor_faults - s0.minor_faults);
  EXPECT_EQ(d.counters.at("kern.nexttouch_faults"),
            s1.nexttouch_faults - s0.nexttouch_faults);
  EXPECT_EQ(d.counters.at("kern.pages_migrated_nexttouch"),
            s1.pages_migrated_nexttouch - s0.pages_migrated_nexttouch);
  EXPECT_EQ(d.counters.at("kern.tlb_shootdowns"),
            s1.tlb_shootdowns - s0.tlb_shootdowns);

  // The latency histograms saw the same traffic.
  EXPECT_GT(d.histograms.at("kern.fault_service_ns").count, 0u);
  EXPECT_EQ(d.histograms.at("kern.migrate_page_ns").count,
            s1.pages_migrated_nexttouch - s0.pages_migrated_nexttouch);

  // Per-node memory gauges reflect live placement.
  std::int64_t used = 0;
  for (topo::NodeId n = 0; n < topo_.num_nodes(); ++n)
    used += reg.snapshot().gauges.at("mem.used_frames.node" + std::to_string(n));
  EXPECT_EQ(static_cast<std::uint64_t>(used), k.phys().total_used_frames());
}

TEST_F(ObsKernelTest, RegistryNamesArePinned) {
  // Benches, bench/suite and the goldens read these names by string: a
  // rename is an interface change, not a refactor.
  const std::vector<std::string> counters = {
      "kern.alloc_stalls",
      "kern.kmigrated.batches",
      "kern.kmigrated.batches_dropped",
      "kern.kmigrated.dropped",
      "kern.kmigrated.pages",
      "kern.kmigrated.pages_failed",
      "kern.migrate.txn.aborted",
      "kern.migrate.txn.commits",
      "kern.migrate.txn.degraded",
      "kern.migrate.txn.dirty_retries",
      "kern.migration_retries",
      "kern.migrations_failed",
      "kern.minor_faults",
      "kern.nexttouch_degraded",
      "kern.nexttouch_faults",
      "kern.numab.hint_faults",
      "kern.numab.hint_faults_local",
      "kern.numab.pages_promoted",
      "kern.numab.pages_scanned",
      "kern.numab.promotions_deferred",
      "kern.numab.scans",
      "kern.numab.task_migrations",
      "kern.numab.task_swaps",
      "kern.pages_migrated_move",
      "kern.pages_migrated_nexttouch",
      "kern.pages_migrated_process",
      "kern.protection_faults",
      "kern.replica_collapses",
      "kern.replica_pages",
      "kern.shootdown_retries",
      "kern.signals_delayed",
      "kern.signals_delivered",
      "kern.stlb.hits",
      "kern.stlb.invalidations",
      "kern.stlb.misses",
      "kern.tier.demote_passes",
      "kern.tier.demotions",
      "kern.tier.promotions",
      "kern.tlb_shootdowns",
  };
  const std::vector<std::string> histograms = {
      "kern.fault_service_ns",    "kern.kmigrated.batch_latency_ns",
      "kern.lock_wait_ns",        "kern.migrate.txn.retries",
      "kern.migrate_page_ns",     "kern.numab.scan_pages",
      "kern.shootdown_rounds",
  };
  Registry reg;
  kern::Kernel k(kern::KernelConfig{.topology = topo_, .backing = mem::Backing::kPhantom});
  k.set_metrics(&reg);
  const Snapshot s = reg.snapshot();
  std::vector<std::string> got_counters;
  for (const auto& [name, v] : s.counters)
    if (name.starts_with("kern.")) got_counters.push_back(name);
  std::vector<std::string> got_histograms;
  for (const auto& [name, h] : s.histograms) got_histograms.push_back(name);
  EXPECT_EQ(got_counters, counters);
  EXPECT_EQ(got_histograms, histograms);
}

TEST_F(ObsKernelTest, RegistryAccumulatesAcrossKernelGenerations) {
  Registry reg;
  std::uint64_t total_faults = 0;
  for (int gen = 0; gen < 3; ++gen) {
    kern::Kernel k(kern::KernelConfig{.topology = topo_, .backing = mem::Backing::kPhantom});
    k.set_metrics(&reg);
    workload(k);
    total_faults += k.stats().minor_faults;
  }  // ~Kernel retires the bound counters into the registry
  EXPECT_EQ(reg.snapshot().counters.at("kern.minor_faults"), total_faults);
}

// --- zero cost / zero randomness without sinks -------------------------------

void expect_stats_eq(const kern::KernelStats& a, const kern::KernelStats& b) {
#define NUMASIM_EXPECT_COUNTER_EQ(field, name) EXPECT_EQ(a.field, b.field) << name;
  NUMASIM_KERNEL_COUNTERS(NUMASIM_EXPECT_COUNTER_EQ)
#undef NUMASIM_EXPECT_COUNTER_EQ
}

TEST_F(ObsKernelTest, SinksDrawNoSimulatedCostOrRandomness) {
  // A probabilistic fault plan makes any extra RNG draw visible as a
  // diverging schedule; instrumentation must not perturb it.
  kern::FaultPlan plan;
  plan.copy_transient_p = 0.05;
  plan.shootdown_drop_p = 0.05;

  // Baseline: no observability at all.
  kern::Kernel bare(kern::KernelConfig{.topology = topo_, .backing = mem::Backing::kPhantom});
  kern::FaultInjector inj_bare(plan, /*seed=*/42);
  bare.set_fault_injector(&inj_bare);
  const sim::Time t_bare = workload(bare);

  // Full instrumentation: metrics + trace writer + a null sink. Registry and
  // sinks are declared before the kernel so they outlive it.
  Registry reg;
  ChromeTraceWriter writer;
  NullSink null;
  kern::Kernel traced(kern::KernelConfig{.topology = topo_, .backing = mem::Backing::kPhantom});
  kern::FaultInjector inj_traced(plan, /*seed=*/42);
  traced.set_fault_injector(&inj_traced);
  traced.set_metrics(&reg);
  traced.add_trace_sink(&writer);
  traced.add_trace_sink(&null);
  const sim::Time t_traced = workload(traced);
  EXPECT_GT(writer.size(), 0u);

  // Sink attached then removed before the workload: identical to bare.
  kern::Kernel removed(kern::KernelConfig{.topology = topo_, .backing = mem::Backing::kPhantom});
  kern::FaultInjector inj_removed(plan, /*seed=*/42);
  removed.set_fault_injector(&inj_removed);
  NullSink transient;
  removed.add_trace_sink(&transient);
  removed.remove_trace_sink(&transient);
  EXPECT_FALSE(removed.tracing());
  const sim::Time t_removed = workload(removed);

  EXPECT_EQ(t_bare, t_traced);
  EXPECT_EQ(t_bare, t_removed);
  expect_stats_eq(bare.stats(), traced.stats());
  expect_stats_eq(bare.stats(), removed.stats());
}

// --- Chrome trace JSON -------------------------------------------------------

/// Minimal recursive-descent JSON syntax validator (objects, arrays, strings
/// with escapes, numbers, literals). Returns true iff `s` is one valid JSON
/// value with nothing trailing.
class JsonValidator {
 public:
  explicit JsonValidator(std::string_view s) : s_(s) {}
  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() ||
                std::isxdigit(static_cast<unsigned char>(s_[pos_])) == 0)
              return false;
          }
        } else if (e != '"' && e != '\\' && e != '/' && e != 'b' && e != 'f' &&
                   e != 'n' && e != 'r' && e != 't') {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    }
    return pos_ > start;
  }
  bool literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0)
      ++pos_;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

TEST(ChromeTrace, EmitsWellFormedJson) {
  ChromeTraceWriter w;
  TraceEvent span;
  span.kind = TraceEvent::Kind::kSpan;
  span.ts = 1500;
  span.dur = 250;
  span.pid = 1;
  span.tid = 2;
  span.cat = "kern";
  span.name = "migrate-page";
  span.add_arg("vpn", 0x42).add_arg("from", -1);
  w.record(span);

  TraceEvent inst;
  inst.kind = TraceEvent::Kind::kInstant;
  inst.ts = 1234567;
  inst.name = "minor-fault";
  w.record(inst);

  const std::string json = w.to_json();
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ns\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // span
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // instant
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);   // instant scope
  // Timestamps are microseconds with the nanosecond fraction preserved.
  EXPECT_NE(json.find("\"ts\":1.500"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1234.567"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":0.250"), std::string::npos);
  EXPECT_NE(json.find("\"from\":-1"), std::string::npos);
}

TEST(ChromeTrace, EscapesHostileStrings) {
  ChromeTraceWriter w;
  TraceEvent e;
  e.name = "a\"b\\c\nd\te\x01" "f";  // concat keeps the hex escape one byte
  e.cat = "we\"ird";
  w.record(e);
  const std::string json = w.to_json();
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("a\\\"b\\\\c\\nd\\te\\u0001f"), std::string::npos);
}

TEST(ChromeTrace, CapacityBoundsBufferAndCountsDrops) {
  ChromeTraceWriter w(/*capacity=*/2);
  TraceEvent e;
  e.name = "x";
  w.record(e);
  w.record(e);
  w.record(e);
  EXPECT_EQ(w.size(), 2u);
  EXPECT_EQ(w.dropped(), 1u);
  EXPECT_TRUE(JsonValidator(w.to_json()).valid());
  w.clear();
  EXPECT_EQ(w.size(), 0u);
  EXPECT_EQ(w.dropped(), 0u);
}

TEST(ChromeTrace, WriteFileRoundTrips) {
  ChromeTraceWriter w;
  TraceEvent e;
  e.name = "ev";
  e.ts = 42;
  w.record(e);
  const std::string path = ::testing::TempDir() + "numasim_trace_test.json";
  ASSERT_TRUE(w.write_file(path));
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), w.to_json());
  EXPECT_TRUE(JsonValidator(buf.str()).valid());
  std::remove(path.c_str());
}

TEST_F(ObsKernelTest, KernelTraceHasPerThreadFaultAndMigrationSlices) {
  ChromeTraceWriter w;
  kern::Kernel k(kern::KernelConfig{.topology = topo_, .backing = mem::Backing::kPhantom});
  k.add_trace_sink(&w);
  workload(k);
  ASSERT_GT(w.size(), 0u);
  const std::string json = w.to_json();
  EXPECT_TRUE(JsonValidator(json).valid());
  EXPECT_NE(json.find("\"name\":\"fault\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"migrate-page\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"sys_madvise\""), std::string::npos);
  // Owner (tid 0) and toucher (tid 1) land on distinct timeline rows.
  EXPECT_NE(json.find("\"tid\":0"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":1"), std::string::npos);
}

// --- EventLog as a TraceSink -------------------------------------------------

TEST(EventLogSink, AdaptsInstantsAndIgnoresSpans) {
  kern::EventLog log;
  obs::TraceSink& sink = log;

  TraceEvent inst;
  inst.ts = 10;
  inst.tid = 3;
  inst.name = "minor-fault";
  inst.add_arg("vpn", 7).add_arg("pages", 1).add_arg("from", -1).add_arg("to", 2);
  sink.record(inst);

  TraceEvent span = inst;
  span.kind = TraceEvent::Kind::kSpan;
  span.dur = 100;
  sink.record(span);  // spans are not part of the legacy instant stream

  TraceEvent unknown;
  unknown.name = "not-an-event-type";
  sink.record(unknown);

  ASSERT_EQ(log.events().size(), 1u);
  EXPECT_EQ(log.count(kern::EventType::kMinorFault), 1u);
  EXPECT_EQ(log.events().front().vpn, 7u);
  EXPECT_EQ(log.events().front().to, 2u);
  EXPECT_EQ(log.events().front().from, topo::kInvalidNode);
}

// --- periodic reporter -------------------------------------------------------

TEST(PeriodicReporter, EmitsOnIntervalAndCatchesUpOnce) {
  Registry reg;
  reg.counter("ticks");
  std::vector<std::string> reports;
  PeriodicReporter::Output out = [&](const std::string& s) {
    reports.push_back(s);
  };
  PeriodicReporter rep(reg, /*interval=*/1000, out);

  EXPECT_EQ(rep.poll(0), 0);  // first poll arms, no report
  reg.counter("ticks").inc(3);
  EXPECT_EQ(rep.poll(999), 0);
  EXPECT_EQ(rep.poll(1000), 1);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_NE(reports[0].find("numastat @1000ns"), std::string::npos);
  EXPECT_NE(reports[0].find("ticks = 3"), std::string::npos);

  // A long idle gap yields one catch-up report, not a flood.
  reg.counter("ticks").inc(1);
  EXPECT_EQ(rep.poll(10'000), 1);
  EXPECT_EQ(reports.size(), 2u);
  EXPECT_NE(reports[1].find("ticks = 1"), std::string::npos);

  rep.final_report(10'500);
  EXPECT_EQ(reports.size(), 3u);
  EXPECT_EQ(rep.reports(), 3u);
}

TEST(PeriodicReporter, DrivenBySinkEvents) {
  Registry reg;
  std::vector<std::string> reports;
  PeriodicReporter::Output out = [&](const std::string& s) {
    reports.push_back(s);
  };
  PeriodicReporter rep(reg, /*interval=*/100, out);
  TraceSink& sink = rep;
  TraceEvent e;
  e.ts = 0;
  sink.record(e);  // arms
  e.ts = 250;
  sink.record(e);  // one interval elapsed
  EXPECT_EQ(reports.size(), 1u);
}

// --- SyscallResult -----------------------------------------------------------

TEST(SyscallResult, WrapsTheLinuxReturnConvention) {
  const kern::SyscallResult ok0;
  EXPECT_TRUE(ok0.ok());
  EXPECT_EQ(ok0.error(), 0);
  EXPECT_EQ(ok0.count(), 0);
  EXPECT_EQ(ok0, 0);

  const kern::SyscallResult moved = 32;
  EXPECT_TRUE(moved.ok());
  EXPECT_EQ(moved.count(), 32);
  EXPECT_EQ(static_cast<long>(moved), 32);

  const kern::SyscallResult bad = -kern::kEINVAL;
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error(), kern::kEINVAL);
  EXPECT_EQ(bad.count(), 0);
  EXPECT_EQ(bad, -kern::kEINVAL);
}

}  // namespace
}  // namespace numasim::obs

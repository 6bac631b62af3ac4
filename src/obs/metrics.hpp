// Metrics registry: named counters, gauges and log2-bucketed histograms with
// cheap snapshot/delta semantics.
//
// This is the accounting layer behind the paper's evaluation: benchmarks and
// tests snapshot the registry at phase boundaries and query deltas instead of
// keeping bespoke before/after counter pairs. The kernel binds its
// `KernelStats` fields into an attached registry (zero-overhead: bound
// counters read through a pointer at snapshot time, the hot path still bumps
// the plain struct field) and feeds latency histograms for fault service,
// per-page migration cost, lock waits and shootdown rounds.
//
// Ownership model:
//   * `counter()/gauge()/histogram()` create-or-return *owned* metrics with
//     stable references (node-based storage; safe to cache the pointer).
//   * `bind_counter()/bind_gauge()` register *external* storage; the source
//     must outlive the binding. `retire(prefix)` folds the current values of
//     bound counters into owned counters of the same name and drops the
//     bindings — the kernel calls it on detach/destruction so a registry can
//     outlive many short-lived kernels and keep accumulating.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>

#include "sim/time.hpp"

namespace numasim::obs {

/// Monotonic event count.
class Counter {
 public:
  void inc(std::uint64_t d = 1) { v_ += d; }
  std::uint64_t value() const { return v_; }
  void reset() { v_ = 0; }

 private:
  std::uint64_t v_ = 0;
};

/// Point-in-time level (can go down).
class Gauge {
 public:
  void set(std::int64_t v) { v_ = v; }
  void add(std::int64_t d) { v_ += d; }
  std::int64_t value() const { return v_; }

 private:
  std::int64_t v_ = 0;
};

/// Bucket count of a log2 histogram: bucket b holds values whose bit width
/// is b, i.e. bucket 0 = {0}, bucket 1 = {1}, bucket 2 = [2,4), bucket 3 =
/// [4,8), ..., bucket 64 = [2^63, 2^64).
inline constexpr std::size_t kHistBuckets = 65;

/// Log2-bucketed distribution of unsigned samples (latencies in ns, counts).
class Histogram {
 public:
  static constexpr std::size_t bucket_of(std::uint64_t v) {
    std::size_t b = 0;
    while (v != 0) {
      ++b;
      v >>= 1;
    }
    return b;
  }
  /// Smallest value landing in bucket `b`.
  static constexpr std::uint64_t bucket_lo(std::size_t b) {
    return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
  }
  /// Largest value landing in bucket `b` (inclusive).
  static constexpr std::uint64_t bucket_hi(std::size_t b) {
    if (b == 0) return 0;
    if (b >= 64) return ~std::uint64_t{0};
    return (std::uint64_t{1} << b) - 1;
  }

  /// Record `times` (at least one) samples of value `v`.
  void record(std::uint64_t v, std::uint64_t times = 1) {
    buckets_[bucket_of(v)] += times;
    count_ += times;
    sum_ += v * times;
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  std::uint64_t max() const { return max_; }
  std::uint64_t bucket(std::size_t b) const { return buckets_[b]; }
  double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  /// Upper bound of the bucket containing the q-quantile (q in [0, 1]).
  /// Coarse by construction (log2 buckets) but monotone and cheap.
  std::uint64_t quantile(double q) const;

  /// Interpolated percentile (p in [0, 100]): rank-based (ceil(p% * count),
  /// nearest-rank) with linear interpolation across the rank's position
  /// inside its log2 bucket, clamped to [min, max] so a single-bucket
  /// distribution still reports within the observed range. Monotone in p;
  /// percentile(100) == max. Finer than quantile() whenever a bucket holds
  /// samples of mixed magnitude — the resolution latency benches need.
  double percentile(double p) const;

  void reset() {
    buckets_.fill(0);
    count_ = sum_ = max_ = 0;
    min_ = ~std::uint64_t{0};
  }

 private:
  std::array<std::uint64_t, kHistBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = ~std::uint64_t{0};
  std::uint64_t max_ = 0;
};

/// Frozen histogram state inside a Snapshot.
struct HistogramSnap {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  std::array<std::uint64_t, kHistBuckets> buckets{};
  double mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
  }
  std::uint64_t quantile(double q) const;
  /// Interpolated percentile; see Histogram::percentile.
  double percentile(double p) const;
};

/// Point-in-time copy of every metric in a registry. Cheap value type;
/// subtract two snapshots to get per-phase deltas.
struct Snapshot {
  sim::Time when = 0;  ///< caller-stamped simulated instant (optional)
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnap> histograms;

  /// Per-phase delta: counters and histogram counts/sums/buckets subtract
  /// (saturating at 0); gauges and histogram min/max keep the later value.
  Snapshot delta_since(const Snapshot& earlier) const;

  /// Human-readable table (zero counters elided).
  std::string render() const;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Create-or-return an owned metric. References stay valid for the
  /// registry's lifetime.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Register external counter storage (read at snapshot time). The source
  /// must stay valid until `retire()` with a covering prefix is called.
  void bind_counter(std::string_view name, const std::uint64_t* source);
  /// Register a computed gauge (evaluated at snapshot time).
  void bind_gauge(std::string_view name, std::function<std::int64_t()> fn);

  /// Fold bound counters whose name starts with `prefix` into owned counters
  /// of the same name and drop the bindings; drop matching bound gauges.
  /// After this no snapshot dereferences the retired sources.
  void retire(std::string_view prefix);

  Snapshot snapshot() const;
  std::string render() const { return snapshot().render(); }

 private:
  // Node-based maps: stable references across inserts.
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
  std::map<std::string, const std::uint64_t*, std::less<>> bound_counters_;
  std::map<std::string, std::function<std::int64_t()>, std::less<>> bound_gauges_;
};

}  // namespace numasim::obs

// Host-time spans for the benchmark's traced rep.
//
// The benchmark records a span around every call it makes into a layer of
// the simulator (machine construction, app set-up, the engine run, each
// round or phase of a workload). Calls too hot for a span each — traffic
// generation, direct kernel entry points, placement queries — are kept as
// a count and a total on the enclosing span. Spans stay in memory and are
// written out once, as Chrome trace-event JSON, when the run ends.
//
// Untraced reps pass a null HostTrace*: every helper below then reduces to
// one pointer test, so the end-to-end timings carry no tracing cost.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace numasim::suite {

using Clock = std::chrono::steady_clock;

inline std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Hot per-call boundaries aggregated on their enclosing span.
enum class Call : std::uint8_t {
  kTrafficNext,  ///< apps::ClientTraffic::next
  kMovePages,    ///< Kernel::move_pages_enter / move_pages_chunk
  kMadvise,      ///< Kernel::sys_madvise
  kAccess,       ///< Kernel::access
  kPlacement,    ///< Kernel::pages_on_node / KvStore::shard_pages_on
  kCount
};
inline constexpr std::size_t kCallCount = static_cast<std::size_t>(Call::kCount);

const char* call_name(Call c);

class HostTrace {
 public:
  using SpanId = std::size_t;
  static constexpr SpanId kNone = ~SpanId{0};

  struct CallStat {
    std::uint64_t count = 0;
    std::uint64_t ns = 0;
  };
  struct Span {
    std::string name;
    SpanId parent = kNone;
    std::uint64_t begin_ns = 0;  ///< since the trace's origin
    std::uint64_t end_ns = 0;
    std::array<CallStat, kCallCount> calls{};
  };

  HostTrace() : origin_(Clock::now()) {}

  SpanId begin(std::string name, SpanId parent);
  void end(SpanId id);
  void add_call(SpanId id, Call c, std::uint64_t ns) {
    spans_[id].calls[static_cast<std::size_t>(c)].count += 1;
    spans_[id].calls[static_cast<std::size_t>(c)].ns += ns;
  }

  const std::vector<Span>& spans() const { return spans_; }
  /// Duration of span `id` in ns.
  std::uint64_t dur_ns(SpanId id) const {
    return spans_[id].end_ns - spans_[id].begin_ns;
  }
  /// Calls of kind `c` summed over span `id` and all its descendants.
  CallStat calls_under(SpanId id, Call c) const;
  /// Self time (span minus child spans minus aggregated calls) summed per
  /// span name, in ms.
  std::map<std::string, double> self_ms_by_name() const;

  /// Chrome trace-event JSON ("JSON Object Format"); false on I/O failure.
  bool write_chrome(const std::string& path) const;

 private:
  std::uint64_t now_ns() const { return ns_between(origin_, Clock::now()); }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span; no-op on a null trace.
class SpanScope {
 public:
  SpanScope(HostTrace* tr, std::string name, HostTrace::SpanId parent)
      : tr_(tr), id_(tr != nullptr ? tr->begin(std::move(name), parent)
                                   : HostTrace::kNone) {}
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() {
    if (tr_ != nullptr) tr_->end(id_);
  }
  HostTrace::SpanId id() const { return id_; }

 private:
  HostTrace* tr_;
  HostTrace::SpanId id_;
};

/// RAII timer of one hot call, folded into span `span`; no-op on a null
/// trace (the clock is not even read).
class CallTimer {
 public:
  CallTimer(HostTrace* tr, HostTrace::SpanId span, Call c)
      : tr_(tr), span_(span), call_(c) {
    if (tr_ != nullptr) t0_ = Clock::now();
  }
  CallTimer(const CallTimer&) = delete;
  CallTimer& operator=(const CallTimer&) = delete;
  ~CallTimer() {
    if (tr_ != nullptr) tr_->add_call(span_, call_, ns_between(t0_, Clock::now()));
  }

 private:
  HostTrace* tr_;
  HostTrace::SpanId span_;
  Call call_;
  Clock::time_point t0_{};
};

}  // namespace numasim::suite

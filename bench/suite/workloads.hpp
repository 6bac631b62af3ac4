// The benchmark's four workloads, each run as a sequence of independent reps.
//
// A rep builds fresh machines, does its set-up (timed as setup_s), runs the
// timed region (host_s), then audits the result outside both timings. Every
// simulated output of a rep is folded into an FNV checksum so main() can
// prove reps (and the traced rep) simulated exactly the same thing.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "host_trace.hpp"
#include "sim/time.hpp"

namespace numasim::suite {

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RepResult {
  double setup_s = 0.0;  ///< host seconds from rep start to the timed region
  double host_s = 0.0;   ///< host seconds of the timed region
  sim::Time makespan_ns = 0;
  /// Simulated latency of every operation of the workload (see Workload::op).
  std::vector<sim::Time> op_ns;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t checksum = 0;
  std::vector<std::string> check_failures;
  std::map<std::string, Metric> layer;  ///< per-layer metrics of this rep
};

struct Workload {
  const char* name;
  const char* op;  ///< what one op_ns sample measures
  RepResult (*run_rep)(std::uint64_t seed, HostTrace* trace,
                       HostTrace::SpanId parent);
};

const std::vector<Workload>& workloads();

/// FNV-1a over the 8 bytes of `v`.
std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v);
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

}  // namespace numasim::suite

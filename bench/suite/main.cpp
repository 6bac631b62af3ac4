// numasim_bench: run one benchmark workload and print one JSON object of
// end-to-end metrics, check results and (with --trace) per-layer metrics.
//
//   numasim_bench --workload=NAME [--seed=S] [--reps=N] [--seconds=T]
//                 [--trace=FILE]
//
// Reps run back to back on one host thread: at least N, then more for as
// long as one more rep, taking as long as the last, still ends within T host
// seconds. Host metrics are the fastest rep's: on a shared host, interference
// only ever adds time, and it comes in spells of seconds to minutes that move
// a median over the reps by up to 2x but rarely cover every rep of a run.
// Simulated metrics must repeat bit-for-bit across reps, and between the
// untraced reps and the traced one (--trace adds one rep with host-time
// spans and the metrics registry attached, and writes its spans to FILE as
// Chrome trace-event JSON). run.py is the command that drives this binary.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "host_trace.hpp"
#include "workloads.hpp"

using namespace numasim;
using namespace numasim::suite;

namespace {

[[noreturn]] void usage(const char* prog, const char* why) {
  if (why != nullptr) std::fprintf(stderr, "%s: %s\n", prog, why);
  std::fprintf(stderr,
               "usage: %s --workload=NAME [--seed=S] [--reps=N] [--seconds=T]\n"
               "          [--trace=FILE]\n"
               "  workloads:",
               prog);
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

bool flag_value(const char* arg, const char* flag, const char*& out) {
  const std::size_t n = std::strlen(flag);
  if (std::strncmp(arg, flag, n) != 0 || arg[n] != '=') return false;
  out = arg + n + 1;
  return true;
}

std::uint64_t parse_u64(const char* prog, const char* flag, const char* v) {
  char* end = nullptr;
  const unsigned long long x = std::strtoull(v, &end, 10);
  if (*v == '\0' || *end != '\0' || *v == '-') {
    std::fprintf(stderr, "%s: bad %s '%s'\n", prog, flag, v);
    usage(prog, nullptr);
  }
  return x;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Exact nearest-rank percentile of `sorted` (ascending, non-empty).
sim::Time percentile(const std::vector<sim::Time>& sorted, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Simulated end-to-end metrics of one rep (identical across reps).
struct SimMetrics {
  double makespan_ms = 0, p50_us = 0, p99_us = 0, p9999_us = 0;
};

SimMetrics sim_metrics(const RepResult& r) {
  SimMetrics s;
  s.makespan_ms = static_cast<double>(r.makespan_ns) / 1e6;
  if (r.op_ns.empty()) return s;
  std::vector<sim::Time> sorted = r.op_ns;
  std::sort(sorted.begin(), sorted.end());
  s.p50_us = static_cast<double>(percentile(sorted, 50.0)) / 1e3;
  s.p99_us = static_cast<double>(percentile(sorted, 99.0)) / 1e3;
  s.p9999_us = static_cast<double>(percentile(sorted, 99.99)) / 1e3;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const char* prog = argv[0];
  const Workload* wl = nullptr;
  std::uint64_t seed = 1, min_reps = 5, seconds = 0;
  std::string trace_file;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (flag_value(argv[i], "--workload", v)) {
      for (const Workload& w : workloads())
        if (std::strcmp(w.name, v) == 0) wl = &w;
      if (wl == nullptr) usage(prog, "unknown workload");
    } else if (flag_value(argv[i], "--seed", v)) {
      seed = parse_u64(prog, "--seed", v);
    } else if (flag_value(argv[i], "--reps", v)) {
      min_reps = parse_u64(prog, "--reps", v);
      if (min_reps == 0) usage(prog, "--reps must be at least 1");
    } else if (flag_value(argv[i], "--seconds", v)) {
      seconds = parse_u64(prog, "--seconds", v);
      if (seconds > 86'400) usage(prog, "--seconds must be at most 86400");
    } else if (flag_value(argv[i], "--trace", v)) {
      trace_file = v;
      if (trace_file.empty()) usage(prog, "--trace needs a file");
    } else {
      usage(prog, (std::string("unknown option ") + argv[i]).c_str());
    }
  }
  if (wl == nullptr) usage(prog, "--workload is required");

  std::vector<RepResult> reps;
  std::vector<std::string> checks;
  try {
    const Clock::time_point start = Clock::now();
    const std::uint64_t budget_ns = seconds * 1'000'000'000ull;
    std::uint64_t last_rep_ns = 0;
    for (;;) {
      const std::uint64_t elapsed_ns = ns_between(start, Clock::now());
      if (reps.size() >= min_reps && elapsed_ns + last_rep_ns > budget_ns) break;
      reps.push_back(wl->run_rep(seed, nullptr, HostTrace::kNone));
      last_rep_ns = ns_between(start, Clock::now()) - elapsed_ns;
      // Later reps are compared through their checksum; keeping their
      // latency samples would make peak RSS grow with the rep count.
      if (reps.size() > 1) reps.back().op_ns = std::vector<sim::Time>();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s: %s\n", prog, wl->name, e.what());
    return 1;
  }
  const double rss_mb = peak_rss_mb();

  HostTrace trace;
  RepResult traced;
  if (!trace_file.empty()) {
    try {
      const HostTrace::SpanId root =
          trace.begin(std::string("workload.") + wl->name, HostTrace::kNone);
      traced = wl->run_rep(seed, &trace, root);
      trace.end(root);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s (traced): %s\n", prog, wl->name, e.what());
      return 1;
    }
    if (!trace.write_chrome(trace_file))
      checks.push_back("cannot write trace file " + trace_file);
  }

  // Checks: every rep's own audits, then bit-identical simulated outputs.
  const RepResult& first = reps.front();
  for (std::size_t i = 0; i < reps.size(); ++i) {
    for (const std::string& c : reps[i].check_failures)
      checks.push_back("rep " + std::to_string(i) + ": " + c);
    if (reps[i].checksum != first.checksum)
      checks.push_back("rep " + std::to_string(i) + ": simulated outputs differ from rep 0");
  }
  if (!trace_file.empty()) {
    for (const std::string& c : traced.check_failures) checks.push_back("traced rep: " + c);
    if (traced.checksum != first.checksum)
      checks.push_back("traced rep: simulated outputs differ from the untraced reps");
  }
  if (first.op_ns.empty()) checks.push_back("no operations recorded");

  std::vector<double> host_s, setup_s;
  for (const RepResult& r : reps) {
    host_s.push_back(r.host_s);
    setup_s.push_back(r.setup_s);
  }
  const SimMetrics sm = sim_metrics(first);

  std::string out = "{";
  auto field = [&](const std::string& k, const std::string& v) {
    if (out.size() > 1) out += ",";
    out += json_string(k) + ":" + v;
  };
  auto metric = [&](std::string& dst, const std::string& name, double v,
                    const std::string& unit, const std::vector<double>* per_rep) {
    if (dst.size() > 1) dst += ",";
    dst += json_string(name) + ":{\"value\":" + json_number(v) +
           ",\"unit\":" + json_string(unit);
    if (per_rep != nullptr) {
      dst += ",\"reps\":[";
      for (std::size_t i = 0; i < per_rep->size(); ++i) {
        if (i != 0) dst += ",";
        dst += json_number((*per_rep)[i]);
      }
      dst += "]";
    }
    dst += "}";
  };

  field("workload", json_string(wl->name));
  field("seed", std::to_string(seed));
  field("reps", std::to_string(reps.size()));
  field("correct", checks.empty() ? "true" : "false");
  std::string check_list = "[";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    if (i != 0) check_list += ",";
    check_list += json_string(checks[i]);
  }
  field("checks", check_list + "]");
  field("attempted", std::to_string(first.attempted));
  field("failed", std::to_string(first.failed));
  char ck[24];
  std::snprintf(ck, sizeof ck, "%016" PRIx64, first.checksum);
  field("checksum", json_string(ck));
  field("op", json_string(wl->op));
  field("op_samples", std::to_string(first.op_ns.size()));

  std::string m = "{";
  metric(m, "host_s", *std::min_element(host_s.begin(), host_s.end()), "s", &host_s);
  metric(m, "setup_s", *std::min_element(setup_s.begin(), setup_s.end()), "s", &setup_s);
  metric(m, "peak_rss_mb", rss_mb, "MB", nullptr);
  metric(m, "sim_makespan_ms", sm.makespan_ms, "sim_ms", nullptr);
  metric(m, "sim_p50_us", sm.p50_us, "sim_us", nullptr);
  metric(m, "sim_p99_us", sm.p99_us, "sim_us", nullptr);
  metric(m, "sim_p9999_us", sm.p9999_us, "sim_us", nullptr);
  field("metrics", m + "}");

  if (!trace_file.empty()) {
    std::string l = "{";
    for (const auto& [name, v] : traced.layer) metric(l, name, v.value, v.unit, nullptr);
    metric(l, "obs.trace_overhead_pct",
           100.0 * (traced.host_s / median(host_s) - 1.0), "%", nullptr);
    field("layer", l + "}");
    std::string s = "{";
    for (const auto& [name, ms] : trace.self_ms_by_name()) {
      if (s.size() > 1) s += ",";
      s += json_string(name) + ":" + json_number(ms);
    }
    field("layer_self_ms", s + "}");
  }
  std::printf("%s}\n", out.c_str());
  return 0;
}

// Textual topology specs: build custom NUMA machines for the "larger
// machine" experiments (paper Sec. 6: "running similar experiments on larger
// NUMA machines where data locality is more critical") and the tiered
// machines of the memory-tier work (docs/memory-tiers.md).
//
// All parse failures throw topo::SpecError carrying the offending key and
// raw token (see topology.hpp for the grammar).
#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "topo/topology.hpp"

namespace numasim::topo {

namespace {

[[noreturn]] void fail(const std::string& why, std::string key,
                       std::string token) {
  throw SpecError{"Topology::from_spec: " + why, std::move(key),
                  std::move(token)};
}

std::unordered_map<std::string, std::string> parse_kv(const std::string& spec) {
  std::unordered_map<std::string, std::string> kv;
  std::istringstream is(spec);
  std::string tok;
  while (is >> tok) {
    const auto eq = tok.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= tok.size())
      fail("bad token '" + tok + "'", "", tok);
    kv[tok.substr(0, eq)] = tok.substr(eq + 1);
  }
  return kv;
}

/// Exclusive upper bound of the values that convert to std::uint64_t.
constexpr double kU64Limit = 18446744073709551616.0;  // 2^64

/// Where a spec number must lie: finite, at least `lo` (above it when
/// `lo_open`), below `hi`, and whole when `integer`. `want` states the rule
/// in the error message.
struct Limits {
  const char* want;
  double lo = 0;
  bool lo_open = false;
  double hi = std::numeric_limits<double>::infinity();
  bool integer = false;
};
constexpr Limits kPositive{.want = "a number > 0", .lo_open = true};
// Converted to integer nanoseconds (sim::Time) or bytes (std::uint64_t).
constexpr Limits kPositiveNs{.want = "a number > 0 below 2^64", .lo_open = true,
                             .hi = kU64Limit};
constexpr Limits kNs{.want = "a number >= 0 below 2^64", .hi = kU64Limit};
constexpr Limits kMegabytes{.want = "a number >= 0 below 2^44",
                            .hi = kU64Limit / (1 << 20)};
constexpr Limits kGigabytes{.want = "a number >= 0 below 2^34",
                            .hi = kU64Limit / (1 << 30)};

/// The number under `key` within `lim`, or `fallback` when the key is absent.
double num(const std::unordered_map<std::string, std::string>& kv,
           const std::string& key, double fallback, const Limits& lim) {
  auto it = kv.find(key);
  if (it == kv.end()) return fallback;
  std::size_t pos = 0;
  double v = 0;
  try {
    v = std::stod(it->second, &pos);
  } catch (const std::exception&) {
    fail("bad number for " + key, key, it->second);
  }
  if (pos != it->second.size()) fail("bad number for " + key, key, it->second);
  const bool in_range = std::isfinite(v) &&
                        (lim.lo_open ? v > lim.lo : v >= lim.lo) && v < lim.hi &&
                        (!lim.integer || v == std::floor(v));
  if (!in_range) fail(key + " must be " + lim.want, key, it->second);
  return v;
}

/// Parse `tiers=fast:1,dram:2,far:1` into one tier per node, assigned to
/// node ids in listed order. The counts must sum to `nodes`.
std::vector<MemTier> parse_tiers(const std::string& value, unsigned nodes) {
  std::vector<MemTier> out;
  std::istringstream is(value);
  std::string part;
  while (std::getline(is, part, ',')) {
    const auto colon = part.find(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 >= part.size())
      fail("bad tiers clause '" + part + "' (want name:count)", "tiers", part);
    const std::string name = part.substr(0, colon);
    const std::string count_str = part.substr(colon + 1);
    MemTier tier;
    if (name == "fast") {
      tier = MemTier::kFast;
    } else if (name == "dram") {
      tier = MemTier::kDram;
    } else if (name == "far") {
      tier = MemTier::kFar;
    } else {
      fail("unknown tier '" + name + "' (fast|dram|far)", "tiers", part);
    }
    std::size_t pos = 0;
    unsigned long count = 0;
    try {
      count = std::stoul(count_str, &pos);
    } catch (const std::exception&) {
      fail("bad tier count in '" + part + "'", "tiers", part);
    }
    if (pos != count_str.size() || count == 0 || count > nodes - out.size())
      fail("bad tier count in '" + part + "'", "tiers", part);
    out.insert(out.end(), count, tier);
  }
  if (out.size() != nodes)
    fail("tier counts sum to " + std::to_string(out.size()) + ", nodes=" +
             std::to_string(nodes),
         "tiers", value);
  return out;
}

}  // namespace

Topology Topology::from_spec(const std::string& spec) {
  const auto kv = parse_kv(spec);
  for (const auto& [key, value] : kv) {
    static const char* known[] = {
        "nodes",   "cores",  "shape",   "link_bw", "hop_ns",  "dram_bw",
        "dram_ns", "l3_mb",  "mem_gb",  "ghz",     "flops_per_cycle",
        "tiers",   "fast_bw", "fast_ns", "fast_mb", "far_bw",  "far_wr_bw",
        "far_ns",  "far_mb"};
    bool ok = false;
    for (const char* k : known) ok = ok || key == k;
    if (!ok) fail("unknown key " + key, key, value);
  }

  // Topology::build takes 1..64 nodes, and every core id must fit a CoreId.
  const auto nodes = static_cast<unsigned>(num(
      kv, "nodes", 0,
      {.want = "an integer in 1..64", .lo = 1, .hi = 65, .integer = true}));
  const auto max_cores = static_cast<double>(
      std::numeric_limits<CoreId>::max() / std::max(nodes, 1u));
  const auto cores = static_cast<unsigned>(num(
      kv, "cores", 0,
      {.want = "an integer >= 1 (nodes x cores < 2^32)", .lo = 1,
       .hi = max_cores + 1, .integer = true}));
  if (nodes == 0 || cores == 0)
    fail("nodes= and cores= required", nodes == 0 ? "nodes" : "cores", "");

  CoreSpec core;
  core.clock_ghz = num(kv, "ghz", core.clock_ghz, kPositive);
  core.dp_flops_per_cycle =
      num(kv, "flops_per_cycle", core.dp_flops_per_cycle, kPositive);

  NodeSpec node;
  node.dram_bytes_per_us = num(kv, "dram_bw", node.dram_bytes_per_us, kPositive);
  node.dram_latency = static_cast<sim::Time>(
      num(kv, "dram_ns", static_cast<double>(node.dram_latency), kPositiveNs));
  node.l3_bytes = static_cast<std::uint64_t>(
      num(kv, "l3_mb", 2.0, kMegabytes) * (1 << 20));
  node.dram_capacity_bytes = static_cast<std::uint64_t>(
      num(kv, "mem_gb", 8.0, kGigabytes) * (1ull << 30));

  // Per-node specs: flat (all-kDram) unless a tiers= clause says otherwise.
  // Tier defaults derive from the dram numbers so a spec can scale the whole
  // machine with dram_bw/dram_ns and keep the tier ratios.
  std::vector<NodeSpec> node_specs(nodes, node);
  if (auto it = kv.find("tiers"); it != kv.end()) {
    NodeSpec fast = node;
    fast.tier = MemTier::kFast;
    fast.dram_bytes_per_us =
        num(kv, "fast_bw", node.dram_bytes_per_us * 3.0, kPositive);
    fast.dram_latency = static_cast<sim::Time>(num(
        kv, "fast_ns",
        static_cast<double>(std::max<sim::Time>(1, node.dram_latency / 2)),
        kPositiveNs));
    fast.dram_capacity_bytes = static_cast<std::uint64_t>(
        num(kv, "fast_mb", 64.0, kMegabytes) * (1ull << 20));

    NodeSpec far = node;
    far.tier = MemTier::kFar;
    far.dram_bytes_per_us =
        num(kv, "far_bw", node.dram_bytes_per_us / 2.0, kPositive);
    far.dram_write_bytes_per_us =
        num(kv, "far_wr_bw", far.dram_bytes_per_us / 2.0, kPositive);
    far.dram_latency = static_cast<sim::Time>(num(
        kv, "far_ns", static_cast<double>(node.dram_latency * 3), kPositiveNs));
    far.dram_capacity_bytes = static_cast<std::uint64_t>(
        num(kv, "far_mb", static_cast<double>(node.dram_capacity_bytes >> 20),
            kMegabytes) *
        (1ull << 20));

    const std::vector<MemTier> tiers = parse_tiers(it->second, nodes);
    for (unsigned n = 0; n < nodes; ++n) {
      switch (tiers[n]) {
        case MemTier::kFast: node_specs[n] = fast; break;
        case MemTier::kDram: break;  // already the dram proto
        case MemTier::kFar: node_specs[n] = far; break;
      }
    }
  } else {
    for (const char* k : {"fast_bw", "fast_ns", "fast_mb", "far_bw",
                          "far_wr_bw", "far_ns", "far_mb"})
      if (kv.count(k) != 0)
        fail(std::string{k} + " requires a tiers= clause", k, kv.at(k));
  }

  LinkSpec proto;
  proto.bytes_per_us = num(kv, "link_bw", proto.bytes_per_us, kPositive);
  proto.hop_latency = static_cast<sim::Time>(
      num(kv, "hop_ns", static_cast<double>(proto.hop_latency), kNs));

  std::string shape = "ring";
  if (auto it = kv.find("shape"); it != kv.end()) shape = it->second;

  std::vector<LinkSpec> links;
  auto link = [&](NodeId a, NodeId b) {
    LinkSpec l = proto;
    l.a = a;
    l.b = b;
    links.push_back(l);
  };

  if (shape == "ring") {
    for (NodeId n = 0; n < nodes; ++n)
      if (nodes > 1 && !(nodes == 2 && n == 1)) link(n, (n + 1) % nodes);
  } else if (shape == "line") {
    for (NodeId n = 0; n + 1 < nodes; ++n) link(n, n + 1);
  } else if (shape == "mesh") {
    for (NodeId a = 0; a < nodes; ++a)
      for (NodeId b = a + 1; b < nodes; ++b) link(a, b);
  } else if (shape == "star") {
    for (NodeId n = 1; n < nodes; ++n) link(0, n);
  } else {
    fail("unknown shape " + shape, "shape", shape);
  }

  return build(std::move(node_specs), cores, core, std::move(links));
}

}  // namespace numasim::topo

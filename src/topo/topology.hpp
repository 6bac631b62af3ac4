// NUMA machine description: nodes, cores, caches, interconnect links.
//
// Topology is pure data — the dynamic contention state (DRAM / link
// timelines) lives in rt::Machine. Link routes between every node pair are
// precomputed with BFS so the memory model can charge each hop.
//
// The default machine (`quad_opteron()`) is the paper's evaluation host:
// four quad-core Opteron 8347HE sockets, one memory node per socket,
// HyperTransport square interconnect (Fig. 3), NUMA factor 1.2-1.4.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace numasim::topo {

using NodeId = std::uint32_t;
using CoreId = std::uint32_t;
using LinkId = std::uint32_t;

inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// A set of NUMA nodes, as a bitmask (like Linux nodemask_t).
using NodeMask = std::uint64_t;

constexpr NodeMask node_mask_of(NodeId n) { return NodeMask{1} << n; }
constexpr bool mask_contains(NodeMask m, NodeId n) { return (m >> n) & 1; }

struct CoreSpec {
  double clock_ghz = 1.9;        // Opteron 8347HE
  double dp_flops_per_cycle = 4; // K10: 2 FMA-ish pipes x 2-wide SSE
  /// Sustained fraction of peak a tuned BLAS3 kernel reaches.
  double gemm_efficiency = 0.70;

  double peak_gflops() const { return clock_ghz * dp_flops_per_cycle; }
};

/// Memory tier of a node, ordered fastest-first so `tier_of(a) < tier_of(b)`
/// means "a is the faster medium". kDram is the classic symmetric node the
/// paper models; kFast is a small HBM/MCDRAM-like device; kFar is a
/// CXL/NVM-like device with asymmetric read/write bandwidth.
enum class MemTier : std::uint8_t {
  kFast = 0,  ///< HBM-like: high bandwidth, low latency, small capacity
  kDram = 1,  ///< plain DDR node (the default; all-kDram machines are "flat")
  kFar = 2,   ///< CXL/NVM-like: slow, write-asymmetric, large capacity
};

const char* mem_tier_name(MemTier t);

struct NodeSpec {
  /// Sustained local DRAM bandwidth (bytes per microsecond; 6400 = 6.4 GB/s).
  double dram_bytes_per_us = 6400.0;
  /// Local DRAM access latency.
  sim::Time dram_latency = 75;
  /// Installed memory per node (paper: 8 GB/node).
  std::uint64_t dram_capacity_bytes = 8ull << 30;
  /// Shared L3 per node (paper: 2 MB); used by the cache model.
  std::uint64_t l3_bytes = 2ull << 20;
  /// Memory tier of this node (see MemTier). Flat machines are all-kDram.
  MemTier tier = MemTier::kDram;
  /// Sustained *write* bandwidth (bytes/us). 0 means symmetric (writes run
  /// at dram_bytes_per_us); NVM-like tiers set this below the read rate and
  /// the hardware model stretches write streams by the ratio.
  double dram_write_bytes_per_us = 0;
};

/// Structured from_spec failure: carries the offending key and raw token so
/// callers (CLIs, tests) can point at the exact input instead of parsing a
/// message. Derives from std::invalid_argument, so pre-existing catch sites
/// keep working.
struct SpecError : std::invalid_argument {
  SpecError(const std::string& what, std::string key_arg,
            std::string token_arg)
      : std::invalid_argument(what),
        key(std::move(key_arg)),
        token(std::move(token_arg)) {}

  std::string key;    ///< spec key involved ("tiers", "nodes", ...; may be "")
  std::string token;  ///< offending raw token, if one was isolated
};

struct LinkSpec {
  NodeId a = 0;
  NodeId b = 0;
  /// Sustained HyperTransport bandwidth per direction (bytes/us).
  double bytes_per_us = 2200.0;
  /// Added latency per hop across this link.
  sim::Time hop_latency = 15;
};

class Topology {
 public:
  /// The paper's host: 4 nodes x 4 cores, square HT interconnect
  /// 0-1, 1-3, 3-2, 2-0 (diagonals are two hops).
  static Topology quad_opteron();

  /// Two nodes, two cores each, one link — smallest interesting machine.
  static Topology dual_node(unsigned cores_per_node = 2);

  /// Fully custom machine. Links are bidirectional; the graph must connect
  /// all nodes (throws std::invalid_argument otherwise).
  static Topology build(unsigned nodes, unsigned cores_per_node,
                        const CoreSpec& core, const NodeSpec& node,
                        std::vector<LinkSpec> links);

  /// Heterogeneous variant: one NodeSpec per node (tiers, asymmetric write
  /// bandwidth, per-node capacities). nodes.size() fixes the node count.
  static Topology build(std::vector<NodeSpec> nodes, unsigned cores_per_node,
                        const CoreSpec& core, std::vector<LinkSpec> links);

  /// Build from a compact textual spec, e.g.
  ///   "nodes=8 cores=2 shape=ring link_bw=2200 hop_ns=15 dram_bw=6400"
  /// Keys (all optional except nodes/cores): shape=ring|line|mesh|star,
  /// link_bw (bytes/us), hop_ns, dram_bw (bytes/us), dram_ns, l3_mb,
  /// mem_gb, ghz, flops_per_cycle.
  ///
  /// Memory tiers: `tiers=fast:1,dram:2,far:1` assigns tiers to node ids in
  /// listed order (here node 0 is kFast, nodes 1-2 kDram, node 3 kFar); the
  /// counts must sum to `nodes`. Omitting `tiers` keeps the machine flat
  /// (all kDram) and byte-identical to pre-tier behavior. Tier node specs
  /// derive from the dram values unless overridden with:
  ///   fast_bw, fast_ns, fast_mb   (default 3x dram_bw, dram_ns/2, 64 MB)
  ///   far_bw, far_ns, far_mb      (default dram_bw/2, 3x dram_ns, mem_gb)
  ///   far_wr_bw                   (write bandwidth; default far_bw/2)
  /// Capacities for fast/far are in MB — device tiers are small by design.
  ///
  /// Every number must be finite. nodes is an integer in 1..64 and cores an
  /// integer >= 1 (nodes x cores < 2^32); bandwidths, ghz, flops_per_cycle,
  /// dram_ns, fast_ns and far_ns are > 0; hop_ns and the sizes are >= 0.
  /// Throws topo::SpecError (derives std::invalid_argument) carrying the
  /// offending key and token.
  static Topology from_spec(const std::string& spec);

  unsigned num_nodes() const { return static_cast<unsigned>(nodes_.size()); }
  unsigned num_cores() const { return static_cast<unsigned>(core_node_.size()); }
  unsigned num_links() const { return static_cast<unsigned>(links_.size()); }
  unsigned cores_per_node() const { return cores_per_node_; }

  const CoreSpec& core_spec() const { return core_; }
  const NodeSpec& node_spec(NodeId n) const { return nodes_.at(n); }
  const LinkSpec& link_spec(LinkId l) const { return links_.at(l); }

  NodeId node_of_core(CoreId c) const { return core_node_.at(c); }
  std::span<const CoreId> cores_of_node(NodeId n) const;

  /// Number of interconnect hops between nodes (0 when a == b).
  unsigned hops(NodeId a, NodeId b) const { return hops_[idx(a, b)]; }

  /// The link ids traversed going from `a` to `b` (empty when a == b).
  std::span<const LinkId> route(NodeId a, NodeId b) const;

  /// Uncontended access latency from a core on `from` to DRAM on `to`.
  /// Precomputed (destination DRAM latency + per-hop link latencies) — this
  /// sits on the per-page hot path of every kernel walk.
  sim::Time access_latency(NodeId from, NodeId to) const {
    return lat_[idx(from, to)];
  }

  /// The paper's "NUMA factor": remote/local latency ratio.
  double numa_factor(NodeId from, NodeId to) const;

  /// Memory tier of node `n`.
  MemTier tier_of(NodeId n) const { return nodes_.at(n).tier; }

  /// True when any node sits on a non-kDram tier (the machine is
  /// heterogeneous and tier-aware placement has something to do).
  bool tiered() const;

  /// All node ids on tier `t`, ascending.
  std::vector<NodeId> nodes_of_tier(MemTier t) const;

  /// Mask containing every node.
  NodeMask all_nodes_mask() const {
    return num_nodes() >= 64 ? ~NodeMask{0} : (NodeMask{1} << num_nodes()) - 1;
  }

  /// Human-readable dump (akin to `numactl --hardware`).
  std::string describe() const;

 private:
  std::size_t idx(NodeId a, NodeId b) const { return std::size_t{a} * num_nodes() + b; }
  void compute_routes();

  CoreSpec core_;
  unsigned cores_per_node_ = 0;
  std::vector<NodeSpec> nodes_;
  std::vector<LinkSpec> links_;
  std::vector<NodeId> core_node_;             // core -> node
  std::vector<std::vector<CoreId>> node_cores_;
  std::vector<unsigned> hops_;                // n x n
  std::vector<std::vector<LinkId>> routes_;   // n x n -> link path
  std::vector<sim::Time> lat_;                // n x n access latency
};

}  // namespace numasim::topo

#include "topo/topology.hpp"

#include <algorithm>
#include <deque>
#include <sstream>
#include <stdexcept>

namespace numasim::topo {

const char* mem_tier_name(MemTier t) {
  switch (t) {
    case MemTier::kFast: return "fast";
    case MemTier::kDram: return "dram";
    case MemTier::kFar: return "far";
  }
  return "?";
}

Topology Topology::quad_opteron() {
  std::vector<LinkSpec> links{
      {0, 1, 2200.0, 15},
      {1, 3, 2200.0, 15},
      {3, 2, 2200.0, 15},
      {2, 0, 2200.0, 15},
  };
  return build(4, 4, CoreSpec{}, NodeSpec{}, std::move(links));
}

Topology Topology::dual_node(unsigned cores_per_node) {
  std::vector<LinkSpec> links{{0, 1, 2200.0, 15}};
  return build(2, cores_per_node, CoreSpec{}, NodeSpec{}, std::move(links));
}

Topology Topology::build(unsigned nodes, unsigned cores_per_node,
                         const CoreSpec& core, const NodeSpec& node,
                         std::vector<LinkSpec> links) {
  return build(std::vector<NodeSpec>(nodes, node), cores_per_node, core,
               std::move(links));
}

Topology Topology::build(std::vector<NodeSpec> node_specs,
                         unsigned cores_per_node, const CoreSpec& core,
                         std::vector<LinkSpec> links) {
  const unsigned nodes = static_cast<unsigned>(node_specs.size());
  if (nodes == 0 || nodes > kMaxNodes)
    throw std::invalid_argument{"Topology: 1.." + std::to_string(kMaxNodes) + " nodes"};
  if (cores_per_node == 0) throw std::invalid_argument{"Topology: need cores"};
  for (const auto& l : links) {
    if (l.a >= nodes || l.b >= nodes || l.a == l.b)
      throw std::invalid_argument{"Topology: bad link endpoints"};
  }

  Topology t;
  t.core_ = core;
  t.cores_per_node_ = cores_per_node;
  t.nodes_ = std::move(node_specs);
  t.links_ = std::move(links);
  t.node_cores_.resize(nodes);
  for (NodeId n = 0; n < nodes; ++n) {
    for (unsigned c = 0; c < cores_per_node; ++c) {
      t.core_node_.push_back(n);
      t.node_cores_[n].push_back(static_cast<CoreId>(t.core_node_.size() - 1));
    }
  }
  t.compute_routes();
  return t;
}

void Topology::compute_routes() {
  const unsigned n = num_nodes();
  hops_.assign(std::size_t{n} * n, 0);
  routes_.assign(std::size_t{n} * n, {});

  // Adjacency: node -> (neighbor, link id).
  std::vector<std::vector<std::pair<NodeId, LinkId>>> adj(n);
  for (LinkId l = 0; l < num_links(); ++l) {
    adj[links_[l].a].emplace_back(links_[l].b, l);
    adj[links_[l].b].emplace_back(links_[l].a, l);
  }

  for (NodeId src = 0; src < n; ++src) {
    std::vector<int> prev_node(n, -1);
    std::vector<LinkId> prev_link(n, 0);
    std::vector<bool> seen(n, false);
    std::deque<NodeId> queue{src};
    seen[src] = true;
    while (!queue.empty()) {
      const NodeId u = queue.front();
      queue.pop_front();
      for (auto [v, l] : adj[u]) {
        if (!seen[v]) {
          seen[v] = true;
          prev_node[v] = static_cast<int>(u);
          prev_link[v] = l;
          queue.push_back(v);
        }
      }
    }
    for (NodeId dst = 0; dst < n; ++dst) {
      if (dst == src) continue;
      if (!seen[dst]) throw std::invalid_argument{"Topology: interconnect not connected"};
      std::vector<LinkId> path;
      for (NodeId v = dst; v != src; v = static_cast<NodeId>(prev_node[v]))
        path.push_back(prev_link[v]);
      std::reverse(path.begin(), path.end());
      hops_[idx(src, dst)] = static_cast<unsigned>(path.size());
      routes_[idx(src, dst)] = std::move(path);
    }
  }

  // Latency matrix: access_latency is on the per-page hot path of every
  // kernel walk, so precompute destination DRAM latency + per-hop costs.
  lat_.assign(std::size_t{n} * n, 0);
  for (NodeId src = 0; src < n; ++src) {
    for (NodeId dst = 0; dst < n; ++dst) {
      sim::Time lat = nodes_[dst].dram_latency;
      for (LinkId l : routes_[idx(src, dst)]) lat += links_[l].hop_latency;
      lat_[idx(src, dst)] = lat;
    }
  }
}

std::span<const CoreId> Topology::cores_of_node(NodeId n) const {
  return node_cores_.at(n);
}

bool Topology::tiered() const {
  for (const NodeSpec& n : nodes_)
    if (n.tier != MemTier::kDram) return true;
  return false;
}

std::vector<NodeId> Topology::nodes_of_tier(MemTier t) const {
  std::vector<NodeId> out;
  for (NodeId n = 0; n < num_nodes(); ++n)
    if (nodes_[n].tier == t) out.push_back(n);
  return out;
}

std::span<const LinkId> Topology::route(NodeId a, NodeId b) const {
  return routes_[idx(a, b)];
}

double Topology::numa_factor(NodeId from, NodeId to) const {
  return static_cast<double>(access_latency(from, to)) /
         static_cast<double>(nodes_.at(from).dram_latency);
}

std::string Topology::describe() const {
  std::ostringstream os;
  os << "available: " << num_nodes() << " nodes (0-" << num_nodes() - 1 << ")\n";
  for (NodeId n = 0; n < num_nodes(); ++n) {
    os << "node " << n << " cpus:";
    for (CoreId c : cores_of_node(n)) os << ' ' << c;
    os << "\nnode " << n << " size: " << (node_spec(n).dram_capacity_bytes >> 20)
       << " MB\n";
    if (tiered())
      os << "node " << n << " tier: " << mem_tier_name(node_spec(n).tier)
         << '\n';
  }
  os << "node distances:\nnode ";
  for (NodeId j = 0; j < num_nodes(); ++j) os << "  " << j;
  os << '\n';
  for (NodeId i = 0; i < num_nodes(); ++i) {
    os << "  " << i << ": ";
    for (NodeId j = 0; j < num_nodes(); ++j) os << ' ' << 10 + hops(i, j) * 10;
    os << '\n';
  }
  return os.str();
}

}  // namespace numasim::topo

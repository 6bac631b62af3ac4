// Tests for the textual topology spec parser.
#include <gtest/gtest.h>

#include <utility>

#include "topo/topology.hpp"

namespace numasim::topo {
namespace {

TEST(TopoSpec, RingShape) {
  const Topology t = Topology::from_spec("nodes=8 cores=2 shape=ring");
  EXPECT_EQ(t.num_nodes(), 8u);
  EXPECT_EQ(t.num_cores(), 16u);
  EXPECT_EQ(t.num_links(), 8u);
  EXPECT_EQ(t.hops(0, 4), 4u);
  EXPECT_EQ(t.hops(0, 7), 1u);
}

TEST(TopoSpec, LineShape) {
  const Topology t = Topology::from_spec("nodes=4 cores=1 shape=line");
  EXPECT_EQ(t.num_links(), 3u);
  EXPECT_EQ(t.hops(0, 3), 3u);
}

TEST(TopoSpec, MeshShape) {
  const Topology t = Topology::from_spec("nodes=5 cores=1 shape=mesh");
  EXPECT_EQ(t.num_links(), 10u);
  for (NodeId a = 0; a < 5; ++a)
    for (NodeId b = 0; b < 5; ++b)
      if (a != b) {
        EXPECT_EQ(t.hops(a, b), 1u);
      }
}

TEST(TopoSpec, StarShape) {
  const Topology t = Topology::from_spec("nodes=5 cores=1 shape=star");
  EXPECT_EQ(t.num_links(), 4u);
  EXPECT_EQ(t.hops(1, 4), 2u);
  EXPECT_EQ(t.hops(0, 4), 1u);
}

TEST(TopoSpec, TwoNodeRingHasOneLink) {
  const Topology t = Topology::from_spec("nodes=2 cores=4 shape=ring");
  EXPECT_EQ(t.num_links(), 1u);
  EXPECT_EQ(t.hops(0, 1), 1u);
}

TEST(TopoSpec, NumericOverrides) {
  const Topology t = Topology::from_spec(
      "nodes=2 cores=1 link_bw=3000 hop_ns=25 dram_bw=8000 dram_ns=60 "
      "l3_mb=4 mem_gb=16 ghz=2.5 flops_per_cycle=8");
  EXPECT_DOUBLE_EQ(t.link_spec(0).bytes_per_us, 3000.0);
  EXPECT_EQ(t.link_spec(0).hop_latency, 25u);
  EXPECT_DOUBLE_EQ(t.node_spec(0).dram_bytes_per_us, 8000.0);
  EXPECT_EQ(t.node_spec(0).dram_latency, 60u);
  EXPECT_EQ(t.node_spec(0).l3_bytes, 4ull << 20);
  EXPECT_EQ(t.node_spec(0).dram_capacity_bytes, 16ull << 30);
  EXPECT_DOUBLE_EQ(t.core_spec().peak_gflops(), 20.0);
}

TEST(TopoSpec, Rejections) {
  EXPECT_THROW(Topology::from_spec("cores=2"), std::invalid_argument);
  EXPECT_THROW(Topology::from_spec("nodes=2"), std::invalid_argument);
  EXPECT_THROW(Topology::from_spec("nodes=2 cores=1 shape=torus"),
               std::invalid_argument);
  EXPECT_THROW(Topology::from_spec("nodes=2 cores=1 bogus=1"),
               std::invalid_argument);
  EXPECT_THROW(Topology::from_spec("nodes=2 cores=1 ghz=fast"),
               std::invalid_argument);
  EXPECT_THROW(Topology::from_spec("nodes=2 cores=1 shape"),
               std::invalid_argument);
  // Out-of-range numbers fail with a SpecError naming the key instead of
  // crashing in Topology::build, wrapping, or truncating.
  const std::pair<const char*, const char*> bad_numbers[] = {
      {"nodes=65 cores=1", "nodes"},
      {"nodes=-1 cores=2", "nodes"},
      {"nodes=2.7 cores=2", "nodes"},
      {"nodes=2 cores=5000000000", "cores"},
      {"nodes=2 cores=0.5", "cores"},
      {"nodes=2 cores=2 link_bw=0", "link_bw"},
      {"nodes=2 cores=2 dram_bw=-1", "dram_bw"},
      {"nodes=2 cores=2 ghz=nan", "ghz"},
      {"nodes=2 cores=2 flops_per_cycle=inf", "flops_per_cycle"},
      {"nodes=2 cores=2 dram_ns=0", "dram_ns"},
      {"nodes=2 cores=2 hop_ns=-5", "hop_ns"},
      {"nodes=2 cores=2 mem_gb=1e30", "mem_gb"},
      {"nodes=2 cores=2 l3_mb=-1", "l3_mb"},
      {"nodes=2 cores=1 tiers=fast:1,far:1 far_wr_bw=0", "far_wr_bw"},
      {"nodes=2 cores=1 tiers=fast:1,dram:1 fast_ns=0", "fast_ns"},
      {"nodes=2 cores=1 tiers=dram:1,far:1 far_ns=-1", "far_ns"},
      {"nodes=2 cores=1 tiers=fast:5000000000", "tiers"},
  };
  for (const auto& [spec, key] : bad_numbers) {
    try {
      (void)Topology::from_spec(spec);
      ADD_FAILURE() << "accepted " << spec;
    } catch (const SpecError& e) {
      EXPECT_EQ(e.key, key) << spec;
    }
  }
}

TEST(TopoSpec, DefaultsMatchNodeSpec) {
  const Topology t = Topology::from_spec("nodes=4 cores=4");
  const NodeSpec d;
  EXPECT_DOUBLE_EQ(t.node_spec(0).dram_bytes_per_us, d.dram_bytes_per_us);
  EXPECT_EQ(t.node_spec(0).dram_latency, d.dram_latency);
}

}  // namespace
}  // namespace numasim::topo

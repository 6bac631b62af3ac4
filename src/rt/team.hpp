// Team: an OpenMP-flavoured fork/join worker group over simulated threads.
//
// `parallel` forks one worker per core and joins them (the caller's clock
// advances to the slowest worker's finish — an implicit barrier, as at the
// end of an OpenMP parallel region). `parallel_for` adds static scheduling
// (the GOMP default) over an index range; Table 1 and Fig. 8 run on top of
// this.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "rt/machine.hpp"
#include "rt/thread.hpp"

namespace numasim::rt {

class Team {
 public:
  Team(Machine& m, std::vector<topo::CoreId> cores);

  /// One worker per core in the Machine, in core order.
  static Team all_cores(Machine& m);
  /// Workers on the cores of a single NUMA node.
  static Team node_cores(Machine& m, topo::NodeId node, unsigned count);

  unsigned size() const { return static_cast<unsigned>(cores_.size()); }
  const std::vector<topo::CoreId>& cores() const { return cores_; }

  using WorkerFn = std::function<sim::Task<void>(unsigned tid, Thread&)>;
  /// Fork size() workers, run `fn`, join. Caller time advances to the join.
  /// `region` names the trace span emitted for the region: one slice per
  /// worker timeline plus a fork-to-join slice on the caller.
  sim::Task<void> parallel(Thread& caller, WorkerFn fn,
                           std::string region = "parallel");

  using IndexFn =
      std::function<sim::Task<void>(unsigned tid, Thread&, std::uint64_t i)>;
  /// Distribute [begin, end) across the team in contiguous blocks, one per
  /// worker (GCC's GOMP default static schedule).
  sim::Task<void> parallel_for(Thread& caller, std::uint64_t begin,
                               std::uint64_t end, IndexFn body,
                               std::string region = "parallel_for");

  /// Aggregate cost stats of the workers of the last region.
  const sim::CostStats& last_stats() const { return last_stats_; }
  /// Wall-span of the last region (fork to join, simulated).
  sim::Time last_span() const { return last_span_; }

 private:
  Machine& m_;
  std::vector<topo::CoreId> cores_;
  sim::CostStats last_stats_;
  sim::Time last_span_ = 0;
};

}  // namespace numasim::rt

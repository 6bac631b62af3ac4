// Per-node asynchronous migration daemons ("kmigrated").
//
// Each NUMA node runs one daemon thread that drains a work queue of
// migration batches. Submitters (sys_move_pages_async, numab promotion and
// tier demotion) pay only a small enqueue cost; the page-table surgery and
// copies are charged to the daemon's own timeline, so the submitting thread
// returns immediately while the batch completes in the background of
// simulated time — the NOMAD-style decoupling of page copies from the
// faulting thread.
//
// Like every other resource in the simulator, a daemon is a Timeline: a
// batch submitted at `t` starts no earlier than `t + wakeup` and no earlier
// than the daemon's previous batch finished. The kernel applies the
// page-table mutations eagerly (the simulation has no host concurrency) but
// stamps their completion at the daemon's slot end, which is what the
// queue-depth gauge, the batch-latency histogram and kmigrated_drain()
// observe.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/resource.hpp"
#include "sim/time.hpp"
#include "topo/topology.hpp"

namespace numasim::kern {

class Kmigrated {
 public:
  explicit Kmigrated(unsigned num_nodes)
      : daemons_(num_nodes), inflight_(num_nodes) {}

  unsigned num_nodes() const { return static_cast<unsigned>(daemons_.size()); }

  /// Earliest instant node `n`'s daemon can start a new batch.
  sim::Time node_free_at(topo::NodeId n) const { return daemons_[n].free_at(); }

  /// Claim node `node`'s daemon from `start` (which must be >= both the
  /// submit instant and node_free_at) for `service` ns. Returns the slot.
  sim::Slot submit(topo::NodeId node, sim::Time start, sim::Time service) {
    const sim::Slot slot = daemons_[node].reserve(start, service);
    inflight_[node].push_back(slot.finish);
    return slot;
  }

  /// Instant at which every daemon is idle.
  sim::Time drained_at() const {
    sim::Time t = 0;
    for (const sim::Timeline& d : daemons_)
      if (d.free_at() > t) t = d.free_at();
    return t;
  }

  /// Batches of node `node` still completing after `now`.
  unsigned queue_depth(topo::NodeId node, sim::Time now) const {
    auto& v = inflight_[node];
    std::erase_if(v, [now](sim::Time f) { return f <= now; });
    return static_cast<unsigned>(v.size());
  }

  /// Batches on any node still completing after `now`.
  unsigned total_inflight(sim::Time now) const {
    unsigned total = 0;
    for (topo::NodeId n = 0; n < num_nodes(); ++n) total += queue_depth(n, now);
    return total;
  }

 private:
  std::vector<sim::Timeline> daemons_;
  // Completion instants of submitted batches; pruned lazily by queue_depth.
  mutable std::vector<std::vector<sim::Time>> inflight_;
};

}  // namespace numasim::kern

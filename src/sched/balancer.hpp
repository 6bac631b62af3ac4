// sched::Balancer — the task-placement half of automatic NUMA balancing.
//
// The kernel's hint-fault sampling (kern/numab) tells us *where* each thread's
// memory lives; the Balancer closes the loop by moving threads toward their
// memory. It is cooperative and deterministic: worker threads call tick() at
// natural synchronization points (loop iterations, barriers); at most one
// evaluation pass runs per balance_period, in the calling thread's context
// (like task_numa_placement running from task work, not a daemon), and each
// thread applies its own pending core move on its next tick.
//
// Policies (KernelConfig::numa_balancing.policy):
//   kNone          — page placement only; tick() is a no-op
//   kPreferredNode — move each thread to the least-loaded core of its
//                    preferred node (hottest node holding >= 40 % of the
//                    decayed fault mass)
//   kInterchange   — IMAR-style: among all thread pairs on different nodes,
//                    swap the one whose exchange removes the most
//                    remote-access mass; at most one pair per evaluation
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "rt/machine.hpp"
#include "rt/thread.hpp"
#include "sim/task.hpp"

namespace numasim::sched {

class Balancer {
 public:
  /// Reads the policy and periods from the machine's
  /// KernelConfig::numa_balancing at construction.
  explicit Balancer(rt::Machine& m);

  /// Register a worker for placement decisions. Registration order is the
  /// evaluation order (keep it deterministic: register in spawn order).
  void add_thread(rt::Thread& th);

  struct Stats {
    std::uint64_t evaluations = 0;  ///< evaluation passes run
    std::uint64_t migrations = 0;   ///< core moves applied via tick()
    std::uint64_t swaps = 0;        ///< interchange pairs chosen
  };
  const Stats& stats() const { return stats_; }

  /// Cooperative balance point. Runs an evaluation pass if balance_period
  /// elapsed (charged to the caller as kNumaBalance), then applies the
  /// caller's own pending core move, if any. No-op (beyond one branch) when
  /// the policy is kNone or balancing is disabled.
  sim::Task<void> tick(rt::Thread& self);

 private:
  struct Pending {
    topo::CoreId core = 0;
    bool swap = false;
  };

  void evaluate(sim::Time now);
  topo::CoreId planned_core(const rt::Thread& th) const;

  rt::Machine& m_;
  kern::NumaBalancingConfig cfg_;
  std::vector<rt::Thread*> threads_;
  sim::Time next_eval_at_ = 0;
  std::map<kern::ThreadId, Pending> pending_;
  Stats stats_;
};

}  // namespace numasim::sched

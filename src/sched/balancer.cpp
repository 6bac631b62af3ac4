#include "sched/balancer.hpp"

#include <limits>

namespace numasim::sched {

Balancer::Balancer(rt::Machine& m)
    : m_(m), cfg_(m.kernel().config().numa_balancing) {}

void Balancer::add_thread(rt::Thread& th) { threads_.push_back(&th); }

topo::CoreId Balancer::planned_core(const rt::Thread& th) const {
  const auto it = pending_.find(th.ctx().tid);
  return it != pending_.end() ? it->second.core : th.core();
}

sim::Task<void> Balancer::tick(rt::Thread& self) {
  if (!cfg_.enabled || cfg_.policy == kern::NumaPolicy::kNone) co_return;

  if (self.now() >= next_eval_at_) {
    next_eval_at_ = self.now() + cfg_.balance_period;
    const sim::Time begin = self.now();
    // The pass runs in the calling task's context and on its dime
    // (task_numa_placement runs from task work, not a separate daemon).
    kern::charge(self.ctx(), m_.cost().numab_balance_eval,
                 sim::CostKind::kNumaBalance);
    evaluate(self.now());
    m_.kernel().emit_span(self.ctx(), "numab-balance", begin, "sched");
  }

  const auto it = pending_.find(self.ctx().tid);
  if (it == pending_.end()) {
    co_await self.sync();
    co_return;
  }
  const topo::CoreId target = it->second.core;
  pending_.erase(it);
  const topo::CoreId from = self.core();
  if (target != from) {
    co_await self.migrate_to_core(target);
    m_.kernel().numab_note_task_migration(self.ctx(), from, target);
    ++stats_.migrations;
  } else {
    co_await self.sync();
  }
}

void Balancer::evaluate(sim::Time now) {
  ++stats_.evaluations;
  kern::Kernel& k = m_.kernel();
  const topo::Topology& topo = m_.topology();

  if (cfg_.policy == kern::NumaPolicy::kPreferredNode) {
    // Greedy, in registration order: send each thread whose preferred node
    // differs from its (planned) node to the least-loaded core there.
    // Occupancy counts registered threads only — the balancer places its own
    // flock, it does not model foreign load.
    std::map<topo::CoreId, unsigned> occ;
    for (const rt::Thread* th : threads_) ++occ[planned_core(*th)];
    for (rt::Thread* th : threads_) {
      const topo::NodeId pref =
          k.numab_preferred_node(m_.pid(), th->ctx().tid, now);
      if (pref == topo::kInvalidNode) continue;
      const topo::CoreId cur = planned_core(*th);
      if (topo.node_of_core(cur) == pref) continue;
      topo::CoreId best = std::numeric_limits<topo::CoreId>::max();
      unsigned best_occ = std::numeric_limits<unsigned>::max();
      for (const topo::CoreId c : topo.cores_of_node(pref)) {
        if (occ[c] < best_occ) {
          best_occ = occ[c];
          best = c;  // cores_of_node is id-ordered: first win = lowest id
        }
      }
      if (best == std::numeric_limits<topo::CoreId>::max()) continue;
      --occ[cur];
      ++occ[best];
      pending_[th->ctx().tid] = {best, false};
    }
    return;
  }

  // kInterchange: pick the single pair (a, b) on different nodes whose swap
  // maximizes gain = remote mass removed - local mass given up
  //   (Fa[node_b] + Fb[node_a]) - (Fa[node_a] + Fb[node_b])
  // and queue both moves. Ties resolve to the earliest-registered pair.
  std::vector<std::vector<double>> faults(threads_.size());
  for (std::size_t i = 0; i < threads_.size(); ++i)
    faults[i] = k.numab_task_faults(m_.pid(), threads_[i]->ctx().tid, now);
  double best_gain = 0.0;
  std::size_t bi = 0, bj = 0;
  bool found = false;
  for (std::size_t i = 0; i < threads_.size(); ++i) {
    if (faults[i].empty()) continue;
    const topo::NodeId ni = topo.node_of_core(planned_core(*threads_[i]));
    for (std::size_t j = i + 1; j < threads_.size(); ++j) {
      if (faults[j].empty()) continue;
      const topo::NodeId nj = topo.node_of_core(planned_core(*threads_[j]));
      if (ni == nj) continue;
      const double gain =
          (faults[i][nj] + faults[j][ni]) - (faults[i][ni] + faults[j][nj]);
      if (gain > best_gain) {
        best_gain = gain;
        bi = i;
        bj = j;
        found = true;
      }
    }
  }
  if (found) {
    const topo::CoreId ci = planned_core(*threads_[bi]);
    const topo::CoreId cj = planned_core(*threads_[bj]);
    pending_[threads_[bi]->ctx().tid] = {cj, true};
    pending_[threads_[bj]->ctx().tid] = {ci, true};
    k.numab_note_task_swap();
    ++stats_.swaps;
  }
}

}  // namespace numasim::sched

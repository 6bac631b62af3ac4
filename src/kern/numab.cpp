// Automatic NUMA balancing: the scan clock, hint-fault accounting, and
// migrate-on-fault page promotion (the kernel half of the subsystem; task
// placement is sched::Balancer, built on the accessors at the bottom).
//
// Modeled on Linux: task_numa_work walks a sliding window of the address
// space clearing access bits (change_prot_numa), do_numa_page records the
// fault in a decaying per-task histogram and promotes confirmed remote pages
// (numa_migrate_prep's two-reference check). Promotions are batched through
// the kmigrated daemons, so they honor memory-pressure watermarks and fault
// injection like every other migration path.
#include <algorithm>
#include <cmath>

#include "kern/kernel.hpp"

namespace numasim::kern {

namespace {

/// Lazy exponential decay: halve the scores once per elapsed scan period.
/// Deterministic (pure IEEE-double halving) and O(1) amortized.
void decay_task_stats(NumabTaskStats& ts, sim::Time now, sim::Time period) {
  if (period == 0 || now <= ts.decayed_to) return;
  const sim::Time elapsed = now - ts.decayed_to;
  const std::uint64_t steps = elapsed / period;
  if (steps == 0) return;
  if (steps >= 64) {
    // Beyond 64 halvings every double underflows to noise: forget outright.
    std::fill(ts.faults.begin(), ts.faults.end(), 0.0);
  } else {
    const double factor = std::ldexp(1.0, -static_cast<int>(steps));
    for (double& f : ts.faults) f *= factor;
  }
  ts.decayed_to += steps * period;
}

}  // namespace

const char* numa_policy_name(NumaPolicy p) {
  switch (p) {
    case NumaPolicy::kNone: return "none";
    case NumaPolicy::kPreferredNode: return "preferred-node";
    case NumaPolicy::kInterchange: return "interchange";
  }
  return "?";
}

void Kernel::numab_tick(ThreadCtx& t, Process& p) {
  const NumaBalancingConfig& nb = cfg_.numa_balancing;
  if (!nb.enabled) return;
  if (!p.numab.scan_armed) {
    // First access after enablement: arm the clock, scan one period later.
    p.numab.scan_armed = true;
    p.numab.next_scan_at = t.clock + nb.scan_period;
    return;
  }
  if (t.clock < p.numab.next_scan_at) return;
  // No catch-up bursts: a late task runs one window, not one per missed
  // period (task_numa_work reschedules relative to now).
  p.numab.next_scan_at = t.clock + nb.scan_period;
  numab_scan(t, p);
}

void Kernel::numab_scan(ThreadCtx& t, Process& p) {
  const NumaBalancingConfig& nb = cfg_.numa_balancing;
  const sim::Time begin = t.clock;
  ++kstats_.numab_scans;
  charge(t, cost_.numab_scan_base, sim::CostKind::kNumaScan);

  // Snapshot the scannable VMAs (the walk mutates PTE bits only). Huge
  // mappings are not migratable and unreadable VMAs (e.g. armed user
  // next-touch regions) must keep faulting to their own handler.
  struct Seg {
    vm::Vaddr start, end;
  };
  std::vector<Seg> segs;
  p.as.for_each([&](const vm::Vma& vma) {
    if (vma.huge || !vm::prot_allows(vma.prot, vm::Prot::kRead)) return;
    segs.push_back({vma.start, vma.end});
  });

  std::uint64_t marked = 0;
  vm::Vaddr window_start = p.numab.scan_cursor;
  if (!segs.empty()) {
    // Sliding window: resume at the cursor's segment, wrap once over the
    // space, stop after tagging scan_size_pages.
    const std::size_t n = segs.size();
    std::size_t si = 0;
    while (si < n && segs[si].end <= p.numab.scan_cursor) ++si;
    if (si == n) si = 0;  // cursor past the last VMA: wrap
    vm::Vaddr pos = std::max(p.numab.scan_cursor, segs[si].start);
    if (pos >= segs[si].end) pos = segs[si].start;
    window_start = pos;

    for (std::size_t k = 0; k < n && marked < nb.scan_size_pages; ++k) {
      const Seg& s = segs[(si + k) % n];
      if (k > 0) pos = s.start;
      vm::Vpn vpn = vm::vpn_of(std::max(pos, s.start));
      const vm::Vpn vend = vm::vpn_of(s.end);
      // Run-batched window walk: one chunk lookup per 512 pages; pages with
      // no established chunk cannot be present, so skipping whole absent
      // chunks matches the per-page semantics. When the window fills, the
      // cursor rests one past the last page tagged, exactly where the
      // per-page loop used to halt.
      bool full = false;
      auto scan_run = [&](vm::PageRun run) {
        vm::Vpn v = run.first;
        for (vm::Pte& pte : run.ptes) {
          ++v;
          if (!pte.present()) continue;
          // kTxn pages are mid-transaction: marking them would invalidate
          // the migrator's hw-bit snapshot, so the scanner leaves them
          // alone.
          if (pte.flags & (vm::Pte::kHuge | vm::Pte::kReplica |
                           vm::Pte::kNextTouch | vm::Pte::kNumaHint |
                           vm::Pte::kTxn)) {
            // A page still carrying kNumaHint from an earlier window was
            // never touched since: one more window of cold-page evidence
            // for the tier demotion pass.
            if (cfg_.tiers.enabled && pte.numa_hint() &&
                !(pte.flags & (vm::Pte::kHuge | vm::Pte::kReplica |
                               vm::Pte::kNextTouch | vm::Pte::kTxn)) &&
                pte.numa_idle < 255)
              ++pte.numa_idle;
            continue;
          }
          pte.clear(vm::Pte::kHwRead | vm::Pte::kHwWrite);
          pte.set(vm::Pte::kNumaHint);
          if (++marked >= nb.scan_size_pages) {
            vpn = v;
            full = true;
            return false;
          }
        }
        return true;
      };
      p.as.page_table().for_each_run(vpn, vend, scan_run);
      if (!full) vpn = vend;
      pos = vm::addr_of(vpn);
    }
    p.numab.scan_cursor = pos;
  }

  kstats_.numab_pages_scanned += marked;
  if (marked > 0) {
    // Tagging site: kNumaHint set / hw bits cleared on the marked pages, so
    // cached soft-TLB descriptors covering them must stop hitting.
    stlb_invalidate(p);
    charge(t, cost_.numab_scan_page * marked, sim::CostKind::kNumaScan);
    // change_prot_numa flushes the TLBs once per window, not per page.
    charge(t, shootdown_round(t, marked), sim::CostKind::kTlbShootdown);
  }
  if (h_numab_scan_ != nullptr) h_numab_scan_->record(marked);
  trace(t, EventType::kNumaScan, vm::vpn_of(window_start), marked);
  tier_demote_check(t, p);
  emit_span(t, "numab-scan", begin, "kern");
}

void Kernel::numab_hint_fault(ThreadCtx& t, Process& p, const vm::Vma& vma,
                              vm::Pte& pte, vm::Vpn vpn) {
  const topo::NodeId local = topo_.node_of_core(t.core);
  const topo::NodeId page_node = pte.node();
  charge(t, cost_.numab_hint_fault, sim::CostKind::kNumaHint);
  ++kstats_.numab_hint_faults;
  if (page_node == local) ++kstats_.numab_hint_faults_local;

  // task_numa_fault: account the access against the node *holding* the page
  // (numa_faults_memory), decayed so stale phases fade.
  if (t.numab_ts == nullptr) t.numab_ts = &p.numab.tasks[t.tid];
  NumabTaskStats& ts = *t.numab_ts;
  if (ts.faults.size() != topo_.num_nodes()) {
    ts.faults.assign(topo_.num_nodes(), 0.0);
    ts.decayed_to = t.clock;
  }
  decay_task_stats(ts, t.clock, cfg_.numa_balancing.scan_period);
  ts.faults[page_node] += 1.0;
  ++ts.total_faults;

  trace(t, EventType::kNumaHintFault, vpn, 1, page_node, local);

  // Migrate-on-fault: promote a remote page toward the faulting node, but
  // only once two consecutive hint faults came from that node
  // (numa_migrate_prep's two-reference confirmation) — a single stray
  // access must not bounce the page. On a tiered machine the target is the
  // best strictly-faster-tier node instead of the faulting node, so a hot
  // local page on a slow tier still moves up.
  const topo::NodeId target = cfg_.tiers.enabled
                                  ? tier_promote_target(page_node, local)
                                  : local;
  if (target != page_node) {
    const bool confirmed = !cfg_.numa_balancing.two_reference ||
                           pte.numa_last == static_cast<std::uint8_t>(local);
    if (confirmed) {
      p.numab.pending.emplace_back(vpn, target);
    } else {
      ++kstats_.numab_promotions_deferred;
    }
  }
  pte.numa_last = static_cast<std::uint8_t>(local);
  pte.numa_idle = 0;

  // Rearm: restore the hardware bits so the access proceeds; the next scan
  // window re-samples the page.
  pte.clear(vm::Pte::kNumaHint);
  pte.set(vm::Pte::kAccessed);
  pte.restore_hw(vma.prot);
}

void Kernel::numab_flush_promotions(ThreadCtx& t, Process& p) {
  // Collapse the confirmed (vpn, node) promotions of this access into
  // contiguous same-target runs; each run is one kmigrated batch, so
  // promotion rides the async engine (watermarks, fault injection, one
  // coalesced shootdown per batch) instead of stalling the faulting task.
  auto& pend = p.numab.pending;
  std::size_t i = 0;
  while (i < pend.size()) {
    std::size_t j = i + 1;
    while (j < pend.size() && pend[j].second == pend[i].second &&
           pend[j].first == pend[j - 1].first + 1)
      ++j;
    const vm::Vpn first = pend[i].first;
    const std::uint64_t npages = j - i;
    const topo::NodeId target = pend[i].second;
    // Snapshot the source node before the batch runs: an up-tier move is a
    // tier promotion, counted and traced separately from plain locality
    // promotion.
    topo::NodeId from = topo::kInvalidNode;
    if (cfg_.tiers.enabled) {
      if (const vm::Pte* pte = p.as.page_table().find(first);
          pte != nullptr && pte->present())
        from = pte->node();
    }
    charge(t, cost_.kmigrated_submit, sim::CostKind::kNumaHint);
    trace(t, EventType::kNumaPromote, first, npages, topo::kInvalidNode, target);
    // A degraded transaction defers the page: the next scan pass will see the
    // hint fault again and re-promote, so there is no point stop-and-copying
    // a page the balancer only *suspects* is hot.
    const std::uint64_t moved =
        submit_kmigrated_batch(t, p, vm::addr_of(first),
                               npages * mem::kPageSize, target, t.clock,
                               MigrateEngine::kDeferOnDegrade);
    kstats_.numab_pages_promoted += moved;
    if (moved > 0 && from != topo::kInvalidNode &&
        topo_.tier_of(target) < topo_.tier_of(from)) {
      kstats_.tier_promotions += moved;
      trace(t, EventType::kTierPromote, first, moved, from, target);
    }
    i = j;
  }
  pend.clear();
}

std::vector<double> Kernel::numab_task_faults(Pid pid, ThreadId tid,
                                              sim::Time now) {
  Process& p = proc(pid);
  auto it = p.numab.tasks.find(tid);
  if (it == p.numab.tasks.end()) return {};
  decay_task_stats(it->second, now, cfg_.numa_balancing.scan_period);
  return it->second.faults;
}

topo::NodeId Kernel::numab_preferred_node(Pid pid, ThreadId tid, sim::Time now) {
  // Share of a task's decayed fault mass its top node must hold before the
  // balancer considers it the preferred node.
  constexpr double kHotThreshold = 0.40;
  const std::vector<double> scores = numab_task_faults(pid, tid, now);
  if (scores.empty()) return topo::kInvalidNode;
  double total = 0.0;
  topo::NodeId best = 0;
  for (topo::NodeId n = 0; n < scores.size(); ++n) {
    total += scores[n];
    if (scores[n] > scores[best]) best = n;
  }
  if (total <= 0.0 || scores[best] < kHotThreshold * total)
    return topo::kInvalidNode;
  return best;
}

void Kernel::numab_note_task_migration(const ThreadCtx& t, topo::CoreId from,
                                       topo::CoreId to) {
  ++kstats_.numab_task_migrations;
  trace(t, EventType::kNumaTaskMigrate, 0, 1, topo_.node_of_core(from),
        topo_.node_of_core(to));
}

void Kernel::numab_note_task_swap() { ++kstats_.numab_task_swaps; }

}  // namespace numasim::kern

// Memory-tier placement: promotion targeting, watermark-driven demotion, and
// the MPOL_PREFERRED_MANY node ranking (the kernel half of the tiering
// subsystem; the knobs live in kern/tiers.hpp, the topology grammar in
// topo::Topology::from_spec).
//
// Both loops reuse the existing engines rather than inventing new ones:
// promotion rides the AutoNUMA hint-fault pipeline (numab.cpp picks the
// target via tier_promote_target), demotion hands coalesced runs to the
// kmigrated daemons with the configured migration mode. Ranking is always
// (tier, hop distance, node id) — deterministic, no randomness.
#include <vector>

#include "kern/kernel.hpp"

namespace numasim::kern {

namespace {

/// Composite placement rank: faster tier first, then closer, then lower id.
struct TierRank {
  topo::MemTier tier;
  unsigned hops;
  topo::NodeId id;
  bool operator<(const TierRank& o) const {
    if (tier != o.tier) return tier < o.tier;
    if (hops != o.hops) return hops < o.hops;
    return id < o.id;
  }
};

}  // namespace

bool Kernel::tier_pressured(topo::NodeId n) const {
  const std::uint64_t cap = phys_.capacity_frames(n);
  if (cap == 0) return true;
  return static_cast<double>(phys_.used_frames(n)) >=
         cfg_.tiers.high_watermark_frac * static_cast<double>(cap);
}

topo::NodeId Kernel::tier_promote_target(topo::NodeId page_node,
                                         topo::NodeId local) const {
  const topo::MemTier pt = topo_.tier_of(page_node);
  topo::NodeId best = topo::kInvalidNode;
  TierRank best_rank{};
  for (topo::NodeId n = 0; n < topo_.num_nodes(); ++n) {
    if (topo_.tier_of(n) >= pt) continue;  // strictly faster tiers only
    // Without demotion a full fast node cannot make room, so promoting into
    // it would just burn a per-page ENOMEM; with demotion on, the direct
    // demotion path evicts cold pages to admit the hot one.
    if (!cfg_.tiers.demotion && tier_pressured(n)) continue;
    const TierRank r{topo_.tier_of(n), topo_.hops(local, n), n};
    if (best == topo::kInvalidNode || r < best_rank) {
      best = n;
      best_rank = r;
    }
  }
  if (best != topo::kInvalidNode) return best;
  // No faster tier can take the page. Fall back to plain migrate-on-fault
  // toward the faulting core — unless that would move a hot page *down* a
  // tier, in which case it stays put.
  return topo_.tier_of(local) > pt ? page_node : local;
}

topo::NodeId Kernel::tier_demote_target(topo::NodeId from) const {
  const topo::MemTier ft = topo_.tier_of(from);
  topo::NodeId best = topo::kInvalidNode;
  TierRank best_rank{};
  for (topo::NodeId n = 0; n < topo_.num_nodes(); ++n) {
    if (topo_.tier_of(n) <= ft) continue;  // strictly slower tiers only
    // Headroom check: demotions are migrations (__GFP_THISNODE, no reserve),
    // so a node at its min watermark cannot absorb them.
    if (phys_.free_frames(n) <= phys_.min_watermark(n)) continue;
    const TierRank r{topo_.tier_of(n), topo_.hops(from, n), n};
    if (best == topo::kInvalidNode || r < best_rank) {
      best = n;
      best_rank = r;
    }
  }
  return best;
}

std::uint64_t Kernel::tier_demote(ThreadCtx& t, Process& p, topo::NodeId node,
                                  std::uint64_t want_pages, bool require_idle,
                                  sim::CostKind kind) {
  if (!cfg_.tiers.enabled || !cfg_.tiers.demotion || want_pages == 0) return 0;
  const topo::NodeId target = tier_demote_target(node);
  if (target == topo::kInvalidNode) return 0;

  // Victim walk in VPN order (the demotion analogue of an inactive-list
  // scan): ordinary mapped base pages resident on `node`. The daemon pass
  // (`require_idle`) takes only scan-confirmed cold pages; the direct path
  // under allocation pressure takes anything eligible.
  std::vector<vm::Vpn> victims;
  p.as.for_each([&](const vm::Vma& vma) {
    if (vma.huge || victims.size() >= want_pages) return;
    auto victim_run = [&](vm::ConstPageRun run) {
      vm::Vpn vpn = run.first;
      for (const vm::Pte& pte : run.ptes) {
        const vm::Vpn v = vpn++;
        if (!pte.present()) continue;
        if (pte.flags & (vm::Pte::kHuge | vm::Pte::kReplica | vm::Pte::kTxn |
                         vm::Pte::kNextTouch))
          continue;
        if (pte.node() != node) continue;
        if (require_idle && !(pte.numa_hint() &&
                              pte.numa_idle >= cfg_.tiers.demote_after_windows))
          continue;
        victims.push_back(v);
        if (victims.size() >= want_pages) return false;
      }
      return true;
    };
    p.as.page_table().for_each_run(vm::vpn_of(vma.start), vm::vpn_of(vma.end),
                                   victim_run);
  });
  if (victims.empty()) return 0;
  charge(t, cost_.demote_scan_page * victims.size(), kind);

  // Coalesce contiguous victims and push each run through kmigrated. The
  // batch honors watermarks and fault injection like every migration path;
  // degraded transactional pages are stop-and-copied by the daemon (the
  // configured engine, never kDeferOnDegrade) because demotion must
  // actually free frames.
  std::uint64_t demoted = 0;
  std::size_t i = 0;
  while (i < victims.size()) {
    std::size_t j = i + 1;
    while (j < victims.size() && victims[j] == victims[j - 1] + 1) ++j;
    const vm::Vpn first = victims[i];
    const std::uint64_t npages = j - i;
    charge(t, cost_.demote_submit, kind);
    trace(t, EventType::kTierDemote, first, npages, node, target);
    demoted += submit_kmigrated_batch(t, p, vm::addr_of(first),
                                      npages * mem::kPageSize, target, t.clock);
    // Soft-TLB note: the page moves themselves bumped mapping_gen inside
    // submit_kmigrated_batch; the hysteresis reset below touches only
    // numa_last/numa_idle (no mapping, flag, or permission change), so no
    // further invalidation is needed here.
    // Hysteresis: a freshly demoted page must re-earn its promotion with two
    // hint faults from the same node, so one stray touch inside the next
    // scan window cannot bounce it straight back up.
    auto reset_run = [&](vm::PageRun run) {
      for (vm::Pte& pte : run.ptes) {
        if (!pte.present() || pte.node() != target) continue;
        pte.numa_last = vm::Pte::kNoNumaNode;
        pte.numa_idle = 0;
      }
    };
    p.as.page_table().for_each_run(first, first + npages, reset_run);
    i = j;
  }
  kstats_.tier_demotions += demoted;
  return demoted;
}

void Kernel::tier_demote_check(ThreadCtx& t, Process& p) {
  if (!cfg_.tiers.enabled || !cfg_.tiers.demotion) return;
  for (topo::NodeId n = 0; n < topo_.num_nodes(); ++n) {
    if (!tier_pressured(n)) continue;
    if (tier_demote_target(n) == topo::kInvalidNode) continue;
    ++kstats_.tier_demote_passes;
    charge(t, cost_.demote_scan_base, sim::CostKind::kNumaScan);
    tier_demote(t, p, n, cfg_.tiers.demote_batch_pages, /*require_idle=*/true,
                sim::CostKind::kNumaScan);
  }
}

topo::NodeId Kernel::preferred_many_target(topo::NodeMask mask,
                                           topo::NodeId local) const {
  topo::NodeId best = topo::kInvalidNode;       // best with admission headroom
  topo::NodeId best_any = topo::kInvalidNode;   // best regardless of pressure
  TierRank best_rank{}, best_any_rank{};
  for (topo::NodeId n = 0; n < topo_.num_nodes(); ++n) {
    if (!topo::mask_contains(mask, n)) continue;
    const TierRank r{topo_.tier_of(n), topo_.hops(local, n), n};
    if (best_any == topo::kInvalidNode || r < best_any_rank) {
      best_any = n;
      best_any_rank = r;
    }
    if (cfg_.tiers.enabled && tier_pressured(n)) continue;
    if (best == topo::kInvalidNode || r < best_rank) {
      best = n;
      best_rank = r;
    }
  }
  // All members pressured: hand the best-ranked one to alloc_user_frame,
  // whose zonelist walk resolves the actual placement.
  return best != topo::kInvalidNode ? best : best_any;
}

std::int64_t Kernel::fast_occupancy_pct() const {
  const std::uint64_t cap = phys_.tier_capacity_frames(topo::MemTier::kFast);
  if (cap == 0) return 0;
  return static_cast<std::int64_t>(phys_.tier_used_frames(topo::MemTier::kFast) *
                                   100 / cap);
}

}  // namespace numasim::kern

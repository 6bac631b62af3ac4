// The memory-management system-call surface (paper Sections 2.3 and 3).
#include <algorithm>
#include <array>
#include <cassert>
#include <unordered_set>

#include "kern/kernel.hpp"

namespace numasim::kern {

namespace {
/// Pages per page-table-lock acquisition inside a long syscall — the real
/// kernel's pagevec/migration-list batch size.
constexpr std::size_t kSyscallBatchPages = 64;
}  // namespace

vm::Vaddr Kernel::sys_mmap(ThreadCtx& t, std::uint64_t len, vm::Prot prot,
                           const vm::MemPolicy& policy, std::string name,
                           bool huge) {
  Process& p = proc(t.pid);
  charge(t, cost_.syscall_entry, sim::CostKind::kSyscallEntry);
  if (cfg_.lock_model == LockModel::kRange) {
    // Address-space surgery takes the whole-space lock exclusively even in
    // the scalable model — only migrations scale, not mmap itself.
    take_slot(t, p.mmap_rw.reserve_exclusive(t.clock, cost_.mmap_base),
              sim::CostKind::kSyscallEntry);
  } else {
    charge(t, cost_.mmap_base, sim::CostKind::kSyscallEntry);
  }
  stlb_invalidate(p);  // map site: address-space layout changed
  return p.as.map(len, prot, policy, std::move(name), huge);
}

SyscallResult Kernel::sys_munmap(ThreadCtx& t, vm::Vaddr addr, std::uint64_t len) {
  Process& p = proc(t.pid);
  if (len == 0 || !vm::AddressSpace::in_user_range(addr, len)) return -kEINVAL;
  charge(t, cost_.syscall_entry, sim::CostKind::kSyscallEntry);
  if (cfg_.lock_model != LockModel::kRange)
    charge(t, cost_.munmap_base, sim::CostKind::kSyscallEntry);

  // Free the frames, then drop VMAs + PTEs.
  const std::uint64_t present = release_frames(p, addr, len);
  p.as.unmap(addr, len);
  stlb_invalidate(p);  // unmap site: cached descriptors may cover freed pages
  if (cfg_.lock_model == LockModel::kRange) {
    // One exclusive whole-space hold covers base + teardown + shootdown.
    const sim::Time work = cost_.munmap_base + cost_.munmap_page * present +
                           shootdown_round(t);
    take_slot(t, p.mmap_rw.reserve_exclusive(t.clock, work),
              sim::CostKind::kSyscallEntry);
  } else {
    charge(t, cost_.munmap_page * present + shootdown_round(t),
           sim::CostKind::kSyscallEntry);
  }
  return 0;
}

SyscallResult Kernel::sys_mprotect(ThreadCtx& t, vm::Vaddr addr, std::uint64_t len,
                                   vm::Prot prot, sim::CostKind attribute) {
  const SyscallSpan span(*this, t, "sys_mprotect");
  Process& p = proc(t.pid);
  if (len == 0) return -kEINVAL;
  if (!p.as.range_mapped(addr, len)) return -kENOMEM;
  charge(t, cost_.syscall_entry, sim::CostKind::kSyscallEntry);

  // mmap_sem (write) held across the VMA surgery and PTE rewrite.
  std::uint64_t present = 0;
  p.as.for_range(addr, addr + len, [&](vm::Vma& vma) {
    vma.prot = prot;
    auto rewrite_run = [&](vm::PageRun run) {
      vm::Vpn vpn = run.first;
      for (vm::Pte& pte : run.ptes) {
        const vm::Vpn v = vpn++;
        if (!pte.present()) continue;
        ++present;
        // An explicit protection change supersedes a pending next-touch or
        // NUMA-hint mark — and an in-flight transactional migration's write
        // protection (the migrator sees the cleared kTxn as a dirty hit and
        // retries or aborts). Granting write on a replicated page forces a
        // collapse (the per-node copies would otherwise go incoherent).
        pte.clear(vm::Pte::kNextTouch | vm::Pte::kNumaHint | vm::Pte::kTxn);
        if ((pte.flags & vm::Pte::kReplica) && prot_allows(prot, vm::Prot::kWrite))
          collapse_replicas(t, p, pte, v, topo_.node_of_core(t.core));
        pte.clear(vm::Pte::kHwRead | vm::Pte::kHwWrite);
        if (prot_allows(prot, vm::Prot::kRead)) pte.set(vm::Pte::kHwRead);
        if (prot_allows(prot, vm::Prot::kWrite)) pte.set(vm::Pte::kHwWrite);
      }
    };
    p.as.page_table().for_each_run(vm::vpn_of(vma.start), vm::vpn_of(vma.end),
                                   rewrite_run);
  });
  stlb_invalidate(p);  // protect site: hw permission bits rewritten

  const sim::Time work = cost_.mprotect_base + cost_.mprotect_page * present +
                         shootdown_round(t);
  // Protection changes rewrite VMAs, so the scalable model still takes the
  // whole-space lock exclusively.
  take_slot(t,
            cfg_.lock_model == LockModel::kRange
                ? p.mmap_rw.reserve_exclusive(t.clock, work)
                : p.mmap_lock.reserve(t.clock, work, t.core, cost_.lock_bounce),
            attribute);
  return 0;
}

SyscallResult Kernel::sys_madvise(ThreadCtx& t, vm::Vaddr addr, std::uint64_t len,
                                  Advice advice) {
  const SyscallSpan span(*this, t, "sys_madvise");
  Process& p = proc(t.pid);
  if (len == 0) return -kEINVAL;
  if (!p.as.range_mapped(addr, len)) return -kENOMEM;
  charge(t, cost_.syscall_entry, sim::CostKind::kSyscallEntry);

  switch (advice) {
    case Advice::kNormal:
    case Advice::kWillNeed:
      charge(t, cost_.madvise_base, sim::CostKind::kMadvise);
      return 0;

    case Advice::kDontNeed: {
      // Drop the pages: the next touch zero-fill-allocates afresh.
      const std::uint64_t dropped = release_frames(p, addr, len);
      stlb_invalidate(p);  // remap site: PTEs dropped to not-present
      const sim::Time work = cost_.madvise_base + cost_.page_free * dropped +
                             shootdown_round(t);
      charge(t, work, sim::CostKind::kMadvise);
      return 0;
    }

    case Advice::kReplicate: {
      if (const vm::Vma* v = p.as.find(addr); v != nullptr && v->huge)
        return -kEINVAL;
      // Arm: clear the write bit so writes collapse; reads repopulate per
      // node lazily through the access path.
      std::uint64_t marked = 0;
      const vm::Vpn vend = vm::vpn_of(vm::page_align_up(addr + len));
      auto arm_run = [&](vm::PageRun run) {
        for (vm::Pte& pte : run.ptes) {
          if (!pte.present()) continue;
          pte.clear(vm::Pte::kHwWrite | vm::Pte::kNextTouch | vm::Pte::kNumaHint);
          pte.set(vm::Pte::kReplica);
          ++marked;
        }
      };
      p.as.page_table().for_each_run(vm::vpn_of(addr), vend, arm_run);
      stlb_invalidate(p);  // flag site: kReplica set / hw write cleared
      const sim::Time work = cost_.madvise_base + cost_.madvise_page_mark * marked +
                             shootdown_round(t);
      charge(t, work, sim::CostKind::kMadvise);
      return 0;
    }

    case Advice::kMigrateOnNextTouch: {
      // Huge pages cannot be migrated (paper Sec. 6: "LINUX does not
      // currently support their migration").
      if (const vm::Vma* v = p.as.find(addr); v != nullptr && v->huge)
        return -kEINVAL;
      // The paper's patch (Fig. 2): clear the hardware access bits of every
      // present PTE and set the next-touch flag, then shoot down all TLBs so
      // the next access from anywhere faults.
      std::uint64_t marked = 0;
      const vm::Vpn vend = vm::vpn_of(vm::page_align_up(addr + len));
      auto mark_run = [&](vm::PageRun run) {
        vm::Vpn vpn = run.first;
        for (vm::Pte& pte : run.ptes) {
          const vm::Vpn v = vpn++;
          if (!pte.present()) continue;
          // Replicated pages collapse before they can migrate as a unit.
          if (pte.flags & vm::Pte::kReplica)
            collapse_replicas(t, p, pte, v, topo_.node_of_core(t.core));
          pte.clear(vm::Pte::kHwRead | vm::Pte::kHwWrite | vm::Pte::kNumaHint);
          pte.set(vm::Pte::kNextTouch);
          ++marked;
        }
      };
      p.as.page_table().for_each_run(vm::vpn_of(addr), vend, mark_run);
      stlb_invalidate(p);  // flag site: kNextTouch armed, hw bits cleared
      trace(t, EventType::kNextTouchMark, vm::vpn_of(addr), marked);
      const sim::Time work = cost_.madvise_base + cost_.madvise_page_mark * marked +
                             shootdown_round(t);
      sim::Slot slot;
      if (cfg_.lock_model == LockModel::kRange) {
        // Marking only rewrites PTE bits: mmap_sem is taken *shared* and the
        // serialization happens on the per-VMA range locks, so markers on
        // disjoint VMAs proceed in parallel.
        const sim::Slot rd = p.mmap_rw.reserve_shared(t.clock, 0);
        slot = range_lock_reserve(t, p, addr, addr + len, rd.start, work,
                                  /*exclusive=*/true);
      } else {
        slot = p.mmap_lock.reserve(t.clock, work, t.core, cost_.lock_bounce);
      }
      take_slot(t, slot, sim::CostKind::kMadvise);
      return 0;
    }
  }
  return -kEINVAL;
}

SyscallResult Kernel::sys_mbind(ThreadCtx& t, vm::Vaddr addr, std::uint64_t len,
                                const vm::MemPolicy& policy, bool move_existing) {
  const SyscallSpan span(*this, t, "sys_mbind");
  Process& p = proc(t.pid);
  if (len == 0) return -kEINVAL;
  if (!p.as.range_mapped(addr, len)) return -kENOMEM;
  if (policy.mode != vm::PolicyMode::kDefault && policy.nodes == 0) return -kEINVAL;
  charge(t, cost_.syscall_entry + cost_.madvise_base, sim::CostKind::kSyscallEntry);
  p.as.for_range(addr, addr + len, [&](vm::Vma& vma) { vma.policy = policy; });
  stlb_invalidate(p);  // policy-change site (migrations below bump again)
  if (!move_existing) return 0;

  // MPOL_MF_MOVE: migrate already-present pages that violate the policy.
  const sim::Time entry = t.clock;
  CopyBatch copies;
  const PageMover mover{{t, &copies}, MigrateEngine::kConfigured,
                        cost_.move_pages_range_page_control,
                        sim::CostKind::kMovePagesControl,
                        sim::CostKind::kMovePagesCopy};
  std::uint64_t moved = 0;
  const vm::Vpn vend = vm::vpn_of(vm::page_align_up(addr + len));
  const vm::Vma* vma = nullptr;  // cached across the walk
  auto move_run = [&](vm::PageRun run) {
    vm::Vpn vpn = run.first;
    for (vm::Pte& pte : run.ptes) {
      const vm::Vpn v = vpn++;
      if (!pte.present() || (pte.flags & vm::Pte::kHuge)) continue;
      if (vma == nullptr || !vma->contains(vm::addr_of(v)))
        vma = p.as.find(vm::addr_of(v));
      const topo::NodeId want = policy.target_node(
          vma->pgoff(v), pte.node(), topo_.num_nodes());
      if (want == topo::kInvalidNode || want == pte.node()) continue;
      if (migrate_page(mover, p, pte, v, want) == MigrateResult::kOk) {
        ++moved;
        ++kstats_.pages_migrated_move;
      }
    }
  };
  p.as.page_table().for_each_run(vm::vpn_of(addr), vend, move_run);
  migration_batch_tail(
      t, p, copies, addr, addr + len, entry, moved, MigrateEngine::kConfigured,
      {cost_.move_pages_serial_per_page, cost_.range_serial_per_page});
  return 0;
}

SyscallResult Kernel::sys_set_mempolicy(ThreadCtx& t, const vm::MemPolicy& policy) {
  charge(t, cost_.syscall_entry, sim::CostKind::kSyscallEntry);
  if (policy.mode != vm::PolicyMode::kDefault && policy.nodes == 0) return -kEINVAL;
  Process& p = proc(t.pid);
  p.task_policy = policy;
  stlb_invalidate(p);  // policy-change site
  return 0;
}

SyscallResult Kernel::sys_get_mempolicy(ThreadCtx& t, vm::MemPolicy& out) {
  charge(t, cost_.syscall_entry, sim::CostKind::kSyscallEntry);
  out = proc(t.pid).task_policy;
  return 0;
}

SyscallResult Kernel::sys_getcpu(ThreadCtx& t, topo::CoreId* core, topo::NodeId* node) {
  charge(t, cost_.syscall_entry, sim::CostKind::kSyscallEntry);
  if (core != nullptr) *core = t.core;
  if (node != nullptr) *node = topo_.node_of_core(t.core);
  return 0;
}

template <typename Done>
void Kernel::migrate_batch(const PageMover& how, Process& p,
                           std::span<const RunPage> pages,
                           std::span<const topo::NodeId> dests, Done&& done) {
  assert(pages.size() == dests.size());
  const bool runs = runs_allowed(how);
  for (std::size_t j = 0; j < pages.size();) {
    // A run reads each page's node when it gets there: a direct demotion on
    // the per-page path may have moved a later page of the batch.
    const topo::NodeId from = pages[j].pte->node();
    const topo::NodeId to = dests[j];
    const std::uint64_t room = runs && from != to ? phys_.run_room(to) : 0;
    if (room == 0) {
      done(j, migrate_page(how, p, *pages[j].pte, pages[j].vpn, to));
      ++j;
      continue;
    }
    const std::size_t last = j + std::min<std::uint64_t>(room, pages.size() - j);
    std::size_t e = j + 1;
    while (e < last && dests[e] == to && pages[e].pte->node() == from) ++e;
    [[maybe_unused]] const std::size_t moved =
        migrate_run(how, p, pages.subspan(j, e - j), from, to);
    assert(moved == e - j);  // the run is within the destination's room
    for (; j < e; ++j) done(j, MigrateResult::kOk);
  }
}

void Kernel::move_pages_enter(ThreadCtx& t, std::size_t total_pages) {
  (void)total_pages;
  Process& p = proc(t.pid);
  charge(t, cost_.syscall_entry, sim::CostKind::kSyscallEntry);
  // The ~160 us base: task lookup, argument copy-in, and down_read(mmap_sem)
  // work that serializes concurrent callers.
  assert(cost_.move_pages_base >= cost_.move_pages_base_locked);
  charge(t, cost_.move_pages_base - cost_.move_pages_base_locked,
         sim::CostKind::kMovePagesControl);
  // Scalable model: migrations only *read* the VMA tree, so mmap_sem is taken
  // shared — concurrent move_pages callers overlap here and serialize (if at
  // all) on the per-VMA range locks instead.
  take_slot(t,
            cfg_.lock_model == LockModel::kRange
                ? p.mmap_rw.reserve_shared(t.clock, cost_.move_pages_base_locked)
                : p.mmap_lock.reserve(t.clock, cost_.move_pages_base_locked,
                                      t.core, cost_.lock_bounce),
            sim::CostKind::kMovePagesControl);
}

void Kernel::move_pages_chunk(ThreadCtx& t, std::span<const vm::Vaddr> chunk,
                              std::span<const topo::NodeId> nodes,
                              std::span<int> status, std::size_t request_total) {
  Process& p = proc(t.pid);
  assert(nodes.empty() || nodes.size() == chunk.size());
  assert(status.size() == chunk.size());
  const bool query_only = nodes.empty();

  // Per-page unlocked control (vaddr lookup, isolation, status handling).
  // The unpatched implementation additionally scans the whole request array
  // once per page — the quadratic behaviour of Fig. 4.
  sim::Time unlocked = cost_.move_pages_page_control - cost_.move_pages_page_locked;
  if (cfg_.move_pages_impl == MovePagesImpl::kQuadratic) {
    unlocked += static_cast<sim::Time>(cost_.quadratic_scan_ns_per_slot *
                                       static_cast<double>(request_total));
  }

  // The queued moves: entry index, page and target of each. PTEs are
  // resolved once, and entries are chunk-stable for the table's life.
  std::vector<std::size_t> move_entry;
  std::vector<RunPage> move_pages;
  std::vector<topo::NodeId> move_to;
  move_entry.reserve(chunk.size());
  move_pages.reserve(chunk.size());
  move_to.reserve(chunk.size());
  topo::NodeId first_from = topo::kInvalidNode;  // for the tracepoint
  // A page an earlier entry queued is isolated already, so the later entry's
  // isolation fails with -EBUSY, as in Linux. While the queued pages ascend,
  // one comparison rules a repeat out; after that, a set of them does.
  bool ascending = true;
  std::unordered_set<vm::Vpn> queued;
  const sim::Time entry = t.clock;
  sim::Time unlocked_total = 0;
  sim::Time locked_total = 0;
  vm::Vaddr span_lo = ~vm::Vaddr{0};  // chunk page-span for range locking
  vm::Vaddr span_hi = 0;

  const vm::Vma* vma = nullptr;  // cached: chunks rarely cross a mapping
  for (std::size_t i = 0; i < chunk.size(); ++i) {
    unlocked_total += query_only ? cost_.pte_update : unlocked;
    span_lo = std::min(span_lo, vm::page_align_down(chunk[i]));
    span_hi = std::max(span_hi, vm::page_align_down(chunk[i]) + mem::kPageSize);
    if (vma == nullptr || !vma->contains(chunk[i])) vma = p.as.find(chunk[i]);
    vm::Pte* pte = p.as.page_table().find(vm::vpn_of(chunk[i]));
    if (vma == nullptr || pte == nullptr || !pte->present()) {
      status[i] = -kEFAULT;  // Linux: -ENOENT for absent pages; -EFAULT unmapped
      continue;
    }
    if (pte->flags & vm::Pte::kHuge) {
      status[i] = -kEINVAL;  // no huge-page migration in this era
      continue;
    }
    const topo::NodeId from = pte->node();
    if (query_only) {
      status[i] = static_cast<int>(from);
      continue;
    }
    const topo::NodeId to = nodes[i];
    if (to >= topo_.num_nodes()) {
      status[i] = -kEINVAL;
      continue;
    }
    if (from == to) {
      status[i] = static_cast<int>(to);
      continue;
    }
    const vm::Vpn vpn = vm::vpn_of(chunk[i]);
    if (!ascending || (!move_pages.empty() && vpn <= move_pages.back().vpn)) {
      if (ascending) {
        ascending = false;
        for (const RunPage& q : move_pages) queued.insert(q.vpn);
      }
      if (!queued.insert(vpn).second) {
        status[i] = -kEBUSY;  // charged like an entry that does not move
        continue;
      }
    }
    if (move_entry.empty()) first_from = from;
    move_entry.push_back(i);
    move_pages.push_back({pte, vpn});
    move_to.push_back(to);
    locked_total += cost_.move_pages_page_locked;
  }

  if (cfg_.lock_model == LockModel::kRange) {
    // Unlocked control happens outside any lock; the "locked" share is a
    // reservation on the range locks of the VMAs this chunk touches, so
    // chunks over disjoint VMAs overlap instead of convoying on mmap_sem.
    charge(t, unlocked_total, sim::CostKind::kMovePagesControl);
    if (locked_total > 0) {
      take_slot(t,
                range_lock_reserve(t, p, span_lo, span_hi, t.clock, locked_total,
                                   /*exclusive=*/true),
                sim::CostKind::kMovePagesControl);
    }
  } else {
    charge(t, unlocked_total + locked_total, sim::CostKind::kMovePagesControl);
  }

  // Each page fails on its own, so a failed allocation or copy surfaces as
  // that page's status — never as a batch failure. Copies are deferred and
  // coalesced per route, so the hardware model sees streams, not 4 KiB
  // droplets; the control share was charged above.
  CopyBatch copies;
  const PageMover mover{{t, &copies}, MigrateEngine::kConfigured, 0,
                        sim::CostKind::kMovePagesControl,
                        sim::CostKind::kMovePagesCopy};
  migrate_batch(mover, p, move_pages, move_to, [&](std::size_t j, MigrateResult r) {
    const std::size_t i = move_entry[j];
    switch (r) {
      case MigrateResult::kOk:
        move_pages[j].pte->clear(vm::Pte::kNextTouch);
        status[i] = static_cast<int>(move_pages[j].pte->node());
        ++kstats_.pages_migrated_move;
        break;
      case MigrateResult::kNoMem:
        status[i] = -kENOMEM;
        break;
      case MigrateResult::kCopyFail:
      case MigrateResult::kDeferred:
        status[i] = -kEAGAIN;
        break;
    }
  });
  migration_batch_tail(
      t, p, copies, span_lo, span_hi, entry, move_pages.size(),
      MigrateEngine::kConfigured,
      {cost_.move_pages_serial_per_page, cost_.range_serial_per_page});
  if (!move_pages.empty()) {
    trace(t, EventType::kMovePages, move_pages.front().vpn, move_pages.size(),
          first_from, move_to.front());
  }
  if (!sinks_.empty()) {
    emit(span_event(t, "move_pages_chunk", entry, t.clock - entry)
             .add_arg("pages", static_cast<std::int64_t>(chunk.size()))
             .add_arg("moves", static_cast<std::int64_t>(move_pages.size())));
  }
}

SyscallResult Kernel::sys_move_pages(ThreadCtx& t, std::span<const vm::Vaddr> pages,
                                     std::span<const topo::NodeId> nodes,
                                     std::span<int> status) {
  if (!nodes.empty() && nodes.size() != pages.size()) return -kEINVAL;
  if (status.size() != pages.size()) return -kEINVAL;
  const SyscallSpan span(*this, t, "sys_move_pages");
  if (pages.empty()) {
    // Linux's nr_pages == 0 fast path returns before taking mmap_sem; the
    // old model wrongly charged move_pages_base_locked under the lock here.
    charge(t, cost_.syscall_entry, sim::CostKind::kSyscallEntry);
    return 0;
  }
  move_pages_enter(t, pages.size());
  for (std::size_t off = 0; off < pages.size(); off += kSyscallBatchPages) {
    const std::size_t n = std::min(kSyscallBatchPages, pages.size() - off);
    move_pages_chunk(t, pages.subspan(off, n),
                     nodes.empty() ? nodes : nodes.subspan(off, n),
                     status.subspan(off, n), pages.size());
  }
  return 0;
}

SyscallResult Kernel::sys_move_pages_ranged(ThreadCtx& t,
                                            std::span<const MoveRange> ranges) {
  const SyscallSpan span(*this, t, "sys_move_pages_ranged");
  Process& p = proc(t.pid);
  charge(t, cost_.syscall_entry, sim::CostKind::kSyscallEntry);
  // One (cheaper) base: argument copy-in is O(ranges), not O(pages).
  take_slot(t,
            cfg_.lock_model == LockModel::kRange
                ? p.mmap_rw.reserve_shared(t.clock, cost_.move_pages_range_base)
                : p.mmap_lock.reserve(t.clock, cost_.move_pages_range_base,
                                      t.core, cost_.lock_bounce),
            sim::CostKind::kMovePagesControl);
  // Every range is validated before any page moves: an invalid range fails
  // the whole call, as in sys_move_pages_async.
  for (const MoveRange& r : ranges) {
    if (r.len == 0) return -kEINVAL;
    if (r.node >= topo_.num_nodes()) return -kEINVAL;
    if (!p.as.range_mapped(r.addr, r.len)) return -kEFAULT;
  }

  long moved = 0;
  for (const MoveRange& r : ranges) {
    const sim::Time entry = t.clock;
    CopyBatch copies;
    const PageMover mover{{t, &copies}, MigrateEngine::kConfigured, 0,
                          sim::CostKind::kMovePagesControl,
                          sim::CostKind::kMovePagesCopy};
    const bool runs = runs_allowed(mover);
    std::uint64_t batch_moved = 0;
    const vm::Vpn vend = vm::vpn_of(vm::page_align_up(r.addr + r.len));
    std::array<RunPage, vm::PageTable::kChunkPages> pages;
    auto movable = [&](const vm::Pte& pte) {
      return pte.present() && !(pte.flags & vm::Pte::kHuge);
    };
    // Each present base page pays the range control charge, then moves if it
    // is off the target. Consecutive ones on one node go as one run, as many
    // as the target has room for: the run's pages are charged after it,
    // which no step of it can see. A page the target has no room for takes
    // the per-page pipeline.
    auto range_run = [&](vm::PageRun run) {
      const std::size_t n = run.ptes.size();
      for (std::size_t j = 0; j < n;) {
        vm::Pte& pte = run.ptes[j];
        if (!movable(pte)) {
          ++j;
          continue;
        }
        const topo::NodeId from = pte.node();
        const std::uint64_t room = runs && from != r.node ? phys_.run_room(r.node) : 0;
        if (room == 0) {
          charge(t, cost_.move_pages_range_page_control,
                 sim::CostKind::kMovePagesControl);
          if (from != r.node &&
              migrate_page(mover, p, pte, run.first + j, r.node) == MigrateResult::kOk) {
            ++batch_moved;
            ++kstats_.pages_migrated_move;
          }
          ++j;
          continue;
        }
        const std::size_t last = j + std::min<std::uint64_t>(room, n - j);
        std::size_t e = j;
        for (; e < last && movable(run.ptes[e]) && run.ptes[e].node() == from; ++e)
          pages[e - j] = {&run.ptes[e], run.first + e};
        [[maybe_unused]] const std::size_t took =
            migrate_run(mover, p, {pages.data(), e - j}, from, r.node);
        assert(took == e - j);  // the run is within the target's room
        charge(t, cost_.move_pages_range_page_control * (e - j),
               sim::CostKind::kMovePagesControl);
        batch_moved += e - j;
        kstats_.pages_migrated_move += e - j;
        j = e;
      }
    };
    p.as.page_table().for_each_run(vm::vpn_of(r.addr), vend, range_run);
    migration_batch_tail(
        t, p, copies, r.addr, r.addr + r.len, entry, batch_moved,
        MigrateEngine::kConfigured,
        {cost_.move_pages_serial_per_page, cost_.range_serial_per_page});
    moved += static_cast<long>(batch_moved);
    if (tracing() && batch_moved > 0)
      trace(t, EventType::kMovePages, vm::vpn_of(r.addr), batch_moved,
            topo::kInvalidNode, r.node);
  }
  return moved;
}

SyscallResult Kernel::sys_migrate_pages(ThreadCtx& t, Pid target,
                                        topo::NodeMask from, topo::NodeMask to) {
  const SyscallSpan span(*this, t, "sys_migrate_pages");
  if (target >= procs_.size()) return -kESRCH;
  if (from == 0 || to == 0) return -kEINVAL;
  Process& p = proc(target);
  charge(t, cost_.syscall_entry, sim::CostKind::kSyscallEntry);
  charge(t, cost_.migrate_pages_base, sim::CostKind::kMigratePagesControl);

  // node-relative remapping: i-th node of `from` -> i-th node of `to`
  // (clamped to the last `to` node, as Linux does).
  std::vector<topo::NodeId> to_nodes;
  for (topo::NodeId n = 0; n < topo_.num_nodes(); ++n)
    if (topo::mask_contains(to, n)) to_nodes.push_back(n);
  if (to_nodes.empty()) return -kEINVAL;
  std::vector<topo::NodeId> dest_of(topo_.num_nodes(), topo::kInvalidNode);
  {
    std::size_t i = 0;
    for (topo::NodeId n = 0; n < topo_.num_nodes(); ++n) {
      if (topo::mask_contains(from, n)) {
        dest_of[n] = to_nodes[std::min(i, to_nodes.size() - 1)];
        ++i;
      }
    }
  }

  long migrated = 0;
  // Pages found off their destination, and each one's destination; PTEs
  // are resolved by the traversal, and entries are chunk-stable.
  std::vector<RunPage> batch;
  std::vector<topo::NodeId> batch_dest;
  auto flush_batch = [&] {
    if (batch.empty()) return;
    const sim::Time entry = t.clock;
    charge(t, cost_.migrate_pages_page_locked * batch.size(),
           sim::CostKind::kMigratePagesControl);
    // Pages whose destination node is exhausted (or whose copy fails)
    // degrade per page and simply stay where they are; they are not counted
    // as migrated.
    CopyBatch copies;
    const PageMover mover{{t, &copies}, MigrateEngine::kStopAndCopy, 0,
                          sim::CostKind::kMigratePagesControl,
                          sim::CostKind::kMigratePagesCopy};
    std::uint64_t moved = 0;
    migrate_batch(mover, p, batch, batch_dest, [&](std::size_t, MigrateResult r) {
      if (r == MigrateResult::kOk) ++moved;
    });
    migrated += static_cast<long>(moved);
    kstats_.pages_migrated_process += moved;
    migration_batch_tail(
        t, p, copies, vm::addr_of(batch.front().vpn),
        vm::addr_of(batch.back().vpn) + mem::kPageSize, entry, batch.size(),
        MigrateEngine::kStopAndCopy,
        {cost_.migrate_pages_serial_per_page, cost_.range_serial_per_page});
    batch.clear();
    batch_dest.clear();
  };

  // In-order traversal of the whole address space (hence the higher base
  // cost but better locality / throughput than move_pages — Sec. 4.2).
  // Run-batched: present pages are visited span-by-span; pages without an
  // established chunk cannot be present, so whole absent chunks are charged
  // in bulk (each missing page still costs one PTE lookup). Bulk charging is
  // exact because charge() is linear accumulation and the only flush points
  // (batch full) occur at present pages.
  std::vector<std::pair<vm::Vpn, vm::Vpn>> ranges;
  p.as.for_each([&](const vm::Vma& vma) {
    ranges.emplace_back(vm::vpn_of(vma.start), vm::vpn_of(vma.end));
  });
  for (auto [vbegin, vend] : ranges) {
    vm::Vpn next = vbegin;  // first VPN not yet charged
    auto proc_run = [&](vm::PageRun run) {
      if (run.first > next)
        charge(t, cost_.pte_update * (run.first - next),
               sim::CostKind::kMigratePagesControl);
      vm::Vpn vpn = run.first;
      for (vm::Pte& pte : run.ptes) {
        const vm::Vpn v = vpn++;
        if (!pte.present()) {
          charge(t, cost_.pte_update, sim::CostKind::kMigratePagesControl);
          continue;
        }
        charge(t, cost_.migrate_pages_page_control - cost_.migrate_pages_page_locked,
               sim::CostKind::kMigratePagesControl);
        if (pte.flags & vm::Pte::kHuge) continue;
        const topo::NodeId n = pte.node();
        if (dest_of[n] == topo::kInvalidNode || dest_of[n] == n) continue;
        batch.push_back({&pte, v});
        batch_dest.push_back(dest_of[n]);
        if (batch.size() >= kSyscallBatchPages) flush_batch();
      }
      next = vpn;
    };
    p.as.page_table().for_each_run(vbegin, vend, proc_run);
    if (next < vend)
      charge(t, cost_.pte_update * (vend - next),
             sim::CostKind::kMigratePagesControl);
  }
  flush_batch();
  trace(t, EventType::kMigrateProcess, 0, static_cast<std::uint64_t>(migrated));
  return migrated;
}

}  // namespace numasim::kern

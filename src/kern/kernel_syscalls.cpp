// The memory-management system-call surface (paper Sections 2.3 and 3).
#include <algorithm>
#include <cassert>

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

  struct Move {
    std::size_t i;
    vm::Pte* pte;  // resolved once; entries are chunk-stable for the table's life
    topo::NodeId from;
    topo::NodeId to;
  };
  std::vector<Move> moves;
  moves.reserve(chunk.size());
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
    moves.push_back({i, pte, from, to});
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

  // Each page runs the pipeline on its own, so a failed allocation or copy
  // surfaces as that page's status — never as a batch failure. Copies are
  // deferred and coalesced per route, so the hardware model sees streams,
  // not 4 KiB droplets; the control share was charged above.
  CopyBatch copies;
  const PageMover mover{{t, &copies}, MigrateEngine::kConfigured, 0,
                        sim::CostKind::kMovePagesControl,
                        sim::CostKind::kMovePagesCopy};
  for (const Move& m : moves) {
    switch (migrate_page(mover, p, *m.pte, vm::vpn_of(chunk[m.i]), m.to)) {
      case MigrateResult::kOk:
        m.pte->clear(vm::Pte::kNextTouch);
        status[m.i] = static_cast<int>(m.pte->node());
        ++kstats_.pages_migrated_move;
        break;
      case MigrateResult::kNoMem:
        status[m.i] = -kENOMEM;
        break;
      case MigrateResult::kCopyFail:
      case MigrateResult::kDeferred:
        status[m.i] = -kEAGAIN;
        break;
    }
  }
  migration_batch_tail(
      t, p, copies, span_lo, span_hi, entry, moves.size(),
      MigrateEngine::kConfigured,
      {cost_.move_pages_serial_per_page, cost_.range_serial_per_page});
  if (!moves.empty()) {
    trace(t, EventType::kMovePages, vm::vpn_of(chunk[moves.front().i]), moves.size(),
          moves.front().from, moves.front().to);
  }
  if (!sinks_.empty()) {
    emit(span_event(t, "move_pages_chunk", entry, t.clock - entry)
             .add_arg("pages", static_cast<std::int64_t>(chunk.size()))
             .add_arg("moves", static_cast<std::int64_t>(moves.size())));
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
    std::uint64_t batch_moved = 0;
    const vm::Vpn vend = vm::vpn_of(vm::page_align_up(r.addr + r.len));
    auto range_run = [&](vm::PageRun run) {
      vm::Vpn vpn = run.first;
      for (vm::Pte& pte : run.ptes) {
        const vm::Vpn v = vpn++;
        if (!pte.present() || (pte.flags & vm::Pte::kHuge)) continue;
        charge(t, cost_.move_pages_range_page_control,
               sim::CostKind::kMovePagesControl);
        if (pte.node() == r.node) continue;
        if (migrate_page(mover, p, pte, v, r.node) == MigrateResult::kOk) {
          ++batch_moved;
          ++kstats_.pages_migrated_move;
        }
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
  struct Pending {
    vm::Vpn vpn;
    vm::Pte* pte;  // resolved by the traversal; entries are chunk-stable
    topo::NodeId dest;
  };
  std::vector<Pending> batch;
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
    for (const Pending& b : batch) {
      if (migrate_page(mover, p, *b.pte, b.vpn, b.dest) == MigrateResult::kOk) {
        ++migrated;
        ++kstats_.pages_migrated_process;
      }
    }
    migration_batch_tail(
        t, p, copies, vm::addr_of(batch.front().vpn),
        vm::addr_of(batch.back().vpn) + mem::kPageSize, entry, batch.size(),
        MigrateEngine::kStopAndCopy,
        {cost_.migrate_pages_serial_per_page, cost_.range_serial_per_page});
    batch.clear();
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
        batch.push_back({v, &pte, dest_of[n]});
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

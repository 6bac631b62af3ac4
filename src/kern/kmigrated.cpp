// Kernel-side entry points of the kmigrated async migration engine: batch
// submission, execution on the daemon timelines, and draining.
#include <algorithm>

#include "kern/kernel.hpp"

namespace numasim::kern {

SyscallResult Kernel::sys_move_pages_async(ThreadCtx& t,
                                           std::span<const MoveRange> ranges) {
  const SyscallSpan span(*this, t, "sys_move_pages_async");
  Process& p = proc(t.pid);
  charge(t, cost_.syscall_entry, sim::CostKind::kSyscallEntry);
  // Validate every range up front (the whole call fails before anything is
  // queued, matching sys_move_pages_ranged).
  for (const MoveRange& r : ranges) {
    if (r.len == 0) return -kEINVAL;
    if (r.node >= topo_.num_nodes()) return -kEINVAL;
    if (!p.as.range_mapped(r.addr, r.len)) return -kEFAULT;
  }
  long queued = 0;
  for (const MoveRange& r : ranges) {
    charge(t, cost_.kmigrated_submit, sim::CostKind::kMovePagesControl);
    queued += static_cast<long>(
        submit_kmigrated_batch(t, p, r.addr, r.len, r.node, t.clock));
  }
  return queued;
}

std::uint64_t Kernel::submit_kmigrated_batch(ThreadCtx& t, Process& p,
                                             vm::Vaddr addr, std::uint64_t len,
                                             topo::NodeId node,
                                             sim::Time submit,
                                             MigrateEngine engine) {
  if (kmig_now_ < submit) kmig_now_ = submit;
  const std::uint64_t npages =
      vm::vpn_of(vm::page_align_up(addr + len)) - vm::vpn_of(addr);
  if (injector_ != nullptr && injector_->drop_kmigrated()) {
    // The batch is lost on the queue: pages stay where they are; the caller
    // only ever learns through the counters/events (fire-and-forget).
    ++kstats_.kmigrated_batches_dropped;
    trace(t, EventType::kKmigratedDrop, vm::vpn_of(addr), npages,
          topo::kInvalidNode, node);
    return 0;
  }
  trace(t, EventType::kKmigratedSubmit, vm::vpn_of(addr), npages,
        topo::kInvalidNode, node);

  // The daemon wakes after the IPI latency and no earlier than its previous
  // batch finished.
  const sim::Time start =
      std::max(submit + cost_.kmigrated_wakeup, kmigrated_.node_free_at(node));

  // Page-table mutations are applied eagerly (the simulation has no host
  // concurrency to race with), but every nanosecond is charged to the
  // daemon's slot — the submitter's clock never moves here. The daemon runs
  // on a scratch context `dt` whose stats are discarded. The transactional
  // engine bills it inline, so its clock is the batch slot. Stop-and-copy
  // instead pipelines the control work (`service`) against per-page copies
  // chained on `copy_cursor`; `dt` then only hosts nested direct demotion,
  // whose clock the batch's busy time does not count.
  const bool txn = cfg_.migration_mode == MigrationMode::kTransactional;
  sim::Time service = cost_.kmigrated_batch_base;
  sim::Time copy_cursor = start;
  ThreadCtx dt;
  dt.tid = t.tid;
  dt.pid = p.pid;
  dt.core = t.core;
  dt.clock = start + cost_.kmigrated_batch_base;
  const PageMover mover{
      txn ? PageBill{dt} : PageBill{dt, nullptr, &service, &copy_cursor},
      engine, cost_.move_pages_range_page_control,
      sim::CostKind::kMovePagesControl, sim::CostKind::kMovePagesCopy};
  std::uint64_t moved = 0;
  const vm::Vpn vend = vm::vpn_of(vm::page_align_up(addr + len));
  // Run-batched walk: one chunk lookup per 512 pages; pages without an
  // established chunk cannot be present and are skipped wholesale. The VMA
  // of resolved next-touch pages is cached across iterations — a batch
  // rarely crosses a mapping.
  const vm::Vma* nt_vma = nullptr;
  auto batch_run = [&](vm::PageRun run) {
    vm::Vpn vpn = run.first - 1;
    for (vm::Pte& pte : run.ptes) {
      ++vpn;
      if (!pte.present() || (pte.flags & vm::Pte::kHuge)) continue;
      const bool was_nt = pte.next_touch();
      if (pte.node() != node) {
        const MigrateResult r = migrate_page(mover, p, pte, vpn, node);
        if (r == MigrateResult::kDeferred) continue;  // left for a later pass
        if (r == MigrateResult::kOk) {
          ++moved;
          ++kstats_.kmigrated_pages;
        } else {
          // Per-page ENOMEM or copy failure degrades just this page; the
          // pipeline already rolled it back and counted migrations_failed.
          ++kstats_.kmigrated_pages_failed;
        }
      }
      if (was_nt) {
        // The daemon resolves the pending next-touch mark so the eventual
        // touch is an ordinary access, not a fault.
        if (nt_vma == nullptr || !nt_vma->contains(vm::addr_of(vpn)))
          nt_vma = p.as.find(vm::addr_of(vpn));
        if (nt_vma != nullptr) {
          pte.clear(vm::Pte::kNextTouch);
          pte.set(vm::Pte::kAccessed);
          pte.restore_hw(nt_vma->prot);
        }
      }
    }
  };
  p.as.page_table().for_each_run(vm::vpn_of(addr), vend, batch_run);
  if (moved > 0) {
    // One coalesced shootdown round for the whole batch (each commit only
    // flushed locally; the remote round lands here). The next-touch
    // resolution needs no soft-TLB bump — NT pages cannot sit under a
    // current-generation descriptor, since arming them bumped the generation.
    const sim::Time round = shootdown_round(dt, moved);
    if (txn) charge(dt, round, sim::CostKind::kTlbShootdown);
    else service += round;
  }

  const sim::Time busy_until =
      txn ? dt.clock : std::max(start + service, copy_cursor);
  const sim::Slot slot = kmigrated_.submit(node, start, busy_until - start);
  ++kstats_.kmigrated_batches;
  if (h_kmigrated_batch_ != nullptr)
    h_kmigrated_batch_->record(slot.finish - submit);
  if (!sinks_.empty()) {
    // Stamped at completion, on the daemon's timeline.
    emit(instant_event(t, event_type_name(EventType::kKmigratedComplete),
                       slot.finish)
             .add_arg("vpn", static_cast<std::int64_t>(vm::vpn_of(addr)))
             .add_arg("pages", static_cast<std::int64_t>(moved))
             .add_arg("from", -1)
             .add_arg("to", static_cast<std::int64_t>(node)));
  }
  return moved;
}

void Kernel::kmigrated_drain(ThreadCtx& t) {
  if (kmig_now_ < t.clock) kmig_now_ = t.clock;
  const sim::Time done = kmigrated_.drained_at();
  if (done > t.clock) kmig_now_ = done;
  wait_until(t, done);
}

}  // namespace numasim::kern

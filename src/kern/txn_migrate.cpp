// Transactional shadow-copy migration: the TxnMigrator state machine and
// Kernel::do_migrate_page_txn, the one-call driver the migration paths use.
#include "kern/txn_migrate.hpp"

#include "kern/kernel.hpp"

namespace numasim::kern {

const char* migration_mode_name(MigrationMode m) {
  switch (m) {
    case MigrationMode::kStopAndCopy: return "stop_and_copy";
    case MigrationMode::kTransactional: return "transactional";
  }
  return "?";
}

TxnMigrator::TxnMigrator(Kernel& k, std::uint32_t pid, vm::Vpn vpn,
                         topo::NodeId target, sim::CostKind control_kind,
                         sim::CostKind copy_kind)
    : k_(k),
      pid_(pid),
      vpn_(vpn),
      target_(target),
      control_kind_(control_kind),
      copy_kind_(copy_kind) {}

vm::Pte* TxnMigrator::find_pte() {
  // Resolved once: chunk storage is arena-backed and never freed, so the
  // pointer stays valid for the table's lifetime. A racing fault only grows
  // other chunks; a munmap zeroes the entry in place (seen as !present by
  // the per-step validity checks).
  if (pte_ == nullptr) pte_ = k_.proc(pid_).as.page_table().find(vpn_);
  return pte_;
}

void TxnMigrator::copy_pass(ThreadCtx& t, vm::Pte& pte, topo::NodeId from) {
  gen_ = pte.write_gen;
  injected_dirty_ = false;
  const sim::Slot c = k_.hw_.copy(t.clock, from, target_, mem::kPageSize,
                                  k_.cost_.kernel_copy_bytes_per_us);
  t.stats.add(copy_kind_, c.finish - t.clock);
  t.clock = c.finish;
  if (k_.injector_ != nullptr) {
    switch (k_.injector_->copy_verdict()) {
      case CopyVerdict::kOk:
        break;
      case CopyVerdict::kTransient:
        // The copy raced a write it could not see: treat as a dirty hit so
        // the fault lands in the bounded retry loop, not as a batch abort.
        injected_dirty_ = true;
        break;
      case CopyVerdict::kPermanent:
        injected_permanent_ = true;
        break;
    }
  }
}

bool TxnMigrator::dirty_since_copy(const vm::Pte& pte) const {
  // A write fault mid-transaction clears kTxn (the writer never waits), so
  // a missing flag is as conclusive as a bumped generation.
  return injected_dirty_ || !(pte.flags & vm::Pte::kTxn) ||
         pte.write_gen != gen_;
}

void TxnMigrator::do_shadow_copy(ThreadCtx& t) {
  vm::Pte* pte = find_pte();
  if (pte == nullptr || !pte->present() ||
      (pte->flags & (vm::Pte::kReplica | vm::Pte::kHuge))) {
    state_ = TxnState::kDegraded;
    return;
  }
  // Shadow-frame admission control: the transaction doubles the page's
  // footprint until commit, so below the low watermark we yield the frame
  // budget to stop-and-copy (which frees the source as it lands).
  if (k_.phys_.under_pressure(target_)) {
    state_ = TxnState::kDegraded;
    return;
  }
  shadow_ = k_.alloc_migration_frame(target_);
  if (shadow_ == mem::kInvalidFrame) {
    state_ = TxnState::kDegraded;
    return;
  }
  k_.phys_.mark_shadow(shadow_);
  hw_bits_ = pte->flags & (vm::Pte::kHwRead | vm::Pte::kHwWrite);
  marks_ = pte->flags & (vm::Pte::kNextTouch | vm::Pte::kNumaHint);
  k_.charge(t, k_.cost_.txn_shadow_control, control_kind_);
  copy_pass(t, *pte, k_.phys_.node_of(pte->frame));
  state_ = TxnState::kWriteProtect;
}

void TxnMigrator::do_write_protect(ThreadCtx& t) {
  vm::Pte* pte = find_pte();
  if (invalidated(pte)) {
    state_ = TxnState::kAbort;
    return;
  }
  k_.charge(t, k_.cost_.pte_update + k_.cost_.tlb_flush_local, control_kind_);
  pte->clear(vm::Pte::kHwWrite);
  pte->set(vm::Pte::kTxn);
  // Txn-arm site — and the linchpin of the soft-TLB's write_gen argument:
  // from here on a cached write descriptor could let a fast-path write skip
  // the ++write_gen this migrator's dirty check watches. Bumping the mapping
  // generation HERE guarantees every write between arm and commit/abort
  // misses the cache and takes the slow path (faulting on the cleared
  // kHwWrite), which bumps write_gen as the dirty check requires.
  k_.stlb_invalidate(k_.proc(pid_));
  state_ = TxnState::kVerifyClean;
}

void TxnMigrator::do_verify(ThreadCtx& t) {
  k_.charge(t, k_.cost_.txn_verify, control_kind_);
  vm::Pte* pte = find_pte();
  if (invalidated(pte) || injected_permanent_) {
    state_ = TxnState::kAbort;
    return;
  }
  state_ = dirty_since_copy(*pte) ? TxnState::kDirtyRetry : TxnState::kCommitFlip;
}

void TxnMigrator::do_commit(ThreadCtx& t) {
  vm::Pte* pte = find_pte();
  if (invalidated(pte)) {
    state_ = TxnState::kAbort;
    return;
  }
  // One last check right under the flip: a write may have slipped in
  // between verify and commit.
  if (dirty_since_copy(*pte)) {
    state_ = TxnState::kDirtyRetry;
    return;
  }
  k_.charge(t, k_.cost_.txn_commit, control_kind_);
  const topo::NodeId from = k_.phys_.node_of(pte->frame);
  k_.phys_.clear_shadow(shadow_);
  k_.commit_page(k_.proc(pid_), *pte, vpn_, shadow_);
  shadow_ = mem::kInvalidFrame;
  pte->clear(vm::Pte::kTxn | vm::Pte::kHwRead | vm::Pte::kHwWrite);
  pte->set(hw_bits_);
  ++k_.kstats_.txn_commits;
  if (k_.h_txn_retries_ != nullptr) k_.h_txn_retries_->record(retries_);
  k_.trace(t, EventType::kTxnCommit, vpn_, 1, from, target_);
  state_ = TxnState::kCommitted;
}

void TxnMigrator::do_dirty_retry(ThreadCtx& t) {
  vm::Pte* pte = find_pte();
  if (retries_ >= k_.cost_.txn_retry_max || invalidated(pte)) {
    state_ = TxnState::kAbort;
    return;
  }
  k_.charge(t, k_.cost_.txn_backoff(retries_), control_kind_);
  ++retries_;
  ++k_.kstats_.txn_dirty_retries;
  k_.trace(t, EventType::kTxnDirtyRetry, vpn_, 1, k_.phys_.node_of(pte->frame),
           target_);
  copy_pass(t, *pte, k_.phys_.node_of(pte->frame));
  state_ = TxnState::kWriteProtect;
}

void TxnMigrator::do_abort(ThreadCtx& t) {
  if (shadow_ != mem::kInvalidFrame) {
    k_.phys_.free(shadow_);  // free() also drops the shadow mark
    shadow_ = mem::kInvalidFrame;
  }
  if (vm::Pte* pte = find_pte();
      pte != nullptr && pte->present() && (pte->flags & vm::Pte::kTxn)) {
    k_.charge(t, k_.cost_.pte_update, control_kind_);
    pte->clear(vm::Pte::kTxn | vm::Pte::kHwRead | vm::Pte::kHwWrite);
    pte->set(hw_bits_);
    // Restoring hw bits only widens, but bump anyway: cheap, and keeps the
    // rule simple — every txn state that rewrites a PTE invalidates.
    k_.stlb_invalidate(k_.proc(pid_));
  }
  ++k_.kstats_.txn_aborted;
  k_.trace(t, EventType::kTxnAbort, vpn_, 1, topo::kInvalidNode, target_);
  state_ = TxnState::kDegraded;
}

TxnState TxnMigrator::step(ThreadCtx& t) {
  switch (state_) {
    case TxnState::kShadowCopy: do_shadow_copy(t); break;
    case TxnState::kWriteProtect: do_write_protect(t); break;
    case TxnState::kVerifyClean: do_verify(t); break;
    case TxnState::kCommitFlip: do_commit(t); break;
    case TxnState::kDirtyRetry: do_dirty_retry(t); break;
    case TxnState::kAbort: do_abort(t); break;
    case TxnState::kCommitted:
    case TxnState::kDegraded: break;  // terminal
  }
  return state_;
}

TxnState TxnMigrator::run(ThreadCtx& t) {
  while (state_ != TxnState::kCommitted && state_ != TxnState::kDegraded) step(t);
  return state_;
}

Kernel::TxnResult Kernel::do_migrate_page_txn(ThreadCtx& t, Process& p,
                                              vm::Vpn vpn, topo::NodeId from,
                                              topo::NodeId target,
                                              sim::CostKind control_kind,
                                              sim::CostKind copy_kind) {
  const sim::Time begin = t.clock;
  TxnMigrator txn(*this, p.pid, vpn, target, control_kind, copy_kind);
  const TxnState end = txn.run(t);
  if (!sinks_.empty()) {
    emit(span_event(t, "txn-migrate", begin, t.clock - begin)
             .add_arg("vpn", static_cast<std::int64_t>(vpn))
             .add_arg("to", static_cast<std::int64_t>(target))
             .add_arg("retries", static_cast<std::int64_t>(txn.retries()))
             .add_arg("committed", end == TxnState::kCommitted ? 1 : 0));
  }
  if (end == TxnState::kCommitted) return TxnResult::kCommitted;
  ++kstats_.txn_degraded;
  trace(t, EventType::kTxnDegraded, vpn, 1, from, target);
  return TxnResult::kDegraded;
}

}  // namespace numasim::kern

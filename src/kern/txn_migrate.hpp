// Transactional shadow-copy page migration (NOMAD-style).
//
// The stop-and-copy paths isolate a page, copy it, and remap it while the
// owning task stalls on the migration critical section. The transactional
// migrator instead copies the page to a *shadow frame* while the mapping
// stays fully accessible, then write-protects it, re-verifies that the page
// stayed clean (the PTE dirty bit, cleared before each copy pass, as Nomad
// does), and commits with an atomic PTE flip + local flush. Like a Linux
// migration, the transaction hands the dirty bit on: the page ends dirty if
// it was dirty before or written during it. A page dirtied during the copy
// window is re-copied under a bounded retry budget with exponential backoff
// in simulated time; exhausting the budget (or a permanent injected copy
// fault) releases the shadow frame and degrades gracefully to the existing
// stop-and-copy path — or defers the page entirely, for numab promotion —
// instead of failing the batch.
//
//     kShadowCopy ──► kWriteProtect ──► kVerifyClean ──► kCommitFlip ──► kCommitted
//          ▲                                 │ dirty          │ dirty
//          └────────────── kDirtyRetry ◄─────┴────────────────┘
//                               │ budget exhausted / permanent fault
//                               ▼
//                            kAbort ──► kDegraded
//
// The state machine is exposed step-wise so tests can interleave a racing
// writer between any two states; Kernel::do_migrate_page_txn drives it to a
// terminal state in one call. A write fault on a kTxn-protected page clears
// the protection immediately (the writer never waits); the verify step then
// finds kTxn gone and loops through kDirtyRetry. A write that needs no fault
// (the copy window before the protection, or a timing-free poke) sets kDirty,
// which the verify and commit steps test as well.
#pragma once

#include <cstdint>

#include "mem/phys.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"
#include "topo/topology.hpp"
#include "vm/page_table.hpp"

namespace numasim::kern {

class Kernel;
struct ThreadCtx;

/// Which engine Kernel's migration paths use. Selected via
/// KernelConfig::migration_mode; kStopAndCopy is the paper-faithful default
/// and runs event-for-event identical to kernels predating this module.
enum class MigrationMode : std::uint8_t {
  kStopAndCopy,    ///< isolate -> copy -> remap, task stalls (default)
  kTransactional,  ///< shadow copy while mapped, verify, atomic flip
};

const char* migration_mode_name(MigrationMode m);

/// States of one transactional page migration.
enum class TxnState : std::uint8_t {
  kShadowCopy,    ///< admission + shadow-frame alloc + first copy
  kWriteProtect,  ///< clear the hw write bit, arm kTxn
  kVerifyClean,   ///< dirty-bit check over the copy window
  kCommitFlip,    ///< re-check + atomic PTE flip + local flush
  kDirtyRetry,    ///< backoff, then re-copy (bounded by txn_retry_max)
  kAbort,         ///< shadow frame released, protection restored
  kCommitted,     ///< terminal: page now on the target node
  kDegraded,      ///< terminal: caller must stop-and-copy or defer
};

/// One transactional page migration, exposed step-wise. Construct with the
/// owning kernel and the page's identity; call step() until state() is
/// terminal (kCommitted or kDegraded), or run() to drive it in one go. The
/// PTE pointer is resolved once and re-validated (present/flag checks) at
/// every step — chunk storage never moves — so a racing thread may still
/// fault, write, or unmap the page between steps and be observed.
class TxnMigrator {
 public:
  TxnMigrator(Kernel& k, std::uint32_t pid, vm::Vpn vpn, topo::NodeId target,
              sim::CostKind control_kind, sim::CostKind copy_kind);

  /// Advance the machine by one state; returns the new state.
  TxnState step(ThreadCtx& t);
  /// step() until a terminal state; returns it.
  TxnState run(ThreadCtx& t);

  TxnState state() const { return state_; }
  unsigned retries() const { return retries_; }
  /// Shadow frame currently held (kInvalidFrame outside the copy window).
  mem::FrameId shadow_frame() const { return shadow_; }

 private:
  void do_shadow_copy(ThreadCtx& t);
  void do_write_protect(ThreadCtx& t);
  void do_verify(ThreadCtx& t);
  void do_commit(ThreadCtx& t);
  void do_dirty_retry(ThreadCtx& t);
  void do_abort(ThreadCtx& t);

  /// Charge one shadow-copy pass and open its copy window: fold the page's
  /// kDirty into was_dirty_ and clear it, so a later write shows.
  void copy_pass(ThreadCtx& t, vm::Pte& pte, topo::NodeId from);
  /// Has the page been written (or otherwise invalidated) since copy_pass?
  bool dirty_since_copy(const vm::Pte& pte) const;
  /// The page stopped being a plain migratable mapping mid-flight: unmapped,
  /// turned replica/huge, or its next-touch/NUMA-hint marks changed under us
  /// (an madvise or scan raced the transaction). Grounds for kAbort.
  bool invalidated(const vm::Pte* pte) const {
    return pte == nullptr || !pte->present() ||
           (pte->flags & (vm::Pte::kReplica | vm::Pte::kHuge)) ||
           (pte->flags & (vm::Pte::kNextTouch | vm::Pte::kNumaHint)) != marks_;
  }
  vm::Pte* find_pte();

  Kernel& k_;
  std::uint32_t pid_;
  vm::Vpn vpn_;
  topo::NodeId target_;
  sim::CostKind control_kind_;
  sim::CostKind copy_kind_;

  TxnState state_ = TxnState::kShadowCopy;
  mem::FrameId shadow_ = mem::kInvalidFrame;
  unsigned retries_ = 0;
  vm::Pte* pte_ = nullptr;  ///< resolved once; entries are chunk-stable
  /// The page carried kDirty at some copy pass; do_commit and do_abort set
  /// it again, so the transaction never loses the bit.
  bool was_dirty_ = false;
  bool injected_dirty_ = false;    ///< injector verdict: transient copy fault
  bool injected_permanent_ = false;
  std::uint16_t hw_bits_ = 0;  ///< hw permission bits to restore on exit
  std::uint16_t marks_ = 0;    ///< next-touch/NUMA-hint marks at admission
};

}  // namespace numasim::kern

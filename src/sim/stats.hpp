// Cost-category accounting (the instrumentation behind the paper's Fig. 6).
//
// Every nanosecond the simulated kernel or user library spends is attributed
// to one CostKind; benchmarks aggregate these to print the paper's
// "Next-Touch Migration Cost Percentage" breakdowns.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "sim/time.hpp"

namespace numasim::sim {

/// Every cost category, one row each: X(enumerator, "name"). It expands into
/// CostKind (in row order; CostStats indexes by it) and the name table
/// behind cost_kind_name(). kCount stays last, outside the list.
#define NUMASIM_COST_KINDS(X)                                                   \
  X(kCompute, "compute")  /* user-space arithmetic */                           \
  /* user-space loads/stores through the cache model */                         \
  X(kMemAccess, "mem-access")                                                   \
  X(kSyscallEntry, "syscall-entry")  /* kernel entry/exit trampolines */        \
  /* move_pages: locking, page-table walks, status arrays */                    \
  X(kMovePagesControl, "move_pages-control")                                    \
  /* move_pages: the actual page copies */                                      \
  X(kMovePagesCopy, "move_pages-copy")                                          \
  /* migrate_pages: VMA traversal and bookkeeping */                            \
  X(kMigratePagesControl, "migrate_pages-control")                              \
  /* migrate_pages: the actual page copies */                                   \
  X(kMigratePagesCopy, "migrate_pages-copy")                                    \
  X(kPageFault, "page-fault")  /* fault entry + VMA lookup + PTE inspection */  \
  X(kSignalDelivery, "signal-delivery")  /* SIGSEGV delivery + sigreturn */     \
  /* user-space work inside a signal handler */                                 \
  X(kUserHandler, "user-handler")                                               \
  /* mprotect() used to arm user next-touch */                                  \
  X(kMprotectMark, "mprotect-mark")                                             \
  /* mprotect() restoring protection after migration */                         \
  X(kMprotectRestore, "mprotect-restore")                                       \
  X(kMadvise, "madvise")  /* madvise(MADV_MIGRATE_ON_NEXT_TOUCH) marking */     \
  /* kernel next-touch fault path bookkeeping */                                \
  X(kNextTouchControl, "next-touch-control")                                    \
  X(kNextTouchCopy, "next-touch-copy")  /* kernel next-touch page copies */     \
  X(kTlbShootdown, "tlb-shootdown")  /* remote TLB invalidation IPIs */         \
  /* replication bookkeeping (extension) */                                     \
  X(kReplicaControl, "replica-control")                                         \
  X(kReplicaCopy, "replica-copy")  /* replica page copies (extension) */        \
  X(kLockWait, "lock-wait")  /* queueing on the page-table lock */              \
  X(kAllocZero, "alloc-zero")  /* first-touch allocation + zero-fill */         \
  X(kNumaScan, "numa-scan")  /* autonuma: scan-clock PTE unmapping windows */   \
  /* autonuma: hint-fault bookkeeping + promotion submits */                    \
  X(kNumaHint, "numa-hint")                                                     \
  /* autonuma: sched::Balancer evaluation passes */                             \
  X(kNumaBalance, "numa-balance")                                               \
  X(kOther, "other")

enum class CostKind : std::uint8_t {
#define NUMASIM_COST_KIND_ENUMERATOR(e, name) e,
  NUMASIM_COST_KINDS(NUMASIM_COST_KIND_ENUMERATOR)
#undef NUMASIM_COST_KIND_ENUMERATOR
  kCount
};

constexpr std::size_t kCostKindCount = static_cast<std::size_t>(CostKind::kCount);

std::string_view cost_kind_name(CostKind k);

/// Per-thread (or per-run) accumulator of time by category.
class CostStats {
 public:
  void add(CostKind k, Time t) { ns_[static_cast<std::size_t>(k)] += t; }
  Time get(CostKind k) const { return ns_[static_cast<std::size_t>(k)]; }

  Time total() const {
    Time sum = 0;
    for (Time t : ns_) sum += t;
    return sum;
  }

  double fraction(CostKind k) const {
    const Time t = total();
    return t == 0 ? 0.0 : static_cast<double>(get(k)) / static_cast<double>(t);
  }

  CostStats& operator+=(const CostStats& o) {
    for (std::size_t i = 0; i < kCostKindCount; ++i) ns_[i] += o.ns_[i];
    return *this;
  }

  void reset() { ns_.fill(0); }

 private:
  std::array<Time, kCostKindCount> ns_{};
};

}  // namespace numasim::sim

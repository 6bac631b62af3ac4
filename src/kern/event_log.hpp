// Kernel event log: a bounded trace of memory-management events.
//
// Attach with Kernel::add_trace_sink() (detach with remove_trace_sink());
// the kernel then records faults, migrations, markings and signals with
// their simulated timestamps. Tools (examples, debugging sessions) render
// the trace as text or CSV — the simulated analogue of ftrace's mm events.
//
// The log is one obs::TraceSink among others: it subscribes to the kernel's
// tracepoint stream and keeps the instant events whose names match the
// legacy mm event types, ignoring spans and app annotations.
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "obs/trace.hpp"
#include "sim/time.hpp"
#include "topo/topology.hpp"
#include "vm/page_table.hpp"

namespace numasim::kern {

/// Every mm tracepoint type, one row each: X(enumerator, "event-name"). It
/// expands into EventType and the name table behind event_type_name(), which
/// EventLog::record() also searches. The names are an interface: trace files
/// and EventLog renderings carry them.
#define NUMASIM_KERN_EVENTS(X)                                                  \
  X(kMinorFault, "minor-fault")  /* first-touch population */                   \
  X(kNextTouchMark, "nt-mark")  /* madvise(MIGRATE_ON_NEXT_TOUCH) */            \
  X(kNextTouchMigrate, "nt-migrate")  /* fault-path page migration */           \
  X(kMovePages, "move_pages")  /* move_pages syscall batch */                   \
  X(kMigrateProcess, "migrate_pages")  /* migrate_pages syscall */              \
  X(kSigsegv, "sigsegv")  /* signal delivered to user handler */                \
  X(kReplicaCreate, "replica-create")                                           \
  X(kReplicaCollapse, "replica-collapse")                                       \
  /* Degraded-mode events (fault injection / memory pressure): */               \
  /* transient copy failure; migration retried after backoff */                 \
  X(kMigrateRetry, "migrate-retry")                                             \
  /* migration aborted (ENOMEM or permanent copy failure); */                   \
  /* the original frame stays mapped */                                         \
  X(kMigrateFail, "migrate-fail")                                               \
  /* next-touch fault could not migrate; page mapped in place */                \
  X(kNextTouchDegraded, "nt-degraded")                                          \
  /* TLB-shootdown IPI lost and re-sent */                                      \
  X(kShootdownRetry, "shootdown-retry")                                         \
  X(kSignalDelay, "signal-delay")  /* SIGSEGV delivery delayed */               \
  /* first-touch allocation stalled in (simulated) reclaim */                   \
  X(kAllocStall, "alloc-stall")                                                 \
  /* Scalable-engine events (kmigrated daemons): */                             \
  /* batch handed to a per-node kmigrated daemon */                             \
  X(kKmigratedSubmit, "kmigrated-submit")                                       \
  /* daemon finished the batch (stamped at completion) */                       \
  X(kKmigratedComplete, "kmigrated-complete")                                   \
  X(kKmigratedDrop, "kmigrated-drop")  /* batch dropped (fault injection) */    \
  /* Automatic NUMA balancing events: */                                        \
  /* one scan-clock window tagged `pages` PTEs for hinting */                   \
  X(kNumaScan, "numab-scan")                                                    \
  /* NUMA hint fault (from = page's node, to = faulting node) */                \
  X(kNumaHintFault, "numab-hint-fault")                                         \
  /* confirmed promotion batch submitted to kmigrated */                        \
  X(kNumaPromote, "numab-promote")                                              \
  /* sched::Balancer moved a task (from/to = core ids) */                       \
  X(kNumaTaskMigrate, "numab-task-migrate")                                     \
  /* Transactional migration events (kern/txn_migrate): */                      \
  /* clean verify; page committed by atomic PTE flip */                         \
  X(kTxnCommit, "txn-commit")                                                   \
  /* page dirtied during the copy window; re-copy after backoff */              \
  X(kTxnDirtyRetry, "txn-dirty-retry")                                          \
  /* transaction gave up; caller stop-and-copied or deferred */                 \
  X(kTxnDegraded, "txn-degraded")                                               \
  /* retry budget exhausted / permanent fault; shadow released */               \
  X(kTxnAbort, "txn-abort")                                                     \
  /* Memory-tier events (kern/tiers): */                                        \
  /* hint-confirmed batch headed to a faster tier via kmigrated */              \
  X(kTierPromote, "tier-promote")                                               \
  /* cold run demoted down-tier (daemon pass or direct) */                      \
  X(kTierDemote, "tier-demote")

enum class EventType : std::uint8_t {
#define NUMASIM_KERN_EVENT_ENUMERATOR(e, name) e,
  NUMASIM_KERN_EVENTS(NUMASIM_KERN_EVENT_ENUMERATOR)
#undef NUMASIM_KERN_EVENT_ENUMERATOR
};

std::string_view event_type_name(EventType t);

struct Event {
  sim::Time when = 0;
  std::uint32_t tid = 0;
  EventType type = EventType::kMinorFault;
  vm::Vpn vpn = 0;            ///< first page involved
  std::uint64_t pages = 0;    ///< pages affected
  topo::NodeId from = topo::kInvalidNode;
  topo::NodeId to = topo::kInvalidNode;
};

/// Bounded FIFO of events (oldest dropped when full).
class EventLog : public obs::TraceSink {
 public:
  explicit EventLog(std::size_t capacity = 4096) : capacity_(capacity) {}

  /// TraceSink: keep instants whose name is a known mm event type; spans and
  /// unknown names (app annotations) pass through untouched.
  void record(const obs::TraceEvent& e) override;

  void record(const Event& e) {
    if (events_.size() == capacity_) {
      events_.pop_front();
      ++dropped_;
    }
    events_.push_back(e);
  }

  const std::deque<Event>& events() const { return events_; }
  std::uint64_t dropped() const { return dropped_; }
  void clear() {
    events_.clear();
    dropped_ = 0;
  }

  /// Human-readable rendering of the most recent `limit` events.
  std::string render(std::size_t limit = 32) const;

  /// CSV of the whole buffer (header + one row per event).
  std::string to_csv() const;

  /// Count of events of a given type currently buffered.
  std::uint64_t count(EventType t) const;

 private:
  std::size_t capacity_;
  std::uint64_t dropped_ = 0;
  std::deque<Event> events_;
};

}  // namespace numasim::kern

// Every timing constant of the simulated kernel and hardware, in one place.
//
// Defaults are calibrated against the paper's own measurements on the
// 4-socket Opteron 8347HE host (Section 4):
//   - move_pages:    ~160 us base overhead, ~600 MB/s plateau, control 38 %
//   - migrate_pages: ~400 us base overhead, ~780 MB/s plateau
//   - kernel next-touch: ~800 MB/s even for small buffers, control 20 %
//   - kernel page copy: ~1 GB/s (no SSE inside the kernel)
//   - user memcpy across nodes: ~1.8 GB/s
// Sensitivity ablation benches sweep individual constants.
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace numasim::kern {

struct CostModel {
  using Time = sim::Time;

  // --- syscall and fault plumbing -----------------------------------------
  Time syscall_entry = 150;       ///< user->kernel->user trampoline
  Time pagefault_entry = 400;     ///< hw fault + kernel entry + VMA lookup
  Time signal_delivery = 1800;    ///< SIGSEGV frame setup + dispatch to handler
  Time sigreturn = 600;           ///< return path from a signal handler

  // --- address-space management ----------------------------------------------
  Time mmap_base = 2000;
  Time munmap_base = 2000;
  Time munmap_page = 80;

  // --- page table and TLB ---------------------------------------------------
  Time pte_update = 60;            ///< rewrite one PTE
  Time tlb_flush_local = 120;      ///< invlpg-style local flush
  Time tlb_shootdown_base = 2000;  ///< IPI broadcast setup
  Time tlb_shootdown_per_core = 350;

  // --- physical page management ---------------------------------------------
  Time page_alloc = 250;
  Time page_free = 180;
  double zero_rate_bytes_per_us = 4000.0;  ///< zero-fill on first touch

  // --- copy engines -----------------------------------------------------------
  double kernel_copy_bytes_per_us = 1000.0;  ///< migrate copies: 1 GB/s
  double user_copy_bytes_per_us = 1800.0;    ///< SSE memcpy
  Time user_memcpy_base = 2000;              ///< call + cache-warmup overhead
  double core_stream_bytes_per_us = 3500.0;  ///< one core's streaming load bw

  // --- move_pages -------------------------------------------------------------
  Time move_pages_base = 160'000;        ///< paper Sec. 4.2: ~160 us
  Time move_pages_base_locked = 100'000; ///< portion under mmap_sem
  Time move_pages_page_control = 2700;   ///< per-page bookkeeping (38 % of 6.8us)
  Time move_pages_page_locked = 1600;    ///< portion under the page-table lock
  /// Unpatched (pre-2.6.29) implementation: per processed page, the status /
  /// destination array is scanned linearly -> O(n^2) total.
  double quadratic_scan_ns_per_slot = 8.0;

  /// Range-based interface (the paper's proposed improvement): sequential
  /// walk, no per-page argument processing or status write-back.
  Time move_pages_range_page_control = 1900;
  Time move_pages_range_base = 60'000;

  // --- migrate_pages -----------------------------------------------------------
  Time migrate_pages_base = 400'000;      ///< whole-VA-space traversal setup
  Time migrate_pages_page_control = 1150; ///< cheaper: in-order walk, batched locks
  Time migrate_pages_page_locked = 700;

  // --- next-touch (the paper's kernel patch) -----------------------------------
  Time madvise_base = 1200;
  Time madvise_page_mark = 150;   ///< clear hw bits + set PTE next-touch flag
  Time nt_fault_control = 600;    ///< alloc + remap in the fault path

  // --- replication (extension; paper future work) -------------------------------
  Time replica_control = 700;    ///< per-replica create/collapse bookkeeping

  // --- mprotect (drives the user-space next-touch of Fig. 1) -------------------
  Time mprotect_base = 1000;
  Time mprotect_page = 90;

  // --- degraded paths (memory pressure / fault injection) ----------------------
  /// Bounded retry of a transiently failed page copy: up to `copy_retry_max`
  /// re-attempts, backing off `copy_retry_backoff << attempt` between them
  /// (the migrate_pages -EAGAIN retry loop). Exhausting the budget aborts
  /// the migration and rolls back, leaving the original frame mapped.
  unsigned copy_retry_max = 3;
  Time copy_retry_backoff = 5'000;
  Time copy_backoff(unsigned attempt) const {
    return copy_retry_backoff << attempt;
  }
  // --- transactional migration (kern/txn_migrate, NOMAD-style) -----------------
  /// Bounded dirty-retry budget: a page found dirty after its shadow copy is
  /// re-copied up to `txn_retry_max` times, backing off
  /// `txn_retry_backoff << attempt` between attempts; exhaustion degrades
  /// the page to the stop-and-copy path.
  unsigned txn_retry_max = 4;
  Time txn_retry_backoff = 4'000;
  Time txn_backoff(unsigned attempt) const { return txn_retry_backoff << attempt; }
  /// Shadow-frame setup (alloc bookkeeping + copy kickoff, outside any lock).
  Time txn_shadow_control = 700;
  /// Dirty-bit verification after write-protecting the page.
  Time txn_verify = 250;
  /// The atomic PTE flip + local flush of a clean commit.
  Time txn_commit = 400;
  /// Serialized per-page share of a transactional batch: only the commit
  /// flips contend (the copies run outside the critical section), so these
  /// replace move_pages_serial_per_page / nt_serial_per_page (coarse) and
  /// range_serial_per_page / nt_range_serial_per_page (range) when
  /// migration_mode == kTransactional.
  Time txn_commit_serial_per_page = 900;
  Time txn_range_commit_serial_per_page = 700;

  /// Wait before re-sending a lost TLB-shootdown IPI (csd-lock timeout).
  Time tlb_shootdown_resend_wait = 10'000;
  /// Extra latency of a delayed SIGSEGV delivery (queued behind a context
  /// switch).
  Time signal_redelivery_delay = 20'000;
  /// Direct-reclaim stall charged when a first-touch allocation hits
  /// (injected) pressure before the reserve pool satisfies it.
  Time reclaim_stall = 50'000;

  // --- lock contention ----------------------------------------------------------
  /// Extra hold time when a lock's ownership moves between cores (cache-line
  /// bounce); applied to the coarse mmap_sem-style locks.
  Time lock_bounce = 1500;

  /// Serialized portion of migrating one page — the page-table-lock /
  /// LRU-lock / TLB-IPI critical section that concurrent migrations of the
  /// same process cannot overlap. A single thread is never limited by it
  /// (it is below the per-page total); with several threads it caps the
  /// aggregate at page_size/serial, reproducing Fig. 7's ceilings
  /// (~1.0 GB/s synchronous, ~1.3 GB/s lazy).
  Time move_pages_serial_per_page = 4100;
  Time nt_serial_per_page = 3150;
  Time migrate_pages_serial_per_page = 3600;

  // --- scalable engine (LockModel::kRange) --------------------------------------
  /// Serialized per-page cost under a per-VMA range lock: only the
  /// page-table-lock / LRU work of the page itself — the mmap_sem cache-line
  /// bounce and the full-broadcast IPI share of the coarse constants are
  /// gone, so disjoint ranges migrate in parallel up to the copy hardware.
  Time range_serial_per_page = 2500;
  Time nt_range_serial_per_page = 1900;
  /// Coalesced TLB shootdown: one IPI round per contiguous migrated run,
  /// plus a per-page invalidation at the receiving cores.
  Time tlb_shootdown_round_per_page = 80;
  Time tlb_shootdown_round(unsigned cores, std::uint64_t pages) const {
    return tlb_shootdown(cores) +
           tlb_shootdown_round_per_page * static_cast<Time>(pages);
  }

  // --- kmigrated (per-node asynchronous migration daemons) ----------------------
  Time kmigrated_submit = 1200;      ///< enqueue + daemon wakeup IPI (caller pays)
  Time kmigrated_wakeup = 8000;      ///< daemon schedule-in latency
  Time kmigrated_batch_base = 3000;  ///< dequeue + batch setup (daemon pays)

  // --- automatic NUMA balancing (task_numa_work-style sampling) -----------------
  Time numab_scan_base = 3000;   ///< one scan window: clock check + VMA walk setup
  Time numab_scan_page = 120;    ///< clear hw bits + set hint flag, per page
  Time numab_hint_fault = 600;   ///< hint-fault bookkeeping + rearm in the fault path
  Time numab_balance_eval = 4000;  ///< one sched::Balancer evaluation pass

  // --- memory tiering (promotion/demotion across device tiers) -----------------
  Time demote_scan_base = 2500;  ///< one watermark check + cold-walk setup
  Time demote_scan_page = 90;    ///< per candidate page examined by the walk
  Time demote_submit = 1500;     ///< hand one cold run to the demotion daemon
  /// Direct demotion: the allocating thread waits for the eviction to free a
  /// frame (the synchronous slow path Linux calls demotion in reclaim).
  Time demote_direct_stall = 30'000;

  // --- barriers / scheduling ------------------------------------------------------
  Time barrier_phase = 2500;     ///< one OpenMP-style barrier episode
  Time thread_spawn = 15'000;

  /// Shootdown of all cores' TLBs (mprotect/madvise over live mappings).
  Time tlb_shootdown(unsigned cores) const {
    return tlb_shootdown_base + tlb_shootdown_per_core * cores;
  }
};

}  // namespace numasim::kern

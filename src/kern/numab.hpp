// Automatic NUMA balancing: configuration and per-process sampling state.
//
// Models Linux's AutoNUMA machinery. A per-process scan clock (task_numa_work)
// periodically unmaps the hardware access bits over a sliding window of the
// address space and tags the PTEs with a hint flag; the next ordinary access
// takes a *NUMA hint fault*, which records where the task touched memory and
// — after two-reference confirmation, like numa_migrate_prep — promotes the
// page toward the faulting node through the kmigrated daemons.
//
// The kernel side (this file + the hooks in Kernel) only observes and moves
// pages. Task placement lives above the kernel in sched::Balancer, which
// consumes the decayed per-node fault scores exposed by
// Kernel::numab_task_faults / numab_preferred_node.
//
// Everything here is configuration and plain state; the logic is in
// src/kern/numab.cpp. With `enabled == false` no code path charges time,
// mutates a PTE, or emits an event — runs are event-for-event identical to a
// kernel without the subsystem.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "sim/time.hpp"
#include "topo/topology.hpp"
#include "vm/address_space.hpp"

namespace numasim::kern {

using ThreadId = std::uint32_t;

/// Task-placement policy applied by sched::Balancer.
enum class NumaPolicy : std::uint8_t {
  kNone = 0,           ///< page placement only; never move threads
  kPreferredNode = 1,  ///< move each thread toward its hottest node
  kInterchange = 2,    ///< IMAR-style: swap the pair with the best gain
};

const char* numa_policy_name(NumaPolicy p);

struct NumaBalancingConfig {
  /// Master switch. Off (the default) means the subsystem is inert: no scan
  /// ticks, no hint bits, no extra cost — byte-identical to a pre-AutoNUMA
  /// kernel.
  bool enabled = false;

  /// Scan clock period: one scan window fires per process at most once per
  /// period, driven from task context on the access path (task_numa_work).
  sim::Time scan_period = sim::microseconds(200);

  /// Pages tagged per scan window (sysctl numa_balancing_scan_size, which is
  /// in MB on Linux; pages here since the simulated spaces are small).
  std::uint64_t scan_size_pages = 256;

  /// Require two consecutive hint faults from the same node before promoting
  /// a remote page (numa_migrate_prep's last-CPU check). Off = migrate on
  /// first remote fault.
  bool two_reference = true;

  /// Minimum interval between two balancer evaluation passes.
  sim::Time balance_period = sim::microseconds(800);

  /// Task-placement policy (page placement is always on when enabled).
  NumaPolicy policy = NumaPolicy::kNone;
};

/// Decaying per-node hint-fault scores of one task (numa_faults_memory).
struct NumabTaskStats {
  /// Score per node; halved once per elapsed scan period (lazy decay).
  std::vector<double> faults;
  /// Instant up to which `faults` has been decayed.
  sim::Time decayed_to = 0;
  /// Lifetime (undecayed) hint-fault count.
  std::uint64_t total_faults = 0;
};

/// Per-process AutoNUMA state, embedded in kern::Process.
struct NumabState {
  /// The scan clock arms on the first access after enablement; the first
  /// window fires one scan_period later (mirrors task_numa_work, which
  /// delays the initial scan rather than stalling the first fault).
  bool scan_armed = false;
  sim::Time next_scan_at = 0;
  /// Resume address of the sliding scan window (mm->numa_scan_offset).
  vm::Vaddr scan_cursor = 0;
  /// Per-task fault statistics, keyed by tid (ordered: deterministic).
  std::map<ThreadId, NumabTaskStats> tasks;
  /// Promotions confirmed by the fault path, flushed to kmigrated in
  /// contiguous same-target batches at the end of the access that found them.
  std::vector<std::pair<vm::Vpn, topo::NodeId>> pending;
};

}  // namespace numasim::kern

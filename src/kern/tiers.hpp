// Memory-tier policy knobs (KernelConfig::tiers).
//
// A tiered machine (topo::MemTier on at least one node) gets two extra
// placement loops on top of AutoNUMA:
//
//  * promotion — numab hint faults on a page sitting on a slower tier pick a
//    faster-tier target (two-reference confirmed, flushed through kmigrated
//    with the configured migration engine, preferably transactional);
//  * demotion — cold pages (kNumaHint set but no refault for two scan
//    windows) walk down one tier when a fast node crosses its high
//    watermark (90 % occupancy), and directly when a migration allocation
//    on a full fast node would otherwise return ENOMEM.
//
// With `enabled == false` (the default) every tier code path is skipped and
// flat-DRAM machines behave byte-identically to the pre-tier simulator.
// See docs/memory-tiers.md for the full state machine.
#pragma once

namespace numasim::kern {

struct TierConfig {
  /// Master switch for tier-aware promotion/demotion. Off by default;
  /// turning it on without a tiered topology is a no-op.
  bool enabled = false;

  /// Enable demotion (both the watermark-driven daemon pass and direct
  /// demotion under allocation pressure). With demotion off, a full fast
  /// node fails migrations into it with per-page ENOMEM — the contrast leg
  /// of bench/ablation_tiering.
  bool demotion = true;
};

}  // namespace numasim::kern

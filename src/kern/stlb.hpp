// Per-thread software TLB: memoized extent descriptors with generation-based
// invalidation.
//
// Kernel::access() / access_strided() walk every PTE of the touched extent on
// every call — correct, but a long extent re-walked unchanged costs host time
// for nothing (the same observation Mitosis makes about real page walks).
// The SoftTlb caches the *result* of a walk that found a fully-mapped,
// same-node, flag-quiet extent as one descriptor; a later access covered by a
// valid descriptor skips the walk and charges the same bytes to the same
// node, so simulated cost and AccessResult are bit-identical to the slow path.
//
// Caching pays only when the walk is long, so Kernel::walk_extent (the one
// walker both access paths share) admits an extent — looks it up, counts the
// hit or miss, and fills on a miss — only when it spans at least one
// page-table chunk (vm::PageTable::kChunkPages = 512 pages, 2 MiB). Shorter
// extents always walk and leave kern.stlb.{hits,misses} untouched: on small
// extents (BLAS tile rows, kv values) a lookup plus a fill costs about as
// much as the walk, and 64 ways cycle long before an extent repeats.
//
// Coherence is generation-based: each Process carries a `mapping_gen` counter
// bumped (via Kernel::stlb_invalidate) at every site that can narrow what a
// cached descriptor promises — map/unmap/remap, mprotect, madvise surgery,
// policy changes, every migration commit path, numab tagging scans, and
// txn-migration arming. A descriptor is valid only while its stamped
// generation equals the process's current one, so stale entries miss without
// any walk-back; over-bumping costs only extra misses, never correctness.
// Kernel::validate(const ThreadCtx&) audits every current-generation entry
// against the page table and throws on drift, so a forgotten bump site fails
// loudly in any test that validates.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "topo/topology.hpp"
#include "vm/pte.hpp"
#include "vm/page_table.hpp"

namespace numasim::kern {

/// Small set-associative cache of extent descriptors, one per ThreadCtx.
/// Host-side bookkeeping only: lookups/insertions charge nothing and draw no
/// randomness, so simulated behaviour is independent of hits and misses.
///
/// The set array is allocated on first insert: ThreadCtx objects are created
/// in bulk (fork-join workers, daemon scratch contexts, per-call test
/// contexts) and most never access memory repeatedly, so an empty cache must
/// cost one null pointer, not ~2 KB of zeroed ways per construction.
class SoftTlb {
 public:
  SoftTlb() = default;
  SoftTlb(SoftTlb&&) noexcept = default;
  SoftTlb& operator=(SoftTlb&&) noexcept = default;
  SoftTlb(const SoftTlb& o) { *this = o; }
  SoftTlb& operator=(const SoftTlb& o) {
    if (this == &o) return *this;
    if (o.sets_ == nullptr) {
      sets_.reset();
    } else {
      if (sets_ == nullptr) sets_ = std::make_unique<Set[]>(kSets);
      std::copy(o.sets_.get(), o.sets_.get() + kSets, sets_.get());
    }
    return *this;
  }

  static constexpr std::size_t kSets = 16;
  static constexpr std::size_t kWays = 4;

  struct Entry {
    vm::Vpn first = 0;          ///< first page of the cached extent
    std::uint32_t pages = 0;    ///< extent length; 0 marks an empty way
    std::uint32_t pid = 0;      ///< owning process (ThreadCtx outlives procs)
    std::uint64_t gen = 0;      ///< Process::mapping_gen at fill time
    topo::NodeId node = 0;      ///< home node of every page in the extent
    std::uint8_t prot = 0;      ///< kReadOk / kWriteOk bits proven by the walk
  };

  static constexpr std::uint8_t kReadOk = 1u << 0;
  static constexpr std::uint8_t kWriteOk = 1u << 1;

  static constexpr std::uint8_t prot_bits(vm::Prot want) {
    std::uint8_t b = 0;
    if (vm::prot_allows(want, vm::Prot::kRead)) b |= kReadOk;
    if (vm::prot_allows(want, vm::Prot::kWrite)) b |= kWriteOk;
    return b;
  }

  /// Descriptor covering [vpn, vpn_end) for process `pid` at generation
  /// `gen` whose proven permissions include `want`; nullptr on miss.
  const Entry* lookup(std::uint32_t pid, std::uint64_t gen, vm::Vpn vpn,
                      vm::Vpn vpn_end, vm::Prot want) const {
    if (sets_ == nullptr) return nullptr;
    const std::uint8_t need = prot_bits(want);
    const Set& s = sets_[set_of(vpn)];
    for (const Entry& e : s.ways) {
      if (e.pages != 0 && e.pid == pid && e.gen == gen && e.first <= vpn &&
          vpn_end <= e.first + e.pages && (e.prot & need) == need) {
        return &e;
      }
    }
    return nullptr;
  }

  /// Install a descriptor (round-robin victim; an entry with the same pid and
  /// start is overwritten in place so re-proving a wider prot upgrades it).
  void insert(const Entry& e) {
    if (sets_ == nullptr) sets_ = std::make_unique<Set[]>(kSets);
    Set& s = sets_[set_of(e.first)];
    for (Entry& w : s.ways) {
      if (w.pages != 0 && w.pid == e.pid && w.first == e.first) {
        w = e;
        return;
      }
    }
    s.ways[s.victim % kWays] = e;
    ++s.victim;
  }

  /// Visit every cached entry (the validate() audit).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (sets_ == nullptr) return;
    for (std::size_t i = 0; i < kSets; ++i)
      for (const Entry& e : sets_[i].ways)
        if (e.pages != 0) fn(e);
  }

  void clear() { sets_.reset(); }

 private:
  struct Set {
    Entry ways[kWays];
    std::uint32_t victim = 0;
  };

  static constexpr std::size_t set_of(vm::Vpn vpn) {
    // Fibonacci hash of the extent's start page; repeated accesses to the
    // same extent index the same set, distinct hot extents spread out.
    return static_cast<std::size_t>((vpn * 0x9E3779B97F4A7C15ull) >> 60) %
           kSets;
  }

  std::unique_ptr<Set[]> sets_;
};

}  // namespace numasim::kern

// Compressed per-process page-placement metadata.
//
// For every established page-table chunk (512 pages) this keeps one small
// row of per-node present-page counts. The kernel bumps the counters at the
// handful of sites that map, remap, or unmap a frame, and range placement
// queries (pages_on_node and friends) then read one row per fully-covered
// chunk instead of touching every PTE — O(chunks + edge pages) instead of
// O(pages) over million-page address spaces. Kernel::validate() recomputes
// the rows from the page table and cross-checks, so a missed update site is
// an immediate test failure, not a silently wrong answer.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "topo/topology.hpp"
#include "vm/page_table.hpp"

namespace numasim::kern {

class PlacementCounts {
 public:
  /// Size the per-chunk rows; must run before the first inc().
  void init(unsigned num_nodes) { nodes_ = num_nodes; }

  /// A page became present on `node`.
  void inc(vm::Vpn vpn, topo::NodeId node) { ++row(vpn)[node]; }

  /// A present page went away (munmap, madvise-dontneed, teardown).
  void dec(vm::Vpn vpn, topo::NodeId node) { --row(vpn)[node]; }

  /// A present page's home frame moved between nodes (any migration path).
  void move(vm::Vpn vpn, topo::NodeId from, topo::NodeId to) {
    if (from == to) return;
    std::uint32_t* r = row(vpn);
    --r[from];
    ++r[to];
  }

  /// Present pages on `node` in the chunk with key `chunk_key`
  /// (vpn >> PageTable::kChunkBits). Chunks never touched count zero.
  std::uint32_t chunk_count(std::uint64_t chunk_key, topo::NodeId node) const {
    const auto it = rows_.find(chunk_key);
    return it == rows_.end() ? 0u : it->second[node];
  }

  unsigned num_nodes() const { return nodes_; }

  /// Visit every tracked chunk row (audit support).
  template <typename Fn>
  void for_each_row(Fn&& fn) const {
    for (const auto& [key, counts] : rows_) fn(key, counts);
  }

 private:
  std::uint32_t* row(vm::Vpn vpn) {
    const std::uint64_t key = vpn >> vm::PageTable::kChunkBits;
    // One-entry cache: faults and migrations sweep pages in order, so the
    // same chunk row is hit hundreds of times in a row. Row storage lives in
    // map nodes (address-stable across rehash) and is sized exactly once, so
    // the cached data pointer stays valid. The miss path is a separate
    // function so the hit path stays small enough to inline into the
    // per-page commit.
    if (key == cached_key_ && cached_row_ != nullptr) return cached_row_;
    return fill_row(key);
  }
  std::uint32_t* fill_row(std::uint64_t key) {
    std::vector<std::uint32_t>& r = rows_[key];
    if (r.empty()) r.assign(nodes_, 0);
    cached_key_ = key;
    cached_row_ = r.data();
    return cached_row_;
  }

  unsigned nodes_ = 0;
  std::uint64_t cached_key_ = ~0ull;
  std::uint32_t* cached_row_ = nullptr;
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> rows_;
};

}  // namespace numasim::kern

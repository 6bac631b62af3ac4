// Process address space: VMAs plus the page table.
//
// Pure bookkeeping — all cost accounting and frame management happens in the
// simulated kernel (src/kern), which drives this structure the way Linux's
// mm/ code drives mm_struct. VMAs split on partial mprotect/madvise/mbind
// and re-merge when neighbours become identical, as in Linux.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "vm/page_table.hpp"
#include "vm/policy.hpp"
#include "vm/pte.hpp"

namespace numasim::vm {

/// Virtual byte address.
using Vaddr = std::uint64_t;

constexpr Vpn vpn_of(Vaddr a) { return a >> mem::kPageShift; }
constexpr Vaddr addr_of(Vpn v) { return v << mem::kPageShift; }
constexpr Vaddr page_align_down(Vaddr a) { return a & ~(mem::kPageSize - 1); }
constexpr Vaddr page_align_up(Vaddr a) {
  return (a + mem::kPageSize - 1) & ~(mem::kPageSize - 1);
}

struct Vma {
  Vaddr start = 0;  // inclusive, page aligned
  Vaddr end = 0;    // exclusive, page aligned
  Prot prot = Prot::kReadWrite;
  MemPolicy policy;
  /// VPN of the original mapping's first page; interleave placement is
  /// computed relative to this so splits don't change page targets.
  Vpn pgoff_base = 0;
  /// 2 MiB huge mapping (MAP_HUGETLB): populated block-wise, not migratable.
  bool huge = false;
  /// Identity of the range lock covering this VMA (LockModel::kRange).
  /// Assigned once per map() call; splits inherit it, so every fragment of an
  /// original mapping shares one lock — conflicts are decided by page range,
  /// not by VMA boundary churn.
  std::uint64_t lock_id = 0;
  std::string name;

  std::uint64_t pages() const { return (end - start) >> mem::kPageShift; }
  bool contains(Vaddr a) const { return a >= start && a < end; }
  std::uint64_t pgoff(Vpn vpn) const { return vpn - pgoff_base; }
};

class AddressSpace {
 public:
  /// Lowest address handed out by map(); below is an unmapped guard region
  /// so stray null-ish accesses fault.
  static constexpr Vaddr kMmapBase = 0x1000'0000ull;
  /// End of the user address space: 47 bits, the x86-64 TASK_SIZE.
  static constexpr Vaddr kUserTop = 1ull << 47;

  /// True when [addr, addr+len) ends at or below kUserTop (Linux's
  /// `len > TASK_SIZE - addr` check). Bounding the length before any
  /// rounding keeps `addr + len` from wrapping past 2^64; kUserTop is
  /// page-aligned, so a range that passes still ends there once rounded.
  static bool in_user_range(Vaddr addr, std::uint64_t len) {
    return addr <= kUserTop && len <= kUserTop - addr;
  }

  /// Create a VMA of `len` bytes (rounded up to pages). Returns its start.
  /// `huge` requests a 2 MiB-page mapping: len must be a 2 MiB multiple and
  /// the returned address is 2 MiB aligned. Throws std::invalid_argument
  /// for a zero length and for one that would end past kUserTop.
  Vaddr map(std::uint64_t len, Prot prot, const MemPolicy& policy,
            std::string name = {}, bool huge = false);

  /// Remove VMAs overlapping [addr, addr+len), which must be in_user_range.
  /// The caller (kernel) must have freed the frames already. Returns number
  /// of pages unmapped.
  std::uint64_t unmap(Vaddr addr, std::uint64_t len);

  /// VMA containing `addr`, or nullptr.
  Vma* find(Vaddr addr);
  const Vma* find(Vaddr addr) const;

  /// True when every byte of [addr, addr+len) lies inside some VMA; false
  /// for a range that ends past kUserTop.
  bool range_mapped(Vaddr addr, std::uint64_t len) const;

  /// Apply `fn` to each VMA overlapping [start, end), splitting at the
  /// boundaries first so callers may mutate prot/policy of exactly the
  /// covered region. Returns number of VMAs visited.
  unsigned for_range(Vaddr start, Vaddr end, const std::function<void(Vma&)>& fn);

  /// Read-only iteration over all VMAs in address order.
  void for_each(const std::function<void(const Vma&)>& fn) const;

  unsigned vma_count() const { return static_cast<unsigned>(vmas_.size()); }
  /// End of the highest VMA (kMmapBase when nothing is mapped): no page
  /// lies at or above it, and it is at most kUserTop.
  Vaddr mapped_top() const {
    return vmas_.empty() ? kMmapBase : vmas_.rbegin()->second.end;
  }

  PageTable& page_table() { return pt_; }
  const PageTable& page_table() const { return pt_; }

  /// Coalesce adjacent VMAs with identical attributes (called after
  /// for_range mutations; also callable from tests).
  void merge_adjacent();

 private:
  void split_at(Vaddr addr);

  std::map<Vaddr, Vma> vmas_;  // keyed by start
  /// One-entry find() cache (map nodes are address-stable; dropped on every
  /// erase). Sequential fault/walk traffic hits the same VMA almost always.
  mutable Vma* cached_vma_ = nullptr;
  PageTable pt_;
  Vaddr next_addr_ = kMmapBase;
  std::uint64_t next_lock_id_ = 1;
};

}  // namespace numasim::vm

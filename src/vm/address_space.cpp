#include "vm/address_space.hpp"

#include <cassert>
#include <stdexcept>

namespace numasim::vm {

Vaddr AddressSpace::map(std::uint64_t len, Prot prot, const MemPolicy& policy,
                        std::string name, bool huge) {
  if (len == 0) throw std::invalid_argument{"AddressSpace::map: zero length"};
  constexpr Vaddr kHugeSize = 2ull << 20;
  const Vaddr start =
      huge ? (next_addr_ + kHugeSize - 1) & ~(kHugeSize - 1) : next_addr_;
  if (!in_user_range(start, len))
    throw std::invalid_argument{"AddressSpace::map: ends past the user address space"};
  len = page_align_up(len);
  if (huge && len % kHugeSize != 0)
    throw std::invalid_argument{"AddressSpace::map: huge length not 2MiB-multiple"};
  next_addr_ = start + len + mem::kPageSize;  // one guard page between mappings

  Vma vma;
  vma.huge = huge;
  vma.start = start;
  vma.end = start + len;
  vma.prot = prot;
  vma.policy = policy;
  vma.pgoff_base = vpn_of(start);
  vma.lock_id = next_lock_id_++;
  vma.name = std::move(name);
  vmas_.emplace(start, std::move(vma));
  return start;
}

void AddressSpace::split_at(Vaddr addr) {
  assert(addr == page_align_down(addr));
  Vma* v = find(addr);
  if (v == nullptr || v->start == addr) return;
  Vma right = *v;
  right.start = addr;
  v->end = addr;
  vmas_.emplace(addr, std::move(right));
}

std::uint64_t AddressSpace::unmap(Vaddr addr, std::uint64_t len) {
  assert(in_user_range(addr, len));
  const Vaddr start = page_align_down(addr);
  const Vaddr end = page_align_up(addr + len);
  split_at(start);
  split_at(end);

  std::uint64_t pages = 0;
  auto it = vmas_.lower_bound(start);
  while (it != vmas_.end() && it->second.start < end) {
    pages += it->second.pages();
    pt_.clear_range(vpn_of(it->second.start), vpn_of(it->second.end));
    cached_vma_ = nullptr;
    it = vmas_.erase(it);
  }
  return pages;
}

Vma* AddressSpace::find(Vaddr addr) {
  if (cached_vma_ != nullptr && cached_vma_->contains(addr)) return cached_vma_;
  auto it = vmas_.upper_bound(addr);
  if (it == vmas_.begin()) return nullptr;
  --it;
  if (!it->second.contains(addr)) return nullptr;
  cached_vma_ = &it->second;
  return cached_vma_;
}

const Vma* AddressSpace::find(Vaddr addr) const {
  return const_cast<AddressSpace*>(this)->find(addr);
}

bool AddressSpace::range_mapped(Vaddr addr, std::uint64_t len) const {
  if (!in_user_range(addr, len)) return false;
  Vaddr cur = page_align_down(addr);
  const Vaddr end = page_align_up(addr + len);
  while (cur < end) {
    const Vma* v = find(cur);
    if (v == nullptr) return false;
    cur = v->end;
  }
  return true;
}

unsigned AddressSpace::for_range(Vaddr start, Vaddr end,
                                 const std::function<void(Vma&)>& fn) {
  start = page_align_down(start);
  end = page_align_up(end);
  split_at(start);
  split_at(end);

  unsigned visited = 0;
  auto it = vmas_.lower_bound(start);
  while (it != vmas_.end() && it->second.start < end) {
    fn(it->second);
    ++visited;
    ++it;
  }
  merge_adjacent();
  return visited;
}

void AddressSpace::for_each(const std::function<void(const Vma&)>& fn) const {
  for (const auto& [start, vma] : vmas_) fn(vma);
}

void AddressSpace::merge_adjacent() {
  auto it = vmas_.begin();
  while (it != vmas_.end()) {
    auto next = std::next(it);
    if (next == vmas_.end()) break;
    Vma& a = it->second;
    const Vma& b = next->second;
    if (a.end == b.start && a.prot == b.prot && a.policy == b.policy &&
        a.pgoff_base == b.pgoff_base && a.huge == b.huge &&
        a.lock_id == b.lock_id && a.name == b.name) {
      a.end = b.end;
      cached_vma_ = nullptr;
      vmas_.erase(next);
    } else {
      it = next;
    }
  }
}

}  // namespace numasim::vm

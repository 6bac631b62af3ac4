#include "lib/numalib.hpp"

#include <vector>

namespace numasim::lib {

NumaBuffer NumaBuffer::on_node(kern::ThreadCtx& t, kern::Kernel& k,
                               std::uint64_t size, topo::NodeId node,
                               std::string name) {
  const vm::MemPolicy pol = vm::MemPolicy::bind(topo::node_mask_of(node));
  const vm::Vaddr a =
      k.sys_mmap(t, size, vm::Prot::kReadWrite, pol, std::move(name));
  return NumaBuffer{k, t.pid, a, size, pol, node};
}

NumaBuffer NumaBuffer::interleaved(kern::ThreadCtx& t, kern::Kernel& k,
                                   std::uint64_t size, std::string name) {
  const vm::MemPolicy pol = vm::MemPolicy::interleave(k.topo().all_nodes_mask());
  const vm::Vaddr a =
      k.sys_mmap(t, size, vm::Prot::kReadWrite, pol, std::move(name));
  return NumaBuffer{k, t.pid, a, size, pol, topo::kInvalidNode};
}

NumaBuffer NumaBuffer::local(kern::ThreadCtx& t, kern::Kernel& k,
                             std::uint64_t size, std::string name) {
  const vm::MemPolicy pol = vm::MemPolicy::first_touch();
  const vm::Vaddr a =
      k.sys_mmap(t, size, vm::Prot::kReadWrite, pol, std::move(name));
  return NumaBuffer{k, t.pid, a, size, pol, topo::kInvalidNode};
}

NumaBuffer NumaBuffer::tiered(kern::ThreadCtx& t, kern::Kernel& k,
                              std::uint64_t size, topo::NodeMask allowed,
                              std::string name) {
  const vm::MemPolicy pol = tier_preferred(k.topo(), allowed);
  const vm::Vaddr a =
      k.sys_mmap(t, size, vm::Prot::kReadWrite, pol, std::move(name));
  return NumaBuffer{k, t.pid, a, size, pol, topo::kInvalidNode};
}

void NumaBuffer::populate(kern::ThreadCtx& t) {
  kernel_->access(t, addr_, size_, vm::Prot::kReadWrite,
                  kernel_->cost().zero_rate_bytes_per_us);
}

kern::SyscallResult NumaBuffer::lazy_migrate(kern::ThreadCtx& t) {
  return kernel_->sys_madvise(t, addr_, size_,
                              kern::Advice::kMigrateOnNextTouch);
}

kern::SyscallResult NumaBuffer::sync_migrate(kern::ThreadCtx& t,
                                             topo::NodeId node) {
  if (size_ == 0) return 0;
  const vm::Vpn first = vm::vpn_of(addr_);
  const vm::Vpn last = vm::vpn_of(addr_ + size_ - 1) + 1;
  std::vector<vm::Vaddr> pages;
  pages.reserve(last - first);
  for (vm::Vpn vpn = first; vpn < last; ++vpn) pages.push_back(vm::addr_of(vpn));
  std::vector<topo::NodeId> nodes(pages.size(), node);
  std::vector<int> status(pages.size(), 0);
  const kern::SyscallResult r = kernel_->sys_move_pages(t, pages, nodes, status);
  if (!r.ok()) return r;
  long ok = 0;
  for (int s : status)
    if (s == static_cast<int>(node)) ++ok;
  return ok;
}

std::uint64_t NumaBuffer::pages_on(topo::NodeId node) const {
  if (kernel_ == nullptr || addr_ == 0) return 0;
  return kernel_->pages_on_node(pid_, addr_, size_, node);
}

kern::SyscallResult NumaBuffer::free(kern::ThreadCtx& t) {
  if (kernel_ == nullptr || addr_ == 0) return 0;
  const kern::SyscallResult r = kernel_->sys_munmap(t, addr_, size_);
  kernel_ = nullptr;
  addr_ = 0;
  size_ = 0;
  return r;
}

vm::MemPolicy tier_preferred(const topo::Topology& topo,
                             topo::NodeMask allowed) {
  if (allowed == 0) allowed = topo.all_nodes_mask();
  return vm::MemPolicy::preferred_many(allowed & topo.all_nodes_mask());
}

}  // namespace numasim::lib

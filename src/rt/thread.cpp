#include "rt/thread.hpp"

#include <algorithm>
#include <stdexcept>

namespace numasim::rt {

Thread::Thread(Machine& m, kern::ThreadId tid, topo::CoreId core) : m_(m) {
  ctx_.tid = tid;
  ctx_.pid = m.pid();
  ctx_.core = core;
}

Thread::Step<> Thread::sync() { return step(); }

Thread::Step<> Thread::compute(sim::Time ns) {
  kern::charge(ctx_, ns, sim::CostKind::kCompute);
  return step();
}

Thread::Step<> Thread::migrate_to_core(topo::CoreId core) {
  kern::charge(ctx_, m_.cost().thread_spawn,
               sim::CostKind::kOther);  // context migration cost
  ctx_.core = core;
  return step();
}

Thread::Step<vm::Vaddr> Thread::mmap(std::uint64_t len, vm::Prot prot,
                                     vm::MemPolicy policy, std::string name) {
  return step(kernel().sys_mmap(ctx_, len, prot, policy, std::move(name)));
}

Thread::Step<kern::SyscallResult> Thread::munmap(vm::Vaddr addr, std::uint64_t len) {
  return step(kernel().sys_munmap(ctx_, addr, len));
}

Thread::Step<kern::SyscallResult> Thread::mprotect(vm::Vaddr addr, std::uint64_t len,
                                                   vm::Prot prot) {
  return step(kernel().sys_mprotect(ctx_, addr, len, prot));
}

Thread::Step<kern::SyscallResult> Thread::madvise(vm::Vaddr addr, std::uint64_t len,
                                                  kern::Advice advice) {
  return step(kernel().sys_madvise(ctx_, addr, len, advice));
}

Thread::Step<kern::SyscallResult> Thread::mbind(vm::Vaddr addr, std::uint64_t len,
                                                vm::MemPolicy policy) {
  return step(kernel().sys_mbind(ctx_, addr, len, policy));
}

Thread::Step<kern::SyscallResult> Thread::set_mempolicy(vm::MemPolicy policy) {
  return step(kernel().sys_set_mempolicy(ctx_, policy));
}

sim::Task<kern::AccessResult> Thread::touch(vm::Vaddr addr, std::uint64_t len,
                                            vm::Prot want, double stream_rate) {
  kern::AccessResult total;
  std::uint64_t off = 0;
  while (off < len) {
    const std::uint64_t n = std::min(kChunkBytes, len - off);
    const kern::AccessResult r = co_await touch_step(addr + off, n, want, stream_rate);
    total.pages += r.pages;
    total.minor_faults += r.minor_faults;
    total.nexttouch_migrations += r.nexttouch_migrations;
    total.nexttouch_hits_local += r.nexttouch_hits_local;
    total.sigsegv_delivered += r.sigsegv_delivered;
    off += n;
  }
  co_return total;
}

Thread::Step<kern::AccessResult> Thread::touch_step(vm::Vaddr addr, std::uint64_t len,
                                                    vm::Prot want, double stream_rate) {
  if (len > kChunkBytes)
    throw std::invalid_argument("Thread::touch_step: len exceeds one chunk");
  if (stream_rate < 0) stream_rate = m_.cost().core_stream_bytes_per_us;
  return step(kernel().access(ctx_, addr, len, want, stream_rate));
}

sim::Task<kern::AccessResult> Thread::touch_pages_sparse(vm::Vaddr addr,
                                                         std::uint64_t len,
                                                         vm::Prot want) {
  // Touching one word per page is, fault-wise, the same as walking the range
  // with no data-plane charge — so this is touch() at stream rate 0. Going
  // through the chunked range access keeps the kernel's per-batch migration
  // pipeline anchored per chunk, not per page.
  return touch(addr, len, want, 0.0);
}

Thread::Step<int> Thread::memcpy_user(vm::Vaddr dst, vm::Vaddr src, std::uint64_t len) {
  return step(kernel().user_memcpy(ctx_, dst, src, len));
}

Thread::Step<int> Thread::read(vm::Vaddr addr, std::span<std::byte> out) {
  return step(kernel().read_bytes(ctx_, addr, out));
}

Thread::Step<int> Thread::write(vm::Vaddr addr, std::span<const std::byte> in) {
  return step(kernel().write_bytes(ctx_, addr, in));
}

sim::Task<kern::SyscallResult> Thread::move_pages(
    std::span<const vm::Vaddr> pages, std::span<const topo::NodeId> nodes,
    std::span<int> status) {
  if (!nodes.empty() && nodes.size() != pages.size()) co_return -kern::kEINVAL;
  if (status.size() != pages.size()) co_return -kern::kEINVAL;
  if (pages.empty()) {
    // Mirror the kernel's nr_pages == 0 fast path (no mmap_sem, no base).
    const kern::SyscallResult r = kernel().sys_move_pages(ctx_, pages, nodes, status);
    co_await m_.engine().resume_at(ctx_.clock);
    co_return r;
  }
  kernel().move_pages_enter(ctx_, pages.size());
  co_await m_.engine().resume_at(ctx_.clock);
  for (std::size_t off = 0; off < pages.size(); off += kChunkPages) {
    const std::size_t n = std::min(kChunkPages, pages.size() - off);
    kernel().move_pages_chunk(ctx_, pages.subspan(off, n),
                              nodes.empty() ? nodes : nodes.subspan(off, n),
                              status.subspan(off, n), pages.size());
    co_await m_.engine().resume_at(ctx_.clock);
  }
  co_return 0;
}

sim::Task<kern::SyscallResult> Thread::move_range(vm::Vaddr addr,
                                                  std::uint64_t len,
                                                  topo::NodeId node) {
  const vm::Vpn first = vm::vpn_of(addr);
  const vm::Vpn last = vm::vpn_of(addr + len - 1) + 1;
  std::vector<vm::Vaddr> pages;
  pages.reserve(last - first);
  for (vm::Vpn vpn = first; vpn < last; ++vpn) pages.push_back(vm::addr_of(vpn));
  std::vector<topo::NodeId> nodes(pages.size(), node);
  std::vector<int> status(pages.size(), 0);
  const kern::SyscallResult r = co_await move_pages(pages, nodes, status);
  if (!r.ok()) co_return r;
  long moved = 0;
  for (int s : status)
    if (s >= 0) ++moved;
  co_return moved;
}

Thread::Step<kern::SyscallResult> Thread::migrate_pages(kern::Pid target,
                                                        topo::NodeMask from,
                                                        topo::NodeMask to) {
  return step(kernel().sys_migrate_pages(ctx_, target, from, to));
}

Thread::Step<kern::SyscallResult> Thread::move_range_async(vm::Vaddr addr,
                                                           std::uint64_t len,
                                                           topo::NodeId node) {
  const kern::Kernel::MoveRange r{addr, len, node};
  return step(kernel().sys_move_pages_async(ctx_, std::span{&r, 1}));
}

Thread::Step<> Thread::kmigrated_drain() {
  kernel().kmigrated_drain(ctx_);
  return step();
}

sim::Task<void> Thread::barrier(sim::Barrier& b) {
  co_await m_.engine().resume_at(ctx_.clock);
  co_await b.arrive();
  ctx_.clock = m_.engine().now();
}

}  // namespace numasim::rt

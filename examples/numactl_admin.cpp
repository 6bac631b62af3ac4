// Administrator's view: whole-process migration with migrate_pages.
//
// The paper (Sec. 2.3) describes migrate_pages as "mostly a load-balancing
// feature that administrators use to split a large single machine into
// pieces (cpusets) and share it between multiple users". This example plays
// that scenario: two processes first share nodes {0,1}; the administrator
// then gives each its own half of the machine and migrates their memory
// wholesale, watching placement through numa_maps and the event trace.
//
// Compat note: this example used to consume the raw Linux ABI long from
// sys_migrate_pages (negative errno or moved-count); it now keeps the typed
// kern::SyscallResult and reads .ok()/.error()/.count(). The ABI value is
// still available via implicit long conversion for code that needs it.
//
//   $ ./numactl_admin
#include <cstdio>

#include "kern/kernel.hpp"

using namespace numasim;

namespace {

void show(kern::Kernel& k, kern::Pid pid, const char* name) {
  std::printf("--- numa_maps of %s ---\n%s", name, k.numa_maps(pid).c_str());
}

}  // namespace

int main() {
  const topo::Topology topo = topo::Topology::quad_opteron();
  kern::Kernel k(kern::KernelConfig{.topology = topo,
                                    .backing = mem::Backing::kPhantom});
  kern::EventLog log;
  k.add_trace_sink(&log);

  // Two tenant processes, both initially packed onto nodes 0 and 1.
  const kern::Pid alice = k.create_process("alice");
  const kern::Pid bob = k.create_process("bob");

  kern::ThreadCtx ta;
  ta.pid = alice;
  ta.core = 0;  // node 0
  kern::ThreadCtx tb;
  tb.pid = bob;
  tb.core = 4;  // node 1

  const std::uint64_t len = 256 * mem::kPageSize;  // 1 MiB each
  const vm::Vaddr a1 = k.sys_mmap(ta, len, vm::Prot::kReadWrite,
                                  vm::MemPolicy::interleave(0b0011), "heap");
  const vm::Vaddr b1 = k.sys_mmap(tb, len, vm::Prot::kReadWrite,
                                  vm::MemPolicy::interleave(0b0011), "heap");
  k.access(ta, a1, len, vm::Prot::kWrite, 3500.0);
  k.access(tb, b1, len, vm::Prot::kWrite, 3500.0);

  std::printf("=== before partitioning (both tenants interleaved on nodes 0-1) ===\n");
  show(k, alice, "alice");
  show(k, bob, "bob");

  // Administrator decision: alice gets nodes {0,1}, bob moves to {2,3}.
  kern::ThreadCtx admin;
  admin.pid = alice;  // syscalls on behalf of the admin tool
  admin.core = 0;
  admin.clock = std::max(ta.clock, tb.clock);
  const sim::Time t0 = admin.clock;
  const kern::SyscallResult r =
      k.sys_migrate_pages(admin, bob, /*from=*/0b0011, /*to=*/0b1100);
  if (!r.ok()) {
    std::fprintf(stderr, "migrate_pages failed: errno %d\n", r.error());
    return 1;
  }
  const auto moved = static_cast<std::uint64_t>(r.count());

  std::printf("=== migrate_pages(bob, {0,1} -> {2,3}) ===\n");
  std::printf("moved %llu pages in %s (%.0f MB/s)\n\n",
              static_cast<unsigned long long>(moved),
              sim::format_time(admin.clock - t0).c_str(),
              sim::mb_per_second(moved * mem::kPageSize, admin.clock - t0));
  show(k, alice, "alice");
  show(k, bob, "bob");

  std::printf("=== kernel event trace (tail) ===\n%s", log.render(6).c_str());
  return 0;
}

// Ablation: next-touch migration under destination memory pressure.
//
// Fig. 5 measures next-touch throughput with an empty destination node; real
// machines migrate into nodes that are already busy. This sweep pre-fills
// the destination to 50/90/99/100% occupancy and replays the Fig. 5
// next-touch microbenchmark (kernel madvise and user mprotect/SIGSEGV
// flavors). Migration destinations are allocated strictly on the target
// node (__GFP_THISNODE), so pages that no longer fit degrade gracefully:
// the kernel path maps them in place on their source node, the user path
// sees per-page -ENOMEM from move_pages — either way the touch completes
// and the access is served remotely. The MB/s columns rate the touch phase
// itself: degraded pages skip the copy, so the touch finishes faster while
// the moved/degraded columns show how much data was actually localized —
// every later access to a degraded page keeps paying the remote latency.
#include <vector>

#include "common.hpp"
#include "kern/event_log.hpp"
#include "lib/user_next_touch.hpp"

using namespace numasim;

namespace {

struct Result {
  double mbps = 0.0;
  std::uint64_t moved = 0;
  std::uint64_t degraded = 0;
};

/// Fill node 1 with `filler_pages`, place `npages` on node 0, then trigger
/// next-touch from a node-1 core. `user_nt` selects the Fig. 1 user-space
/// implementation over the Fig. 2 kernel one.
Result run(const topo::Topology& t, std::uint64_t max_frames,
           std::uint64_t npages, std::uint64_t filler_pages, bool user_nt) {
  kern::KernelConfig cfg = bench::phantom_kernel_config(t);
  cfg.max_frames_per_node = max_frames;
  kern::Kernel k(cfg);
  bench::observe(k);
  const kern::Pid pid = k.create_process("pressure");
  kern::EventLog log(1 << 20);
  k.add_trace_sink(&log);

  kern::ThreadCtx owner;
  owner.pid = pid;
  owner.core = 0;  // node 0

  if (filler_pages > 0) {
    const std::uint64_t flen = filler_pages * mem::kPageSize;
    const vm::Vaddr filler = k.sys_mmap(
        owner, flen, vm::Prot::kReadWrite,
        vm::MemPolicy::bind(topo::node_mask_of(1)), "filler");
    k.access(owner, filler, flen, vm::Prot::kWrite, 3500.0);
  }

  const std::uint64_t len = npages * mem::kPageSize;
  const vm::Vaddr buf = k.sys_mmap(owner, len, vm::Prot::kReadWrite, {}, "nt");
  k.access(owner, buf, len, vm::Prot::kWrite, 3500.0);

  kern::ThreadCtx toucher;
  toucher.pid = pid;
  toucher.core = 4;  // node 1 — the pressured destination
  toucher.clock = owner.clock;

  lib::UserNextTouch unt(k, pid);
  if (user_nt) {
    unt.mark(owner, buf, len);
    toucher.clock = owner.clock;
  } else {
    k.sys_madvise(owner, buf, len, kern::Advice::kMigrateOnNextTouch);
    toucher.clock = owner.clock;
  }

  const sim::Time t0 = toucher.clock;
  for (std::uint64_t i = 0; i < len; i += mem::kPageSize)
    k.access(toucher, buf + i, sizeof(std::uint64_t), vm::Prot::kReadWrite, 0.0);

  Result r;
  r.mbps = sim::mb_per_second(len, toucher.clock - t0);
  r.moved = k.pages_on_node(pid, buf, len, 1);
  r.degraded = user_nt ? unt.stats().pages_failed
                       : log.count(kern::EventType::kNextTouchDegraded);
  k.validate(pid);
  k.remove_trace_sink(&log);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = numasim::bench::parse_options(argc, argv);
  numasim::bench::Observability obsv(opts);
  const topo::Topology t = topo::Topology::quad_opteron();

  const std::uint64_t max_frames = opts.quick ? 8192 : 32768;
  const std::uint64_t npages = max_frames / 4;

  numasim::bench::print_header(
      opts,
      "Ablation — next-touch under destination pressure "
      "(node-1 occupancy sweep)",
      {"occupancy%", "knt_MB/s", "knt_moved", "knt_degraded", "unt_MB/s",
       "unt_moved", "unt_degraded"});

  for (const unsigned occ : {0u, 50u, 90u, 99u, 100u}) {
    const std::uint64_t filler = max_frames * occ / 100;
    const Result knt = run(t, max_frames, npages, filler, /*user_nt=*/false);
    const Result unt = run(t, max_frames, npages, filler, /*user_nt=*/true);
    numasim::bench::print_row(
        opts, {numasim::bench::fmt_u64(occ), numasim::bench::fmt(knt.mbps),
               numasim::bench::fmt_u64(knt.moved),
               numasim::bench::fmt_u64(knt.degraded),
               numasim::bench::fmt(unt.mbps),
               numasim::bench::fmt_u64(unt.moved),
               numasim::bench::fmt_u64(unt.degraded)});
  }
  obsv.finish();
  return 0;
}

// Figure 5: next-touch migration throughput versus buffer size.
//
// Three series: the user-space mprotect/SIGSEGV implementation with and
// without the move_pages patch, and the kernel madvise implementation.
// Paper result: user next-touch tracks patched move_pages (~600 MB/s,
// collapsing without the patch); kernel next-touch reaches ~800 MB/s even
// for small buffers.
#include <vector>

#include "common.hpp"
#include "lib/user_next_touch.hpp"

using namespace numasim;

namespace {

kern::KernelConfig probe_config(const topo::Topology& t, kern::MovePagesImpl impl) {
  kern::KernelConfig cfg = bench::phantom_kernel_config(t);
  cfg.move_pages_impl = impl;
  return cfg;
}

struct Probe {
  kern::Kernel k;
  kern::Pid pid;
  kern::ThreadCtx owner;    // node 0: populates the buffer
  kern::ThreadCtx toucher;  // node 1: triggers the next-touch
  vm::Vaddr buf;
  std::uint64_t len;

  Probe(const topo::Topology& t, std::uint64_t npages,
        kern::MovePagesImpl impl = kern::MovePagesImpl::kLinear)
      : k(probe_config(t, impl)), pid(k.create_process()),
        len(npages * mem::kPageSize) {
    bench::observe(k);
    owner.pid = pid;
    owner.core = 0;
    toucher.pid = pid;
    toucher.tid = 1;   // distinct timeline row in trace output
    toucher.core = 4;  // node 1
    buf = k.sys_mmap(owner, len, vm::Prot::kReadWrite, {}, "nt");
    k.access(owner, buf, len, vm::Prot::kWrite, 3500.0);
    toucher.clock = owner.clock;
  }

  /// Touch one word per page (the microbenchmark access pattern).
  void touch_all_pages() {
    for (std::uint64_t i = 0; i < len; i += mem::kPageSize)
      k.access(toucher, buf + i, sizeof(std::uint64_t), vm::Prot::kReadWrite, 0.0);
  }
};

double measure_user_nt(const topo::Topology& t, std::uint64_t npages,
                       kern::MovePagesImpl impl) {
  Probe p(t, npages, impl);
  lib::UserNextTouch unt(p.k, p.pid);
  const sim::Time t0 = p.toucher.clock;
  // Marking happens on the touching side, as a scheduler hook would.
  unt.mark(p.toucher, p.buf, p.len);
  p.touch_all_pages();
  return sim::mb_per_second(p.len, p.toucher.clock - t0);
}

double measure_kernel_nt(const topo::Topology& t, std::uint64_t npages) {
  Probe p(t, npages);
  const sim::Time t0 = p.toucher.clock;
  p.k.sys_madvise(p.toucher, p.buf, p.len, kern::Advice::kMigrateOnNextTouch);
  p.touch_all_pages();
  return sim::mb_per_second(p.len, p.toucher.clock - t0);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = numasim::bench::parse_options(argc, argv);
  numasim::bench::Observability obsv(opts);
  const topo::Topology t = topo::Topology::quad_opteron();

  numasim::bench::print_header(
      opts, "Fig. 5 — next-touch migration throughput (MB/s)",
      {"pages", "user_nt_nopatch", "user_nt", "kernel_nt"});

  for (std::uint64_t n = 4; n <= (opts.quick ? 256u : 4096u); n *= 2) {
    numasim::bench::print_row(
        opts, {numasim::bench::fmt_u64(n),
               numasim::bench::fmt(measure_user_nt(t, n, kern::MovePagesImpl::kQuadratic)),
               numasim::bench::fmt(measure_user_nt(t, n, kern::MovePagesImpl::kLinear)),
               numasim::bench::fmt(measure_kernel_nt(t, n))});
  }
  obsv.finish();
  return 0;
}

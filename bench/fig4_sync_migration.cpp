// Figure 4: throughput of memcpy, migrate_pages and move_pages (patched and
// unpatched) between NUMA nodes #0 and #1, versus buffer size in 4-KiB pages.
//
// Paper result: memcpy fastest; migrate_pages plateaus near 780 MB/s with a
// ~400 us base; patched move_pages is flat near 600 MB/s with a ~160 us base;
// the unpatched implementation collapses quadratically past ~1k pages.
#include <vector>

#include "common.hpp"

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
  kern::ThreadCtx ctx;
  vm::Vaddr buf;
  std::uint64_t len;

  Probe(const topo::Topology& t, std::uint64_t npages,
        kern::MovePagesImpl impl = kern::MovePagesImpl::kLinear)
      : k(probe_config(t, impl)), pid(k.create_process()), len(npages * mem::kPageSize) {
    bench::observe(k);
    ctx.pid = pid;
    ctx.core = 0;  // node 0
    buf = k.sys_mmap(ctx, len, vm::Prot::kReadWrite,
                     vm::MemPolicy::bind(topo::node_mask_of(0)), "src");
    k.access(ctx, buf, len, vm::Prot::kWrite, 3500.0);
  }
};

double measure_memcpy(const topo::Topology& t, std::uint64_t npages) {
  Probe p(t, npages);
  const vm::Vaddr dst = p.k.sys_mmap(p.ctx, p.len, vm::Prot::kReadWrite,
                                     vm::MemPolicy::bind(topo::node_mask_of(1)), "dst");
  p.k.access(p.ctx, dst, p.len, vm::Prot::kWrite, 3500.0);  // pre-fault
  const sim::Time t0 = p.ctx.clock;
  p.k.user_memcpy(p.ctx, dst, p.buf, p.len);
  return sim::mb_per_second(p.len, p.ctx.clock - t0);
}

double measure_migrate_pages(const topo::Topology& t, std::uint64_t npages) {
  Probe p(t, npages);
  const sim::Time t0 = p.ctx.clock;
  p.k.sys_migrate_pages(p.ctx, p.pid, topo::node_mask_of(0), topo::node_mask_of(1));
  return sim::mb_per_second(p.len, p.ctx.clock - t0);
}

double measure_move_pages(const topo::Topology& t, std::uint64_t npages,
                          kern::MovePagesImpl impl) {
  Probe p(t, npages, impl);
  std::vector<vm::Vaddr> pages;
  pages.reserve(npages);
  for (std::uint64_t i = 0; i < npages; ++i)
    pages.push_back(p.buf + i * mem::kPageSize);
  std::vector<topo::NodeId> nodes(npages, 1);
  std::vector<int> status(npages, 0);
  const sim::Time t0 = p.ctx.clock;
  p.k.sys_move_pages(p.ctx, pages, nodes, status);
  return sim::mb_per_second(p.len, p.ctx.clock - t0);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = numasim::bench::parse_options(argc, argv);
  numasim::bench::Observability obsv(opts);
  const topo::Topology t = topo::Topology::quad_opteron();

  numasim::bench::print_header(
      opts, "Fig. 4 — migration/copy throughput node0 -> node1 (MB/s)",
      {"pages", "memcpy", "migrate_pages", "move_pages", "move_pages_nopatch"});

  std::vector<std::uint64_t> sizes;
  for (std::uint64_t n = 1; n <= (opts.quick ? 1024u : 16384u); n *= 2)
    sizes.push_back(n);

  for (std::uint64_t n : sizes) {
    numasim::bench::print_row(
        opts,
        {numasim::bench::fmt_u64(n),
         numasim::bench::fmt(measure_memcpy(t, n)),
         numasim::bench::fmt(measure_migrate_pages(t, n)),
         numasim::bench::fmt(measure_move_pages(t, n, kern::MovePagesImpl::kLinear)),
         numasim::bench::fmt(measure_move_pages(t, n, kern::MovePagesImpl::kQuadratic))});
  }
  obsv.finish();
  return 0;
}

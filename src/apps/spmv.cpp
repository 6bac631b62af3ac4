#include "apps/spmv.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sim/rng.hpp"

namespace numasim::apps {

namespace {

constexpr std::uint64_t kElem = sizeof(double);

double value_of(std::uint64_t k) { return 1.0 + 0.25 * static_cast<double>(k % 7); }
double x_of(std::uint64_t i) {
  return std::sin(static_cast<double>(i) * 0.37) + 1.5;
}

}  // namespace

Spmv::Spmv(rt::Machine& m, rt::Team& team, SpmvConfig cfg)
    : m_(m), team_(team), cfg_(cfg) {
  if (cfg_.n == 0 || cfg_.nnz_per_row == 0)
    throw std::invalid_argument{"Spmv: empty matrix"};
  if (cfg_.numeric && m.kernel().phys().backing() != mem::Backing::kMaterialized)
    throw std::invalid_argument{"Spmv: numeric mode needs materialized memory"};
  generate_structure();
}

void Spmv::generate_structure() {
  sim::Rng rng(cfg_.seed);
  csr_.row_ptr.assign(cfg_.n + 1, 0);
  csr_.col.clear();
  csr_.col.reserve(cfg_.n * cfg_.nnz_per_row);
  for (std::uint64_t i = 0; i < cfg_.n; ++i) {
    // Band around the diagonal plus a few far entries (AMR-ish stencil).
    const unsigned band = cfg_.nnz_per_row * 3 / 4;
    for (unsigned k = 0; k < cfg_.nnz_per_row; ++k) {
      std::uint64_t c;
      if (k < band) {
        const std::uint64_t off = k;
        c = (i + off) % cfg_.n;
      } else {
        c = rng.below(cfg_.n);
      }
      csr_.col.push_back(c);
    }
    std::sort(csr_.col.begin() + static_cast<std::ptrdiff_t>(csr_.row_ptr[i]),
              csr_.col.end());
    csr_.row_ptr[i + 1] = csr_.col.size();
  }
  csr_.nnz = csr_.col.size();
}

std::vector<std::uint64_t> Spmv::partition(std::uint64_t shift) const {
  // Equal-nnz contiguous bounds over rows, then rotated by `shift` rows.
  const unsigned parts = team_.size();
  std::vector<std::uint64_t> bounds{0};
  const std::uint64_t target = csr_.nnz / parts;
  for (std::uint64_t i = 0; i < cfg_.n && bounds.size() < parts; ++i) {
    if (csr_.row_ptr[i + 1] >= target * bounds.size()) bounds.push_back(i + 1);
  }
  while (bounds.size() <= parts) bounds.push_back(cfg_.n);
  for (auto& b : bounds) b = (b + shift) % cfg_.n;
  return bounds;  // parts+1 entries; consecutive pairs may wrap
}

sim::Task<void> Spmv::run(rt::Thread& main) {
  kern::Kernel& k = m_.kernel();
  const auto all = vm::MemPolicy::interleave(m_.topology().all_nodes_mask());
  csr_.values = k.sys_mmap(main.ctx(), csr_.nnz * kElem, vm::Prot::kReadWrite, all, "val");
  csr_.colidx = k.sys_mmap(main.ctx(), csr_.nnz * 8, vm::Prot::kReadWrite, all, "col");
  csr_.x = k.sys_mmap(main.ctx(), cfg_.n * kElem, vm::Prot::kReadWrite, all, "x");
  csr_.y = k.sys_mmap(main.ctx(), cfg_.n * kElem, vm::Prot::kReadWrite, all, "y");
  const double zero_rate = k.cost().zero_rate_bytes_per_us;
  k.access(main.ctx(), csr_.values, csr_.nnz * kElem, vm::Prot::kReadWrite, zero_rate);
  k.access(main.ctx(), csr_.colidx, csr_.nnz * 8, vm::Prot::kReadWrite, zero_rate);
  k.access(main.ctx(), csr_.x, cfg_.n * kElem, vm::Prot::kReadWrite, zero_rate);
  k.access(main.ctx(), csr_.y, cfg_.n * kElem, vm::Prot::kReadWrite, zero_rate);
  co_await main.sync();

  if (cfg_.numeric) {
    std::vector<double> vals(csr_.nnz), xs(cfg_.n);
    for (std::uint64_t i = 0; i < csr_.nnz; ++i) vals[i] = value_of(i);
    for (std::uint64_t i = 0; i < cfg_.n; ++i) xs[i] = x_of(i);
    k.poke(m_.pid(), csr_.values,
           {reinterpret_cast<const std::byte*>(vals.data()), csr_.nnz * kElem});
    k.poke(m_.pid(), csr_.x,
           {reinterpret_cast<const std::byte*>(xs.data()), cfg_.n * kElem});
  }

  const std::uint64_t migrated0 = k.stats().pages_migrated_nexttouch;
  const std::uint64_t replicas0 = k.stats().replica_pages;
  const sim::Time t0 = main.now();

  const double flop_rate =
      m_.topology().core_spec().peak_gflops() *
      m_.topology().core_spec().gemm_efficiency * 0.25;  // SpMV is inefficient

  std::uint64_t shift = 0;
  for (unsigned iter = 0; iter < cfg_.iterations; ++iter) {
    if (iter != 0 && cfg_.repartition_every != 0 &&
        iter % cfg_.repartition_every == 0)
      shift += cfg_.n / (2 * team_.size());

    if (cfg_.policy != SpmvConfig::Policy::kStatic) {
      co_await main.madvise(csr_.values, csr_.nnz * kElem,
                            kern::Advice::kMigrateOnNextTouch);
      co_await main.madvise(csr_.colidx, csr_.nnz * 8,
                            kern::Advice::kMigrateOnNextTouch);
      if (cfg_.policy == SpmvConfig::Policy::kNextTouchReplX &&
          k.replica_pages(m_.pid()) == 0) {
        co_await main.madvise(csr_.x, cfg_.n * kElem, kern::Advice::kReplicate);
      }
    }

    const auto bounds = partition(shift);
    rt::Team::WorkerFn sweep = [this, bounds, flop_rate](
                                   unsigned tid, rt::Thread& w) -> sim::Task<void> {
      // Row range, possibly wrapping past row n.
      const std::uint64_t lo = bounds[tid];
      const std::uint64_t hi = bounds[tid + 1];
      std::uint64_t segs[2][2] = {{lo, hi}, {0, 0}};
      if (hi < lo) {
        segs[0][1] = cfg_.n;
        segs[1][0] = 0;
        segs[1][1] = hi;
      }
      std::uint64_t my_nnz = 0;
      for (auto& seg : segs) {
        if (seg[0] == seg[1]) continue;
        const std::uint64_t e0 = csr_.row_ptr[seg[0]];
        const std::uint64_t e1 = csr_.row_ptr[seg[1]];
        my_nnz += e1 - e0;
        // CSR streams: values + column indices of my rows.
        co_await w.touch(csr_.values + e0 * kElem, (e1 - e0) * kElem,
                         vm::Prot::kRead);
        co_await w.touch(csr_.colidx + e0 * 8, (e1 - e0) * 8, vm::Prot::kRead);
        // Result segment.
        co_await w.touch(csr_.y + seg[0] * kElem, (seg[1] - seg[0]) * kElem,
                         vm::Prot::kReadWrite);
      }
      // Gather of the shared x vector: scattered over all of x.
      co_await w.touch(csr_.x, cfg_.n * kElem, vm::Prot::kRead);
      co_await w.compute(static_cast<sim::Time>(
          static_cast<double>(2 * my_nnz) / flop_rate));
    };
    co_await team_.parallel(main, std::move(sweep));

    if (cfg_.numeric && iter == 0) {
      // Verify: compute y from the *simulated* contents and from pure host
      // data; migrations/replication must be invisible.
      std::vector<double> vals(csr_.nnz), xs(cfg_.n);
      k.peek(m_.pid(), csr_.values,
             {reinterpret_cast<std::byte*>(vals.data()), csr_.nnz * kElem});
      k.peek(m_.pid(), csr_.x,
             {reinterpret_cast<std::byte*>(xs.data()), cfg_.n * kElem});
      sim_y_.assign(cfg_.n, 0.0);
      ref_y_.assign(cfg_.n, 0.0);
      for (std::uint64_t i = 0; i < cfg_.n; ++i) {
        for (std::uint64_t e = csr_.row_ptr[i]; e < csr_.row_ptr[i + 1]; ++e) {
          sim_y_[i] += vals[e] * xs[csr_.col[e]];
          ref_y_[i] += value_of(e) * x_of(csr_.col[e]);
        }
      }
      k.poke(m_.pid(), csr_.y,
             {reinterpret_cast<const std::byte*>(sim_y_.data()), cfg_.n * kElem});
    }
  }

  result_.solve_time = main.now() - t0;
  result_.pages_migrated = k.stats().pages_migrated_nexttouch - migrated0;
  result_.replicas_created = k.stats().replica_pages - replicas0;
}

}  // namespace numasim::apps

#include "apps/lu.hpp"

#include <stdexcept>

#include "lib/numalib.hpp"

namespace numasim::apps {

namespace {
/// Diagonally dominant test values so the unpivoted factorization is stable.
double lu_fill(std::uint64_t r, std::uint64_t c) {
  if (r == c) return 64.0;
  const auto d = r > c ? r - c : c - r;
  return 1.0 / (1.0 + static_cast<double>(d));
}
}  // namespace

LuFactorization::LuFactorization(rt::Machine& m, rt::Team& team, LuConfig cfg)
    : m_(m), team_(team), cfg_(cfg), blas_(m, cfg.blas) {
  if (cfg_.n == 0 || cfg_.bs == 0 || cfg_.n % cfg_.bs != 0)
    throw std::invalid_argument{"LuFactorization: n must be a multiple of bs"};
}

sim::Task<void> LuFactorization::run(rt::Thread& main) {
  kern::Kernel& k = m_.kernel();
  const std::uint64_t bytes = cfg_.n * cfg_.n * blas::kElemBytes;

  // The paper's best static allocation: interleave over all nodes.
  buf_ = lib::NumaBuffer::interleaved(main.ctx(), k, bytes, "lu");
  const vm::Vaddr base = buf_.addr();
  mat_ = blas::Matrix{base, cfg_.n, cfg_.n, cfg_.n};
  buf_.populate(main.ctx());
  co_await main.sync();
  if (cfg_.blas.numeric)
    blas::fill_matrix(m_, mat_, cfg_.fill != nullptr ? cfg_.fill : lu_fill);

  const std::uint64_t before_nt_pages = k.stats().pages_migrated_nexttouch;
  const std::uint64_t before_nt_faults = k.stats().nexttouch_faults;
  result_.setup_end = main.now();
  const sim::Time t0 = main.now();

  const std::uint64_t nb = cfg_.n / cfg_.bs;
  for (std::uint64_t kk = 0; kk < nb; ++kk) {
    // The paper's hook: mark the active trailing submatrix migrate-on-
    // next-touch so the coming parallel section redistributes it.
    if (cfg_.next_touch) {
      const vm::Vaddr tail = mat_.at(kk * cfg_.bs, 0);
      co_await main.madvise(tail, bytes - (tail - base),
                            kern::Advice::kMigrateOnNextTouch);
      ++result_.madvise_calls;
    }

    co_await blas_.getf2(main, block(kk, kk));

    // Row and column panels in one parallel loop. (Worker lambdas are named
    // before co_await — GCC 12 coroutine workaround, see team.cpp.)
    const std::uint64_t rem = nb - kk - 1;
    if (rem > 0) {
      rt::Team::IndexFn panels = [this, kk, rem](unsigned, rt::Thread& th,
                                                 std::uint64_t i) -> sim::Task<void> {
        if (i < rem) {
          co_await blas_.trsm_lower_left(th, block(kk, kk), block(kk, kk + 1 + i));
        } else {
          co_await blas_.trsm_upper_right(th, block(kk, kk),
                                          block(kk + 1 + (i - rem), kk));
        }
      };
      co_await team_.parallel_for(main, 0, 2 * rem, std::move(panels));

      // Trailing update: one GEMM per remaining block.
      rt::Team::IndexFn update = [this, kk, rem](unsigned, rt::Thread& th,
                                                 std::uint64_t idx) -> sim::Task<void> {
        const std::uint64_t i = kk + 1 + idx / rem;
        const std::uint64_t j = kk + 1 + idx % rem;
        co_await blas_.gemm_minus(th, block(i, kk), block(kk, j), block(i, j));
      };
      co_await team_.parallel_for(main, 0, rem * rem, std::move(update));
    }
  }

  result_.factor_time = main.now() - t0;
  result_.nexttouch_migrations =
      k.stats().pages_migrated_nexttouch - before_nt_pages;
  result_.nexttouch_faults = k.stats().nexttouch_faults - before_nt_faults;
}

}  // namespace numasim::apps

// Threaded blocked LU factorization (the paper's Section 4.5 application).
//
// Right-looking block LU without pivoting: at step k the diagonal block is
// factorized, the row and column panels are solved, and the trailing blocks
// are GEMM-updated — the panel and trailing updates run as OpenMP-style
// parallel-for loops across all cores. The matrix starts interleaved across
// all NUMA nodes (the paper's best static policy for this bandwidth-bound
// problem). In next-touch mode, a madvise(MIGRATE_ON_NEXT_TOUCH) hook on the
// active trailing submatrix at the top of every iteration lets each block
// follow whichever thread the schedule hands it to.
//
// The paper's pivoting note: the reference implementation computes a "pivot"
// block on the diagonal but does not pivot across blocks; we do the same
// (getf2 without row exchanges), which is numerically fine for the
// diagonally dominant test matrices the tests use.
#pragma once

#include <cstdint>

#include "blas/blas.hpp"
#include "lib/numalib.hpp"
#include "rt/team.hpp"

namespace numasim::apps {

struct LuConfig {
  std::uint64_t n = 1024;       ///< matrix dimension (doubles)
  std::uint64_t bs = 128;       ///< block size; paper sweeps 64..1024
  bool next_touch = false;      ///< insert the per-iteration madvise hook
  blas::BlasParams blas{};
  /// Matrix entries for numeric runs (nullptr = built-in diagonally
  /// dominant fill).
  double (*fill)(std::uint64_t, std::uint64_t) = nullptr;
};

struct LuResult {
  sim::Time setup_end = 0;        ///< instant population/init finished
  sim::Time factor_time = 0;      ///< simulated factorization duration
  std::uint64_t nexttouch_migrations = 0;
  std::uint64_t nexttouch_faults = 0;
  std::uint64_t madvise_calls = 0;
};

class LuFactorization {
 public:
  LuFactorization(rt::Machine& m, rt::Team& team, LuConfig cfg);

  /// Allocate + populate the matrix, then factorize. Call from a simulated
  /// main thread; workers are forked per parallel region on the team.
  sim::Task<void> run(rt::Thread& main);

  const LuResult& result() const { return result_; }
  const blas::Matrix& matrix() const { return mat_; }

 private:
  blas::Tile block(std::uint64_t bi, std::uint64_t bj) const {
    return blas::Tile::of(mat_, bi * cfg_.bs, bj * cfg_.bs, cfg_.bs, cfg_.bs);
  }

  rt::Machine& m_;
  rt::Team& team_;
  LuConfig cfg_;
  blas::BlasEngine blas_;
  lib::NumaBuffer buf_;  // owns the matrix storage
  blas::Matrix mat_;
  LuResult result_;
};

}  // namespace numasim::apps

// Iterative sparse matrix-vector workload (conjugate-gradient style).
//
// The paper motivates next-touch with "dynamic and irregular applications
// such as adaptive mesh refinement" whose partitioning evolves. This app
// models the kernel of such solvers: repeated y = A·x sweeps over a CSR
// matrix partitioned by rows, with the partition shifted every few
// iterations (load rebalancing). Policies:
//   kStatic          — interleaved CSR, shared x read remotely;
//   kNextTouch       — CSR rows follow their owning thread after each
//                      repartition (madvise hook, as in the LU app);
//   kNextTouchReplX  — additionally replicate the read-shared x vector so
//                      every node gathers locally (combines the paper's
//                      contribution with its future-work replication);
//                      needs a kernel built with KernelConfig::replication.
//
// In numeric mode the CSR structure lives in simulated memory and the SpMV
// is verified element-for-element against a host reference.
#pragma once

#include <cstdint>
#include <vector>

#include "rt/team.hpp"

namespace numasim::apps {

struct SpmvConfig {
  std::uint64_t n = 1u << 15;     ///< rows
  unsigned nnz_per_row = 16;      ///< band + pseudo-random off-band entries
  unsigned iterations = 8;
  unsigned repartition_every = 2; ///< shift the row partition this often
  enum class Policy : std::uint8_t { kStatic, kNextTouch, kNextTouchReplX };
  Policy policy = Policy::kStatic;
  bool numeric = false;           ///< real CSR values + verified SpMV
  std::uint64_t seed = 42;
};

struct SpmvResult {
  sim::Time solve_time = 0;
  std::uint64_t pages_migrated = 0;
  std::uint64_t replicas_created = 0;
};

class Spmv {
 public:
  Spmv(rt::Machine& m, rt::Team& team, SpmvConfig cfg);

  sim::Task<void> run(rt::Thread& main);

  const SpmvResult& result() const { return result_; }

  /// Host-side reference result of one SpMV on the generated matrix with
  /// x = initial vector (numeric runs only; empty otherwise).
  const std::vector<double>& reference_y() const { return ref_y_; }
  /// y read back from simulated memory after the first iteration
  /// (numeric runs only).
  const std::vector<double>& simulated_y() const { return sim_y_; }

 private:
  struct Csr {
    std::vector<std::uint64_t> row_ptr;  // host-side structure mirror
    std::vector<std::uint64_t> col;
    vm::Vaddr values = 0;   // simulated: n_nnz doubles
    vm::Vaddr colidx = 0;   // simulated: n_nnz uint64 (charged, not read)
    vm::Vaddr x = 0;        // simulated: n doubles
    vm::Vaddr y = 0;        // simulated: n doubles
    std::uint64_t nnz = 0;
  };

  void generate_structure();
  /// Equal-nnz contiguous row partition, rotated by `shift` rows.
  std::vector<std::uint64_t> partition(std::uint64_t shift) const;

  rt::Machine& m_;
  rt::Team& team_;
  SpmvConfig cfg_;
  Csr csr_;
  SpmvResult result_;
  std::vector<double> ref_y_;
  std::vector<double> sim_y_;
};

}  // namespace numasim::apps

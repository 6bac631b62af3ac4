// Randomized stress: drive the kernel with arbitrary sequences of mm
// operations from a seeded PRNG and audit the full consistency invariants
// after every step (Kernel::validate). Catches frame leaks, dangling PTEs,
// replica aliasing and flag-state corruption that targeted tests miss.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "kern/kernel.hpp"
#include "sim/rng.hpp"

namespace numasim::kern {
namespace {

class Fuzzer {
 public:
  /// `fault_spec` arms a FaultInjector (seeded from the fuzz seed) for the
  /// whole run, so every kernel path is exercised under injected failures.
  /// `mode` selects the migration engine (the transactional engine must
  /// uphold the same invariants as stop-and-copy under every plan).
  Fuzzer(std::uint64_t seed, mem::Backing backing,
         std::string_view fault_spec = {},
         MigrationMode mode = MigrationMode::kStopAndCopy)
      : topo_(topo::Topology::quad_opteron()),
        k_(kern::KernelConfig{.topology = topo_, .backing = backing,
                             .migration_mode = mode,
                             .replication = true,
                             .max_frames_per_node = 4096}),
        rng_(seed) {
    if (!fault_spec.empty()) {
      injector_.arm(FaultPlan::parse(fault_spec), seed ^ 0x5eed);
      k_.set_fault_injector(&injector_);
    }
    pid_ = k_.create_process("fuzz");
    k_.set_sigsegv_handler(pid_, [this](ThreadCtx& t, const SigInfo& info) {
      // Handler: restore full access to the faulting region if we armed it.
      for (const auto& r : regions_) {
        if (info.fault_addr >= r.addr && info.fault_addr < r.addr + r.len) {
          k_.sys_mprotect(t, r.addr, r.len, vm::Prot::kReadWrite);
          return;
        }
      }
      throw SegfaultError{info.fault_addr};
    });
  }

  void step() {
    ThreadCtx t;
    t.pid = pid_;
    t.core = static_cast<topo::CoreId>(rng_.below(topo_.num_cores()));
    t.clock = clock_;

    switch (rng_.below(regions_.empty() ? 1 : 10)) {
      case 0: {  // mmap
        if (regions_.size() < 12) {
          Region r;
          r.pages = 1 + rng_.below(64);
          r.len = r.pages * mem::kPageSize;
          const vm::MemPolicy pol = random_policy();
          r.addr = k_.sys_mmap(t, r.len, vm::Prot::kReadWrite, pol, "fuzz");
          regions_.push_back(r);
        }
        break;
      }
      case 1: {  // munmap
        const std::size_t i = rng_.below(regions_.size());
        k_.sys_munmap(t, regions_[i].addr, regions_[i].len);
        regions_.erase(regions_.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
      case 2:
      case 3: {  // touch a random sub-range
        const Region& r = pick();
        const std::uint64_t off = rng_.below(r.len);
        const std::uint64_t len = 1 + rng_.below(r.len - off);
        k_.access(t, r.addr + off, len,
                  rng_.chance(0.5) ? vm::Prot::kRead : vm::Prot::kReadWrite, 3500.0);
        break;
      }
      case 4: {  // madvise next-touch
        const Region& r = pick();
        k_.sys_madvise(t, r.addr, r.len, Advice::kMigrateOnNextTouch);
        break;
      }
      case 5: {  // madvise replicate or dontneed
        const Region& r = pick();
        k_.sys_madvise(t, r.addr, r.len,
                       rng_.chance(0.5) ? Advice::kReplicate : Advice::kDontNeed);
        break;
      }
      case 6: {  // move_pages of a random subset
        const Region& r = pick();
        std::vector<vm::Vaddr> pages;
        for (std::uint64_t pg = 0; pg < r.pages; ++pg)
          if (rng_.chance(0.4)) pages.push_back(r.addr + pg * mem::kPageSize);
        if (pages.empty()) break;
        std::vector<topo::NodeId> nodes(pages.size());
        for (auto& n : nodes)
          n = static_cast<topo::NodeId>(rng_.below(topo_.num_nodes()));
        std::vector<int> status(pages.size());
        k_.sys_move_pages(t, pages, nodes, status);
        break;
      }
      case 7: {  // ranged interface / mbind-with-move
        const Region& r = pick();
        if (rng_.chance(0.5)) {
          const std::vector<Kernel::MoveRange> ranges{
              {r.addr, r.len,
               static_cast<topo::NodeId>(rng_.below(topo_.num_nodes()))}};
          k_.sys_move_pages_ranged(t, ranges);
        } else {
          k_.sys_mbind(t, r.addr, r.len, random_policy(), true);
        }
        break;
      }
      case 8: {  // mprotect none (handler will repair on next touch)
        const Region& r = pick();
        k_.sys_mprotect(t, r.addr, r.len, vm::Prot::kNone);
        break;
      }
      case 9: {  // migrate the whole process
        k_.sys_migrate_pages(t, pid_, rng_.between(1, 15), rng_.between(1, 15));
        break;
      }
    }
    clock_ = t.clock;
    k_.validate(pid_);
  }

  void finish() {
    ThreadCtx t;
    t.pid = pid_;
    t.clock = clock_;
    for (const Region& r : regions_) k_.sys_munmap(t, r.addr, r.len);
    regions_.clear();
    k_.validate(pid_);
    EXPECT_EQ(k_.phys().total_used_frames(), 0u);
    k_.set_fault_injector(nullptr);
  }

  const Kernel& kernel() const { return k_; }
  const FaultInjector& injector() const { return injector_; }

 private:
  struct Region {
    vm::Vaddr addr = 0;
    std::uint64_t len = 0;
    std::uint64_t pages = 0;
  };

  const Region& pick() { return regions_[rng_.below(regions_.size())]; }

  vm::MemPolicy random_policy() {
    switch (rng_.below(4)) {
      case 0: return vm::MemPolicy::first_touch();
      case 1: return vm::MemPolicy::bind(
          topo::node_mask_of(static_cast<topo::NodeId>(rng_.below(4))));
      case 2: return vm::MemPolicy::interleave(rng_.between(1, 15));
      default: return vm::MemPolicy::preferred(
          static_cast<topo::NodeId>(rng_.below(4)));
    }
  }

  topo::Topology topo_;
  kern::Kernel k_;
  sim::Rng rng_;
  FaultInjector injector_;
  Pid pid_ = 0;
  sim::Time clock_ = 0;
  std::vector<Region> regions_;
};

class FuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzTest, RandomOpSequencesKeepInvariantsPhantom) {
  Fuzzer f(GetParam(), mem::Backing::kPhantom);
  for (int i = 0; i < 400; ++i) f.step();
  f.finish();
}

TEST_P(FuzzTest, RandomOpSequencesKeepInvariantsMaterialized) {
  Fuzzer f(GetParam() ^ 0xabcdef, mem::Backing::kMaterialized);
  for (int i = 0; i < 200; ++i) f.step();
  f.finish();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest,
                         ::testing::Values(1, 7, 1234, 99991, 0xdeadbeef));

// --- the same op sequences under injected failures ---------------------------
//
// Three fault plans (destination-alloc ENOMEM, flaky page copies plus lost
// IPIs and delayed signals, hard node exhaustion) run under the full
// invariant audit after every step: no injected failure may leak a frame,
// dangle a PTE or double-map anything, and teardown must still reach zero
// used frames.

constexpr std::string_view kPlanAllocFail = "alloc:p=0.05";
constexpr std::string_view kPlanCopyFail =
    "copy:pt=0.2,pp=0.05; shootdown:p=0.05; signal:p=0.1";
constexpr std::string_view kPlanExhaustion =
    "cap:node=1,frames=40; cap:node=3,frames=0; alloc:p=0.02";

class FaultFuzzTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::string_view>> {};

TEST_P(FaultFuzzTest, InjectedFailuresKeepInvariants) {
  const auto [seed, plan] = GetParam();
  Fuzzer f(seed, mem::Backing::kMaterialized, plan);
  for (int i = 0; i < 200; ++i) f.step();
  f.finish();
}

INSTANTIATE_TEST_SUITE_P(
    Plans, FaultFuzzTest,
    ::testing::Combine(::testing::Values(1, 42, 0xdeadbeef),
                       ::testing::Values(kPlanAllocFail, kPlanCopyFail,
                                         kPlanExhaustion)),
    [](const auto& pinfo) {
      const char* plan =
          std::get<1>(pinfo.param) == kPlanAllocFail   ? "AllocFail"
          : std::get<1>(pinfo.param) == kPlanCopyFail  ? "CopyFail"
                                                       : "Exhaustion";
      return std::string(plan) + "Seed" + std::to_string(std::get<0>(pinfo.param));
    });

// --- the transactional engine under the same chaos ---------------------------
//
// Every plan rerun with migration_mode=kTransactional: injected copy faults
// must land in the bounded dirty-retry loop (transient) or the abort ->
// stop-and-copy degradation ladder (permanent), and no outcome may leak a
// shadow frame or leave a kTxn-protected PTE behind (validate checks both).

class TxnFaultFuzzTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::string_view>> {};

TEST_P(TxnFaultFuzzTest, InjectedFailuresKeepInvariants) {
  const auto [seed, plan] = GetParam();
  Fuzzer f(seed, mem::Backing::kMaterialized, plan,
           MigrationMode::kTransactional);
  for (int i = 0; i < 200; ++i) f.step();
  f.finish();
  EXPECT_EQ(f.kernel().phys().total_shadow_frames(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Plans, TxnFaultFuzzTest,
    ::testing::Combine(::testing::Values(1, 42, 0xdeadbeef),
                       ::testing::Values(kPlanAllocFail, kPlanCopyFail,
                                         kPlanExhaustion)),
    [](const auto& pinfo) {
      const char* plan =
          std::get<1>(pinfo.param) == kPlanAllocFail   ? "AllocFail"
          : std::get<1>(pinfo.param) == kPlanCopyFail  ? "CopyFail"
                                                       : "Exhaustion";
      return std::string(plan) + "Seed" + std::to_string(std::get<0>(pinfo.param));
    });

TEST(TxnFaultFuzzDeterminism, SameSeedAndPlanGiveIdenticalOutcome) {
  auto run = [](std::uint64_t seed) {
    Fuzzer f(seed, mem::Backing::kPhantom, kPlanCopyFail,
             MigrationMode::kTransactional);
    for (int i = 0; i < 150; ++i) f.step();
    const KernelStats s = f.kernel().stats();
    const FaultInjector::Counters c = f.injector().counters();
    f.finish();
    return std::tuple{s.pages_migrated_move,  s.migrations_failed,
                      s.txn_commits,          s.txn_dirty_retries,
                      s.txn_degraded,         s.txn_aborted,
                      c.copies_checked,       c.copies_transient,
                      c.copies_permanent,     c.shootdowns_dropped};
  };
  EXPECT_EQ(run(0xabcd), run(0xabcd));
}

TEST(FaultFuzzDeterminism, SameSeedAndPlanGiveIdenticalOutcome) {
  auto run = [](std::uint64_t seed) {
    Fuzzer f(seed, mem::Backing::kPhantom, kPlanCopyFail);
    for (int i = 0; i < 150; ++i) f.step();
    const KernelStats s = f.kernel().stats();
    const FaultInjector::Counters c = f.injector().counters();
    f.finish();
    return std::tuple{s.pages_migrated_move,  s.migrations_failed,
                      s.migration_retries,    s.nexttouch_degraded,
                      s.shootdown_retries,    s.signals_delayed,
                      c.copies_checked,       c.copies_transient,
                      c.copies_permanent,     c.shootdowns_dropped};
  };
  EXPECT_EQ(run(0xabcd), run(0xabcd));
}

}  // namespace
}  // namespace numasim::kern

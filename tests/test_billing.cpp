// Billing completeness: every nanosecond a kernel call adds to a thread
// clock is billed to one sim::CostKind, so the CostStats split that
// regenerates Fig. 6 (copy, control, page fault, TLB shootdown...) sums to
// the time the thread spent. Seeded random op sequences drive one ThreadCtx
// through every page-moving path, SIGSEGV delivery to a user-space
// next-touch handler included, under both lock models, both engines, a flat
// and a tiered machine, with and without a fault plan, and compare the two
// after every op.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "kern/kernel.hpp"
#include "lib/user_next_touch.hpp"
#include "sim/rng.hpp"

namespace numasim::kern {
namespace {

constexpr const char* kFaultPlan =
    "alloc:p=0.05; copy:pt=0.2,pp=0.05; shootdown:p=0.2; signal:p=0.1";

using BillingParam = std::tuple<LockModel, MigrationMode, bool /*tiered*/,
                                bool /*fault plan*/>;

KernelConfig billing_config(const BillingParam& param) {
  const auto [lock, mode, tiered, faults] = param;
  KernelConfig cfg;
  if (tiered) {
    cfg.topology = topo::Topology::from_spec(
        "nodes=3 cores=2 shape=line tiers=fast:1,dram:1,far:1 fast_mb=1");
    cfg.tiers.enabled = true;
  }
  cfg.backing = mem::Backing::kPhantom;
  cfg.lock_model = lock;
  cfg.migration_mode = mode;
  cfg.max_frames_per_node = 1024;
  cfg.numa_balancing.enabled = true;
  cfg.numa_balancing.scan_period = sim::microseconds(100);
  cfg.numa_balancing.scan_size_pages = 256;
  return cfg;
}

class BillingRun {
 public:
  BillingRun(const BillingParam& param, std::uint64_t seed)
      : k_(billing_config(param)), rng_(seed) {
    if (std::get<3>(param)) {
      injector_.arm(FaultPlan::parse(kFaultPlan), seed ^ 0x5eed);
      k_.set_fault_injector(&injector_);
    }
    t_.pid = pid_;
    unt_addr_ = k_.sys_mmap(t_, kUntLen, vm::Prot::kReadWrite);
  }

  ~BillingRun() { k_.set_fault_injector(nullptr); }
  BillingRun(const BillingRun&) = delete;
  BillingRun& operator=(const BillingRun&) = delete;

  /// One random op; returns its name. The caller checks the billing.
  const char* step() {
    t_.core = static_cast<topo::CoreId>(rng_.below(k_.topo().num_cores()));
    switch (rng_.below(regions_.empty() ? 1 : 13)) {
      case 0: {
        if (regions_.size() < 6) {
          Region r;
          r.pages = 1 + rng_.below(48);
          r.addr = k_.sys_mmap(t_, r.pages * mem::kPageSize, vm::Prot::kReadWrite,
                               random_policy());
          regions_.push_back(r);
        }
        return "mmap";
      }
      case 1: {
        const std::size_t i = rng_.below(regions_.size());
        k_.sys_munmap(t_, regions_[i].addr, regions_[i].len());
        regions_.erase(regions_.begin() + static_cast<std::ptrdiff_t>(i));
        return "munmap";
      }
      case 2:
      case 3: {
        const Region& r = pick();
        const std::uint64_t off = rng_.below(r.len());
        const bool write = r.writable && rng_.chance(0.5);
        k_.access(t_, r.addr + off, 1 + rng_.below(r.len() - off),
                  write ? vm::Prot::kReadWrite : vm::Prot::kRead,
                  rng_.chance(0.8) ? 3500.0 : 0.0);
        return write ? "write" : "read";
      }
      case 4: {
        const Region& r = pick();
        k_.sys_madvise(t_, r.addr, r.len(), Advice::kMigrateOnNextTouch);
        return "madvise-next-touch";
      }
      case 5: {
        const Region& r = pick();
        const bool replicate = rng_.chance(0.5);
        k_.sys_madvise(t_, r.addr, r.len(),
                       replicate ? Advice::kReplicate : Advice::kDontNeed);
        return replicate ? "madvise-replicate" : "madvise-dontneed";
      }
      case 6: {
        Region& r = pick();
        r.writable = !r.writable;
        k_.sys_mprotect(t_, r.addr, r.len(),
                        r.writable ? vm::Prot::kReadWrite : vm::Prot::kRead);
        return "mprotect";
      }
      case 7: {
        const Region& r = pick();
        std::vector<vm::Vaddr> pages;
        for (std::uint64_t pg = 0; pg < r.pages; ++pg)
          if (rng_.chance(0.5)) pages.push_back(r.addr + pg * mem::kPageSize);
        std::vector<topo::NodeId> nodes(pages.size());
        for (topo::NodeId& n : nodes) n = random_node();
        std::vector<int> status(pages.size());
        k_.sys_move_pages(t_, pages, nodes, status);
        return "move_pages";
      }
      case 8: {
        const Region& r = pick();
        const Kernel::MoveRange range{r.addr, r.len(), random_node()};
        if (rng_.chance(0.5)) {
          k_.sys_move_pages_async(t_, {&range, 1});
          return "move_pages_async";
        }
        k_.sys_move_pages_ranged(t_, {&range, 1});
        return "move_pages_ranged";
      }
      case 9: {
        const Region& r = pick();
        k_.sys_mbind(t_, r.addr, r.len(), random_policy(), /*move_existing=*/true);
        return "mbind-move";
      }
      case 10: {
        const topo::NodeMask all = (topo::NodeMask{1} << k_.topo().num_nodes()) - 1;
        k_.sys_migrate_pages(t_, t_.pid, 1 + rng_.below(all), 1 + rng_.below(all));
        return "migrate_pages";
      }
      case 11:
        k_.kmigrated_drain(t_);
        return "kmigrated_drain";
      default: {
        // User-space next-touch: arm the region once its last window has
        // been taken, else touch it, so a SIGSEGV reaches the handler.
        if (unt_.armed_bytes() == 0) {
          unt_.mark(t_, unt_addr_, kUntLen, 8 * mem::kPageSize);
          return "user-next-touch-mark";
        }
        const std::uint64_t off = rng_.below(kUntLen);
        k_.access(t_, unt_addr_ + off, 1 + rng_.below(kUntLen - off),
                  rng_.chance(0.5) ? vm::Prot::kReadWrite : vm::Prot::kRead,
                  3500.0);
        return "user-next-touch-access";
      }
    }
  }

  ThreadCtx& thread() { return t_; }
  Kernel& kernel() { return k_; }

 private:
  struct Region {
    vm::Vaddr addr = 0;
    std::uint64_t pages = 0;
    bool writable = true;
    std::uint64_t len() const { return pages * mem::kPageSize; }
  };

  Region& pick() { return regions_[rng_.below(regions_.size())]; }

  topo::NodeId random_node() {
    return static_cast<topo::NodeId>(rng_.below(k_.topo().num_nodes()));
  }

  vm::MemPolicy random_policy() {
    switch (rng_.below(3)) {
      case 0: return vm::MemPolicy::first_touch();
      case 1: return vm::MemPolicy::bind(topo::node_mask_of(random_node()));
      default: return vm::MemPolicy::preferred(random_node());
    }
  }

  static constexpr std::uint64_t kUntLen = 32 * mem::kPageSize;

  Kernel k_;
  sim::Rng rng_;
  FaultInjector injector_;
  Pid pid_ = k_.create_process("billing");
  lib::UserNextTouch unt_{k_, pid_};  // the process's SIGSEGV handler
  ThreadCtx t_;
  vm::Vaddr unt_addr_ = 0;
  std::vector<Region> regions_;
};

class BillingCompleteness : public ::testing::TestWithParam<BillingParam> {};

TEST_P(BillingCompleteness, EveryNanosecondIsBilledToOneCostKind) {
  for (std::uint64_t seed : {1, 7, 1234}) {
    BillingRun run(GetParam(), seed);
    ThreadCtx& t = run.thread();
    for (int op = 0; op < 300; ++op) {
      const sim::Time clock = t.clock;
      const sim::Time billed = t.stats.total();
      const char* name = run.step();
      ASSERT_EQ(t.clock - clock, t.stats.total() - billed)
          << name << " (op " << op << ", seed " << seed << ")";
    }
    EXPECT_EQ(t.clock, t.stats.total()) << "seed " << seed;
    EXPECT_GT(run.kernel().stats().signals_delivered, 0u) << "seed " << seed;
    run.kernel().validate(t.pid);
  }
}

std::string billing_name(const ::testing::TestParamInfo<BillingParam>& p) {
  const auto [lock, mode, tiered, faults] = p.param;
  return std::string{lock == LockModel::kRange ? "range" : "coarse"} + "_" +
         migration_mode_name(mode) + (tiered ? "_tiered" : "_flat") +
         (faults ? "_faults" : "_clean");
}

INSTANTIATE_TEST_SUITE_P(
    Configs, BillingCompleteness,
    ::testing::Combine(::testing::Values(LockModel::kCoarse, LockModel::kRange),
                       ::testing::Values(MigrationMode::kStopAndCopy,
                                         MigrationMode::kTransactional),
                       ::testing::Bool(), ::testing::Bool()),
    billing_name);

}  // namespace
}  // namespace numasim::kern

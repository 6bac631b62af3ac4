// Migration runs against the per-page pipeline. A move_pages chunk, a ranged
// move, a migrate_pages batch and a burst of next-touch faults move each run
// of pages that share a source and a target with one allocation, one
// deferred copy and one batched free (Kernel::migrate_run), wherever nothing
// can see the per-page steps. An attached trace sink can, and tracing
// changes no simulated time, so a kernel with an EventLog attached moves
// every page through the per-page pipeline and serves as the reference.
// Seeded random ops run on a traced and an untraced twin, which must agree
// after every op on results, page tables, counters, clocks, the allocator,
// validate(), page contents and the per-page histograms.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <exception>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "kern/kernel.hpp"
#include "obs/metrics.hpp"
#include "sim/rng.hpp"

namespace numasim::kern {
namespace {

enum class Machine : std::uint8_t {
  kCapped,        // four phantom nodes whose caps and watermarks cut runs
  kTiered,        // fast, DRAM and far tiers, direct demotion on
  kMaterialized,  // real page bytes, compared after every op
};

using RunParam = std::tuple<LockModel, MigrationMode, Machine>;

KernelConfig twin_config(const RunParam& param) {
  const auto [lock, mode, machine] = param;
  KernelConfig cfg;
  if (machine == Machine::kTiered) {
    cfg.topology = topo::Topology::from_spec(
        "nodes=3 cores=2 shape=line tiers=fast:1,dram:1,far:1 fast_mb=1");
    cfg.tiers.enabled = true;
  }
  cfg.backing = machine == Machine::kMaterialized ? mem::Backing::kMaterialized
                                                  : mem::Backing::kPhantom;
  cfg.lock_model = lock;
  cfg.migration_mode = mode;
  cfg.max_frames_per_node = 1536;
  return cfg;
}

/// One side of the comparison. The registry and the log outlive the kernel.
struct Twin {
  Twin(const KernelConfig& cfg, bool traced) : k(cfg) {
    k.set_metrics(&reg);
    if (traced) k.add_trace_sink(&log);
    t.pid = k.create_process("runs");
  }
  obs::Registry reg;
  EventLog log{64};
  Kernel k;
  ThreadCtx t;
};

/// What an op returned on one side: its results, or the exception it threw.
struct Outcome {
  std::vector<long> results;
  std::string error;
  bool operator==(const Outcome&) const = default;
};

void PrintTo(const Outcome& o, std::ostream* os) {
  if (!o.error.empty()) {
    *os << "threw " << o.error;
    return;
  }
  *os << "{";
  for (const long v : o.results) *os << " " << v;
  *os << " }";
}

class RunDriver {
 public:
  RunDriver(const RunParam& param, std::uint64_t seed)
      : machine_(std::get<2>(param)),
        runs_(twin_config(param), /*traced=*/false),
        ref_(twin_config(param), /*traced=*/true),
        rng_(seed) {
    // One touched 2 MiB huge mapping: move_pages answers -EINVAL for its
    // pages, and ranged moves skip them.
    huge_ = {0, 512};
    both("huge", [&](Twin& s) -> std::vector<long> {
      huge_.addr = s.k.sys_mmap(s.t, huge_.len(), vm::Prot::kReadWrite, {}, "huge",
                                /*huge=*/true);
      s.k.access(s.t, huge_.addr, mem::kPageSize, vm::Prot::kWrite, 0.0);
      return {static_cast<long>(huge_.addr)};
    });
  }

  /// One random op on both twins; returns its name. The caller compares.
  std::string step() {
    const auto core =
        static_cast<topo::CoreId>(rng_.below(runs_.k.topo().num_cores()));
    runs_.t.core = ref_.t.core = core;
    switch (rng_.below(regions_.empty() ? 1 : 14)) {
      case 0: return mmap();
      case 1: return munmap();
      case 2:
      case 3: return touch(/*stream=*/rng_.chance(0.5));
      case 4: return touch(/*stream=*/false);
      case 5:
      case 6: return madvise_next_touch();
      case 7: return strided();
      case 8:
      case 9: return move_pages();
      case 10: return ranged();
      case 11: return migrate_pages();
      case 12: return squeeze();
      default: return rng_.chance(0.5) ? poke() : dontneed();
    }
  }

  /// Everything a run could make differ, on the two twins; page contents
  /// too when `contents`.
  void expect_same(bool contents) {
    Kernel& a = runs_.k;
    Kernel& b = ref_.k;
    const Pid pid = runs_.t.pid;
    // Each page's PTE: node and marks (flags), frame and numab bytes.
    std::vector<Region> all = regions_;
    all.push_back(huge_);
    std::vector<std::byte> bytes_a(mem::kPageSize), bytes_b(mem::kPageSize);
    for (const Region& r : all) {
      for (vm::Vpn v = vm::vpn_of(r.addr); v < vm::vpn_of(r.addr) + r.pages; ++v) {
        const vm::Pte* pa = a.address_space(pid).page_table().find(v);
        const vm::Pte* pb = b.address_space(pid).page_table().find(v);
        ASSERT_EQ(pa == nullptr, pb == nullptr) << "vpn " << v;
        if (pa == nullptr) continue;
        ASSERT_EQ(pa->flags, pb->flags) << "vpn " << v;
        ASSERT_EQ(pa->frame, pb->frame) << "vpn " << v;
        ASSERT_EQ(pa->numa_last, pb->numa_last) << "vpn " << v;
        ASSERT_EQ(pa->numa_idle, pb->numa_idle) << "vpn " << v;
        if (contents && machine_ == Machine::kMaterialized && pa->present()) {
          ASSERT_TRUE(a.peek(pid, vm::addr_of(v), bytes_a));
          ASSERT_TRUE(b.peek(pid, vm::addr_of(v), bytes_b));
          ASSERT_EQ(bytes_a, bytes_b) << "contents of vpn " << v;
        }
      }
    }
#define NUMASIM_EXPECT_SAME_COUNTER(field, name) \
  EXPECT_EQ(a.stats().field, b.stats().field) << name;
    NUMASIM_KERNEL_COUNTERS(NUMASIM_EXPECT_SAME_COUNTER)
#undef NUMASIM_EXPECT_SAME_COUNTER
    EXPECT_EQ(a.mapping_generation(pid), b.mapping_generation(pid));
    EXPECT_EQ(runs_.t.clock, ref_.t.clock);
    for (std::size_t i = 0; i < sim::kCostKindCount; ++i) {
      const auto kind = static_cast<sim::CostKind>(i);
      EXPECT_EQ(runs_.t.stats.get(kind), ref_.t.stats.get(kind))
          << sim::cost_kind_name(kind);
    }
    const mem::PhysMem& ma = a.phys();
    const mem::PhysMem& mb = b.phys();
    for (topo::NodeId n = 0; n < a.topo().num_nodes(); ++n) {
      EXPECT_EQ(ma.used_frames(n), mb.used_frames(n)) << "node " << n;
      EXPECT_EQ(ma.created_frames(n), mb.created_frames(n)) << "node " << n;
      EXPECT_EQ(ma.watermark_blocks(n), mb.watermark_blocks(n)) << "node " << n;
      EXPECT_EQ(ma.reserve_allocs(n), mb.reserve_allocs(n)) << "node " << n;
    }
    EXPECT_EQ(ma.total_allocs(), mb.total_allocs());
    EXPECT_EQ(ma.total_frees(), mb.total_frees());
    EXPECT_EQ(ma.fallback_allocs(), mb.fallback_allocs());
    EXPECT_NO_THROW(a.validate(pid));
    EXPECT_NO_THROW(b.validate(pid));
    const obs::Snapshot sa = runs_.reg.snapshot();
    const obs::Snapshot sb = ref_.reg.snapshot();
    for (const char* h : {"kern.fault_service_ns", "kern.migrate_page_ns"}) {
      const obs::HistogramSnap& ha = sa.histograms.at(h);
      const obs::HistogramSnap& hb = sb.histograms.at(h);
      EXPECT_EQ(ha.count, hb.count) << h;
      EXPECT_EQ(ha.sum, hb.sum) << h;
      EXPECT_EQ(ha.min, hb.min) << h;
      EXPECT_EQ(ha.max, hb.max) << h;
      EXPECT_EQ(ha.buckets, hb.buckets) << h;
    }
  }

  const KernelStats& stats() const { return runs_.k.stats(); }

 private:
  struct Region {
    vm::Vaddr addr = 0;
    std::uint64_t pages = 0;
    std::uint64_t len() const { return pages * mem::kPageSize; }
  };

  /// Run `op` on both twins and expect the same outcome.
  template <typename Op>
  void both(const std::string& what, Op&& op) {
    auto outcome = [&](Twin& s) {
      try {
        return Outcome{op(s), {}};
      } catch (const std::exception& e) {
        return Outcome{{}, e.what()};
      }
    };
    const Outcome a = outcome(runs_);
    const Outcome b = outcome(ref_);
    EXPECT_EQ(a, b) << what << (a.error.empty() ? "" : ": " + a.error)
                    << (b.error.empty() ? "" : " / " + b.error);
  }

  static std::vector<long> access_results(const AccessResult& r) {
    return {static_cast<long>(r.pages), static_cast<long>(r.minor_faults),
            static_cast<long>(r.nexttouch_migrations),
            static_cast<long>(r.nexttouch_hits_local),
            static_cast<long>(r.sigsegv_delivered)};
  }

  Region& pick() { return regions_[rng_.below(regions_.size())]; }
  topo::NodeId random_node() {
    return static_cast<topo::NodeId>(rng_.below(runs_.k.topo().num_nodes()));
  }
  /// A random byte range [addr, addr + len) inside `r`.
  std::pair<vm::Vaddr, std::uint64_t> sub_range(const Region& r) {
    const std::uint64_t off = rng_.below(r.len());
    return {r.addr + off, 1 + rng_.below(r.len() - off)};
  }

  std::string mmap() {
    std::uint64_t mapped = 0;
    for (const Region& r : regions_) mapped += r.pages;
    // Regions up to 700 pages cross page-table chunk edges (512 pages).
    const std::uint64_t pages = 1 + rng_.below(rng_.chance(0.3) ? 700 : 120);
    if (mapped + pages > 2000) return "mmap-skipped";
    vm::MemPolicy policy;
    switch (rng_.below(4)) {
      case 0: policy = vm::MemPolicy::bind(topo::node_mask_of(random_node())); break;
      case 1: policy = vm::MemPolicy::preferred(random_node()); break;
      default: break;
    }
    Region r{0, pages};
    both("mmap", [&](Twin& s) -> std::vector<long> {
      r.addr = s.k.sys_mmap(s.t, r.len(), vm::Prot::kReadWrite, policy);
      return {static_cast<long>(r.addr)};
    });
    regions_.push_back(r);
    return "mmap";
  }

  std::string munmap() {
    if (regions_.size() < 3) return "munmap-skipped";
    const std::size_t i = rng_.below(regions_.size());
    const Region r = regions_[i];
    regions_.erase(regions_.begin() + static_cast<std::ptrdiff_t>(i));
    both("munmap", [&](Twin& s) -> std::vector<long> {
      return {static_cast<long>(s.k.sys_munmap(s.t, r.addr, r.len()))};
    });
    return "munmap";
  }

  std::string touch(bool stream) {
    const auto [addr, len] = sub_range(pick());
    const bool write = rng_.chance(0.5);
    both("touch", [&](Twin& s) {
      return access_results(s.k.access(s.t, addr, len,
                                       write ? vm::Prot::kReadWrite : vm::Prot::kRead,
                                       stream ? 3500.0 : 0.0));
    });
    return stream ? "touch-streamed" : "touch";
  }

  std::string strided() {
    const Region& r = pick();
    const std::uint64_t row_bytes = 1 + rng_.below(3 * mem::kPageSize);
    if (row_bytes > r.len()) return "strided-skipped";
    const std::uint64_t off = rng_.below(r.len() - row_bytes + 1);
    const std::uint64_t stride = rng_.below(6 * mem::kPageSize);
    // Rows [0, rows) end inside the region.
    const std::uint64_t room = r.len() - off - row_bytes;
    const std::uint64_t rows = std::min<std::uint64_t>(
        1 + rng_.below(64), stride == 0 ? 64 : room / stride + 1);
    const bool write = rng_.chance(0.5);
    const double rate = rng_.chance(0.5) ? 3500.0 : 0.0;
    both("strided", [&](Twin& s) {
      return access_results(s.k.access_strided(
          s.t, r.addr + off, rows, row_bytes, stride,
          write ? vm::Prot::kReadWrite : vm::Prot::kRead, rate));
    });
    return "strided";
  }

  std::string madvise_next_touch() {
    const auto [addr, len] = sub_range(pick());
    both("madvise-next-touch", [&](Twin& s) -> std::vector<long> {
      return {static_cast<long>(
          s.k.sys_madvise(s.t, addr, len, Advice::kMigrateOnNextTouch))};
    });
    return "madvise-next-touch";
  }

  std::string dontneed() {
    const auto [addr, len] = sub_range(pick());
    const vm::Vaddr start = vm::page_align_down(addr);
    both("madvise-dontneed", [&](Twin& s) -> std::vector<long> {
      return {static_cast<long>(
          s.k.sys_madvise(s.t, start, addr + len - start, Advice::kDontNeed))};
    });
    return "madvise-dontneed";
  }

  std::string poke() {
    if (machine_ != Machine::kMaterialized) return "poke-skipped";
    const auto [addr, len] = sub_range(pick());
    std::vector<std::byte> bytes(std::min<std::uint64_t>(len, 3 * mem::kPageSize));
    for (std::byte& b : bytes) b = static_cast<std::byte>(rng_.next());
    both("poke", [&](Twin& s) -> std::vector<long> {
      return {s.k.poke(s.t.pid, addr, bytes) ? 1L : 0L};
    });
    return "poke";
  }

  /// A move_pages list of one of several shapes: ascending, descending,
  /// with repeats, or scattered over every mapping, unmapped addresses and
  /// the huge mapping included. Targets mostly share one node, so runs
  /// form; some entries name another node, an invalid one, or the node the
  /// page is on.
  std::string move_pages() {
    const Region& r = pick();
    const std::uint64_t first = rng_.below(r.pages);
    const std::uint64_t n = 1 + rng_.below(std::min<std::uint64_t>(r.pages - first, 200));
    std::vector<vm::Vaddr> list;
    const char* shape = "";
    auto page = [&](std::uint64_t i) { return r.addr + i * mem::kPageSize + rng_.below(mem::kPageSize); };
    switch (rng_.below(4)) {
      case 0:
        shape = "ascending";
        for (std::uint64_t i = first; i < first + n; ++i) list.push_back(page(i));
        break;
      case 1:
        shape = "descending";
        for (std::uint64_t i = first + n; i-- > first;) list.push_back(page(i));
        break;
      case 2:
        shape = "repeated";
        for (std::uint64_t i = first; i < first + n; ++i) {
          list.push_back(page(i));
          if (rng_.chance(0.2)) list.push_back(page(first + rng_.below(n)));
        }
        break;
      default: {
        shape = "scattered";
        for (std::uint64_t i = 0; i < n; ++i) {
          switch (rng_.below(8)) {
            case 0: list.push_back(0x10); break;                       // unmapped
            case 1: list.push_back(r.addr + r.len()); break;           // guard page
            case 2: list.push_back(huge_.addr + rng_.below(huge_.len())); break;
            default: {
              const Region& q = pick();
              list.push_back(q.addr + rng_.below(q.len()));
            }
          }
        }
      }
    }
    const topo::NodeId to = random_node();
    std::vector<topo::NodeId> nodes(list.size(), to);
    for (topo::NodeId& node : nodes) {
      if (rng_.chance(0.1)) node = random_node();
      if (rng_.chance(0.02)) node = static_cast<topo::NodeId>(runs_.k.topo().num_nodes() + 1);
    }
    both(std::string{"move_pages-"} + shape, [&](Twin& s) {
      std::vector<int> status(list.size(), 99);
      std::vector<long> out{static_cast<long>(s.k.sys_move_pages(s.t, list, nodes, status))};
      out.insert(out.end(), status.begin(), status.end());
      return out;
    });
    return std::string{"move_pages-"} + shape;
  }

  std::string ranged() {
    std::vector<Kernel::MoveRange> ranges;
    for (std::uint64_t i = 1 + rng_.below(2); i > 0; --i) {
      const auto [addr, len] = rng_.chance(0.1)
                                   ? std::pair{huge_.addr, huge_.len()}
                                   : sub_range(pick());
      ranges.push_back({addr, len, random_node()});
    }
    both("ranged", [&](Twin& s) -> std::vector<long> {
      return {static_cast<long>(s.k.sys_move_pages_ranged(s.t, ranges))};
    });
    return "ranged";
  }

  std::string migrate_pages() {
    const topo::NodeMask all =
        (topo::NodeMask{1} << runs_.k.topo().num_nodes()) - 1;
    const topo::NodeMask from = 1 + rng_.below(all);
    const topo::NodeMask to = 1 + rng_.below(all);
    both("migrate_pages", [&](Twin& s) -> std::vector<long> {
      return {static_cast<long>(s.k.sys_migrate_pages(s.t, s.t.pid, from, to))};
    });
    return "migrate_pages";
  }

  /// Cap a node a few frames above its use, set its min watermark, or lift
  /// both: a run into that node stops midway at the allocator's refusal.
  std::string squeeze() {
    const topo::NodeId n = random_node();
    switch (rng_.below(3)) {
      case 0: {
        const std::uint64_t room = rng_.below(48);
        for (Twin* s : {&runs_, &ref_})
          s->k.phys().set_node_capacity(n, s->k.phys().used_frames(n) + room);
        return "squeeze-cap";
      }
      case 1: {
        const std::uint64_t min = rng_.below(64);
        for (Twin* s : {&runs_, &ref_}) s->k.phys().set_node_watermarks(n, min, min);
        return "squeeze-watermark";
      }
      default:
        for (Twin* s : {&runs_, &ref_}) {
          s->k.phys().set_node_capacity(n, ~std::uint64_t{0});
          s->k.phys().set_node_watermarks(n, 0, 0);
        }
        return "squeeze-lift";
    }
  }

  Machine machine_;
  Twin runs_;  // may move runs
  Twin ref_;   // traced: moves page by page
  sim::Rng rng_;
  std::vector<Region> regions_;
  Region huge_;
};

class MigrateRunDiff : public ::testing::TestWithParam<RunParam> {};

TEST_P(MigrateRunDiff, RunsEqualThePerPagePipeline) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    RunDriver d(GetParam(), seed);
    constexpr int kOps = 300;
    for (int op = 0; op < kOps; ++op) {
      const std::string name = d.step();
      SCOPED_TRACE("seed " + std::to_string(seed) + " op " + std::to_string(op) +
                   " (" + name + ")");
      // Contents differ until a page is freed or poked, so every 8th op
      // compares them.
      d.expect_same(/*contents=*/op % 8 == 7 || op + 1 == kOps);
      if (HasFailure()) return;
    }
    // The ops reached both kinds of run.
    EXPECT_GT(d.stats().pages_migrated_move, 0u) << "seed " << seed;
    EXPECT_GT(d.stats().pages_migrated_nexttouch, 0u) << "seed " << seed;
  }
}

std::string run_param_name(const ::testing::TestParamInfo<RunParam>& info) {
  const auto [lock, mode, machine] = info.param;
  std::string name = lock == LockModel::kCoarse ? "Coarse" : "Range";
  name += mode == MigrationMode::kStopAndCopy ? "StopAndCopy" : "Txn";
  switch (machine) {
    case Machine::kCapped: return name + "Capped";
    case Machine::kTiered: return name + "Tiered";
    case Machine::kMaterialized: return name + "Materialized";
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Machines, MigrateRunDiff,
    ::testing::Combine(::testing::Values(LockModel::kCoarse, LockModel::kRange),
                       ::testing::Values(MigrationMode::kStopAndCopy,
                                         MigrationMode::kTransactional),
                       ::testing::Values(Machine::kCapped, Machine::kTiered,
                                         Machine::kMaterialized)),
    run_param_name);

TEST(MovePagesClaim, OneNPageCallEqualsNOnePageCalls) {
  // For distinct pages, one N-page move_pages call and N one-page calls
  // leave every page on the same node with the same per-page status, even
  // where a capped node answers some of them -ENOMEM.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    sim::Rng rng(seed);
    const KernelConfig cfg{.backing = mem::Backing::kPhantom, .max_frames_per_node = 1024};
    Kernel bulk(cfg);
    Kernel single(cfg);
    ThreadCtx tb, ts;
    tb.pid = bulk.create_process("bulk");
    ts.pid = single.create_process("single");
    constexpr std::uint64_t kPages = 400;
    vm::Vaddr addr = 0;
    for (auto [k, t] : {std::pair{&bulk, &tb}, std::pair{&single, &ts}})
      addr = k->sys_mmap(*t, kPages * mem::kPageSize, vm::Prot::kReadWrite);
    // The same touches from the same cores, and the same caps.
    for (int i = 0; i < 6; ++i) {
      const auto core = static_cast<topo::CoreId>(rng.below(bulk.topo().num_cores()));
      const std::uint64_t first = rng.below(kPages);
      const std::uint64_t n = 1 + rng.below(kPages - first);
      for (auto [k, t] : {std::pair{&bulk, &tb}, std::pair{&single, &ts}}) {
        t->core = core;
        k->access(*t, addr + first * mem::kPageSize, n * mem::kPageSize,
                  vm::Prot::kWrite, 0.0);
      }
    }
    const auto capped = static_cast<topo::NodeId>(rng.below(4));
    const std::uint64_t room = rng.below(64);
    for (Kernel* k : {&bulk, &single})
      k->phys().set_node_capacity(capped, k->phys().used_frames(capped) + room);

    // Distinct pages in a random order (a few never touched), one unmapped
    // address, and targets that include an invalid node.
    std::vector<vm::Vaddr> pages(kPages);
    for (std::uint64_t i = 0; i < kPages; ++i)
      pages[i] = addr + i * mem::kPageSize + rng.below(mem::kPageSize);
    for (std::uint64_t i = kPages - 1; i > 0; --i)
      std::swap(pages[i], pages[rng.below(i + 1)]);
    pages.resize(1 + rng.below(kPages));
    pages.push_back(0x10);
    std::vector<topo::NodeId> nodes(pages.size());
    for (topo::NodeId& n : nodes)
      n = rng.chance(0.02) ? topo::NodeId{7} : static_cast<topo::NodeId>(rng.below(4));

    std::vector<int> bulk_status(pages.size(), 99);
    ASSERT_EQ(bulk.sys_move_pages(tb, pages, nodes, bulk_status), 0);
    std::vector<int> single_status(pages.size(), 99);
    for (std::size_t i = 0; i < pages.size(); ++i)
      ASSERT_EQ(single.sys_move_pages(ts, {&pages[i], 1}, {&nodes[i], 1},
                                      {&single_status[i], 1}),
                0);
    EXPECT_EQ(bulk_status, single_status) << "seed " << seed;
    for (std::uint64_t i = 0; i < kPages; ++i) {
      const vm::Vaddr a = addr + i * mem::kPageSize;
      EXPECT_EQ(bulk.page_node(tb.pid, a), single.page_node(ts.pid, a))
          << "seed " << seed << " page " << i;
    }
    EXPECT_EQ(bulk.stats().pages_migrated_move, single.stats().pages_migrated_move);
    EXPECT_NO_THROW(bulk.validate(tb.pid));
    EXPECT_NO_THROW(single.validate(ts.pid));
  }
}

}  // namespace
}  // namespace numasim::kern

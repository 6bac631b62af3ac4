// Tests for the simulated-thread runtime: Machine, Thread ops, Team
// scheduling, determinism, and multi-thread contention behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "rt/team.hpp"

namespace numasim::rt {
namespace {

Machine::Config small_config() {
  Machine::Config cfg;
  cfg.backing = mem::Backing::kMaterialized;
  return cfg;
}

TEST(Machine, RunsMainThreadBody) {
  Machine m(small_config());
  bool ran = false;
  m.run_main(0, [&](Thread& th) -> sim::Task<void> {
    EXPECT_EQ(th.core(), 0u);
    EXPECT_EQ(th.node(), 0u);
    co_await th.compute(1000);
    EXPECT_EQ(th.now(), m.engine().now());
    ran = true;
  });
  EXPECT_TRUE(ran);
}

TEST(Machine, SpawnRejectsBadCore) {
  Machine m(small_config());
  EXPECT_THROW(m.spawn(99, [](Thread&) -> sim::Task<void> { co_return; }),
               std::invalid_argument);
}

TEST(Thread, MmapTouchPlacesPagesLocally) {
  Machine m(small_config());
  m.run_main(5, [&](Thread& th) -> sim::Task<void> {  // core 5 -> node 1
    const vm::Vaddr a = co_await th.mmap(64 * mem::kPageSize);
    const kern::AccessResult r = co_await th.touch(a, 64 * mem::kPageSize);
    EXPECT_EQ(r.minor_faults, 64u);
    EXPECT_EQ(m.kernel().pages_on_node(m.pid(), a, 64 * mem::kPageSize, 1), 64u);
  });
}

TEST(Thread, MoveRangeMigrates) {
  Machine m(small_config());
  m.run_main(0, [&](Thread& th) -> sim::Task<void> {
    const std::uint64_t len = 100 * mem::kPageSize;
    const vm::Vaddr a = co_await th.mmap(len);
    co_await th.touch(a, len);
    const kern::SyscallResult moved = co_await th.move_range(a, len, 3);
    EXPECT_TRUE(moved.ok());
    EXPECT_EQ(moved.count(), 100);
    EXPECT_EQ(m.kernel().pages_on_node(m.pid(), a, len, 3), 100u);
  });
}

TEST(Thread, SparseTouchFaultsEveryPage) {
  Machine m(small_config());
  m.run_main(0, [&](Thread& th) -> sim::Task<void> {
    const std::uint64_t len = 33 * mem::kPageSize;
    const vm::Vaddr a = co_await th.mmap(len);
    const kern::AccessResult r = co_await th.touch_pages_sparse(a, len);
    EXPECT_EQ(r.minor_faults, 33u);
    EXPECT_EQ(r.pages, 33u);
  });
}

TEST(Thread, MigrateToCoreChangesNode) {
  Machine m(small_config());
  m.run_main(0, [&](Thread& th) -> sim::Task<void> {
    EXPECT_EQ(th.node(), 0u);
    co_await th.migrate_to_core(13);
    EXPECT_EQ(th.core(), 13u);
    EXPECT_EQ(th.node(), 3u);
    // First-touch now lands on node 3.
    const vm::Vaddr a = co_await th.mmap(4 * mem::kPageSize);
    co_await th.touch(a, 4 * mem::kPageSize);
    EXPECT_EQ(m.kernel().pages_on_node(m.pid(), a, 4 * mem::kPageSize, 3), 4u);
  });
}

TEST(Thread, ReadWriteRoundtrip) {
  Machine m(small_config());
  m.run_main(0, [&](Thread& th) -> sim::Task<void> {
    const vm::Vaddr a = co_await th.mmap(2 * mem::kPageSize);
    std::vector<std::byte> data(6000);
    for (std::size_t i = 0; i < data.size(); ++i)
      data[i] = static_cast<std::byte>(i);
    EXPECT_EQ(co_await th.write(a + 100, data), 0);
    std::vector<std::byte> out(6000);
    EXPECT_EQ(co_await th.read(a + 100, out), 0);
    EXPECT_EQ(out, data);
  });
}

TEST(Thread, TouchIsOneEngineEventPerChunkStep) {
  constexpr std::uint64_t kChunk = Thread::kChunkBytes;
  for (const std::uint64_t len :
       {std::uint64_t{0}, std::uint64_t{1}, kChunk, kChunk + mem::kPageSize,
        3 * kChunk + kChunk / 2}) {
    // touch() on one machine...
    kern::AccessResult got;
    std::uint64_t events = 0;
    sim::Time clock = 0;
    Machine m(small_config());
    m.run_main(0, [&](Thread& th) -> sim::Task<void> {
      const vm::Vaddr a = co_await th.mmap(4 * kChunk);
      const std::uint64_t before = m.engine().events_processed();
      got = co_await th.touch(a, len);
      events = m.engine().events_processed() - before;
      clock = th.now();
    });
    // ...against per-chunk Kernel::access calls on a twin.
    kern::AccessResult want;
    sim::Time twin_clock = 0;
    Machine twin(small_config());
    twin.run_main(0, [&](Thread& th) -> sim::Task<void> {
      const vm::Vaddr a = co_await th.mmap(4 * kChunk);
      for (std::uint64_t off = 0; off < len; off += kChunk) {
        const kern::AccessResult r =
            twin.kernel().access(th.ctx(), a + off, std::min(kChunk, len - off),
                                 vm::Prot::kReadWrite,
                                 twin.cost().core_stream_bytes_per_us);
        want.pages += r.pages;
        want.minor_faults += r.minor_faults;
        want.nexttouch_migrations += r.nexttouch_migrations;
        want.nexttouch_hits_local += r.nexttouch_hits_local;
        want.sigsegv_delivered += r.sigsegv_delivered;
      }
      twin_clock = th.now();
    });
    EXPECT_EQ(events, (len + kChunk - 1) / kChunk) << len;
    EXPECT_EQ(got.pages, want.pages) << len;
    EXPECT_EQ(got.minor_faults, want.minor_faults) << len;
    EXPECT_EQ(got.nexttouch_migrations, want.nexttouch_migrations) << len;
    EXPECT_EQ(got.nexttouch_hits_local, want.nexttouch_hits_local) << len;
    EXPECT_EQ(got.sigsegv_delivered, want.sigsegv_delivered) << len;
    EXPECT_EQ(clock, twin_clock) << len;
  }
}

TEST(Thread, TouchStepRejectsMoreThanOneChunk) {
  Machine m(small_config());
  m.run_main(0, [&](Thread& th) -> sim::Task<void> {
    const vm::Vaddr a = co_await th.mmap(2 * Thread::kChunkBytes);
    EXPECT_THROW((void)th.touch_step(a, Thread::kChunkBytes + 1), std::invalid_argument);
    const kern::AccessResult r = co_await th.touch_step(a, Thread::kChunkBytes);
    EXPECT_EQ(r.pages, Thread::kChunkPages);
  });
}

TEST(Engine2Threads, InterleaveDeterministically) {
  auto run_once = [] {
    Machine m(small_config());
    std::vector<std::pair<unsigned, sim::Time>> log;
    for (unsigned i = 0; i < 2; ++i) {
      m.spawn(i, [&log, i](Thread& th) -> sim::Task<void> {
        for (int step = 0; step < 5; ++step) {
          co_await th.compute(1000 + 300 * i);
          log.emplace_back(i, th.now());
        }
      });
    }
    m.run();
    return log;
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);  // bit-identical schedules
  ASSERT_EQ(a.size(), 10u);
  EXPECT_EQ(a[0].first, 0u);  // faster thread logs first
}

TEST(Team, ParallelForksAndJoins) {
  Machine m(small_config());
  m.run_main(0, [&](Thread& th) -> sim::Task<void> {
    Team team = Team::all_cores(m);
    EXPECT_EQ(team.size(), 16u);
    std::set<topo::CoreId> seen;
    std::vector<sim::Time> finishes;
    Team::WorkerFn worker = [&](unsigned tid, Thread& w) -> sim::Task<void> {
      seen.insert(w.core());
      co_await w.compute(1000 * (tid + 1));
      finishes.push_back(w.now());
    };  // named: GCC 12 coroutine workaround (see team.cpp)
    co_await team.parallel(th, std::move(worker));
    EXPECT_EQ(seen.size(), 16u);
    // Join advanced the caller past every worker.
    for (sim::Time f : finishes) EXPECT_GE(th.now(), f);
    EXPECT_GT(team.last_span(), 0u);
    EXPECT_GT(team.last_stats().get(sim::CostKind::kCompute), 0u);
  });
}

TEST(Team, StaticScheduleIsContiguousPartition) {
  Machine m(small_config());
  m.run_main(0, [&](Thread& th) -> sim::Task<void> {
    Team team(m, {0, 1, 2, 3});
    std::vector<int> owner(40, -1);
    Team::IndexFn body = [&](unsigned tid, Thread&, std::uint64_t i) -> sim::Task<void> {
      owner[i] = static_cast<int>(tid);
      co_return;
    };
    co_await team.parallel_for(th, 0, 40, Schedule::kStatic, std::move(body));
    for (int i = 0; i < 40; ++i) EXPECT_EQ(owner[i], i / 10);
  });
}

TEST(Team, DynamicScheduleCoversAllExactlyOnce) {
  Machine m(small_config());
  m.run_main(0, [&](Thread& th) -> sim::Task<void> {
    Team team(m, {0, 4, 8, 12});
    std::vector<unsigned> count(101, 0);
    Team::IndexFn body = [&](unsigned, Thread& w, std::uint64_t i) -> sim::Task<void> {
      ++count[i];
      co_await w.compute(100 + (i % 7) * 50);
    };
    co_await team.parallel_for(th, 0, 101, Schedule::kDynamic, std::move(body),
                               /*chunk=*/3);
    for (unsigned c : count) EXPECT_EQ(c, 1u);
  });
}

TEST(Team, NodeCoresSelectsOneNode) {
  Machine m(small_config());
  Team team = Team::node_cores(m, 2, 3);
  EXPECT_EQ(team.size(), 3u);
  for (topo::CoreId c : team.cores()) EXPECT_EQ(m.topology().node_of_core(c), 2u);
  EXPECT_THROW(Team::node_cores(m, 1, 5), std::invalid_argument);
}

TEST(Team, BarrierSynchronizesWorkers) {
  Machine m(small_config());
  m.run_main(0, [&](Thread& th) -> sim::Task<void> {
    Team team(m, {0, 1, 2});
    sim::Barrier bar(m.engine(), 3, m.cost().barrier_phase);
    std::vector<sim::Time> after(3);
    Team::WorkerFn worker = [&](unsigned tid, Thread& w) -> sim::Task<void> {
      co_await w.compute(500 * (tid + 1));
      co_await w.barrier(bar);
      after[tid] = w.now();
    };
    co_await team.parallel(th, std::move(worker));
    EXPECT_EQ(after[0], after[1]);
    EXPECT_EQ(after[1], after[2]);
  });
}

// The Fig. 7 mechanism in miniature: 4 threads migrating disjoint chunks of
// a large buffer finish faster than 1 thread migrating it all, but nowhere
// near 4x (page-table lock serializes control).
TEST(Contention, ParallelMovePagesScalesSublinearly) {
  auto run = [](unsigned nthreads) {
    Machine m(small_config());
    sim::Time span = 0;
    m.run_main(0, [&](Thread& th) -> sim::Task<void> {
      const std::uint64_t npages = 4096;
      const std::uint64_t len = npages * mem::kPageSize;
      const vm::Vaddr a = co_await th.mmap(len, vm::Prot::kReadWrite,
                                           vm::MemPolicy::bind(1));  // node 0
      co_await th.touch(a, len);
      Team team = Team::node_cores(m, 1, nthreads);
      const std::uint64_t per = len / nthreads;
      Team::WorkerFn worker = [&](unsigned tid, Thread& w) -> sim::Task<void> {
        co_await w.move_range(a + tid * per, per, 1);
      };
      co_await team.parallel(th, std::move(worker));
      span = team.last_span();
      EXPECT_EQ(m.kernel().pages_on_node(m.pid(), a, len, 1), npages);
    });
    return span;
  };
  const sim::Time t1 = run(1);
  const sim::Time t4 = run(4);
  EXPECT_LT(t4, t1);          // some speedup...
  EXPECT_GT(t4, t1 / 4);      // ...but far from linear
}

TEST(Contention, SharedLinkSlowsConcurrentStreams) {
  // Two remote readers crossing the same HT link take longer per byte than
  // one; aggregate throughput is capped by the link.
  auto run = [](unsigned nthreads) {
    Machine m(small_config());
    sim::Time span = 0;
    m.run_main(0, [&](Thread& th) -> sim::Task<void> {
      const std::uint64_t len = 4096 * mem::kPageSize;  // 16 MiB on node 0
      const vm::Vaddr a = co_await th.mmap(len, vm::Prot::kReadWrite,
                                           vm::MemPolicy::bind(1));
      co_await th.touch(a, len);
      Team team = Team::node_cores(m, 1, nthreads);  // readers on node 1
      const std::uint64_t per = len / nthreads;
      Team::WorkerFn worker = [&](unsigned tid, Thread& w) -> sim::Task<void> {
        co_await w.touch(a + tid * per, per, vm::Prot::kRead);
      };
      co_await team.parallel(th, std::move(worker));
      span = team.last_span();
    });
    return span;
  };
  const sim::Time t1 = run(1);
  const sim::Time t2 = run(2);
  // Each thread reads half the bytes, so with no contention t2 would be
  // ~t1/2; the shared link keeps it above that.
  EXPECT_LT(t2, t1);
  EXPECT_GT(t2, t1 / 2);
}

TEST(Machine, ThreadExceptionPropagates) {
  Machine m(small_config());
  m.spawn(0, [](Thread& th) -> sim::Task<void> {
    co_await th.compute(10);
    throw std::logic_error{"worker failed"};
  });
  EXPECT_THROW(m.run(), std::logic_error);
}

}  // namespace
}  // namespace numasim::rt

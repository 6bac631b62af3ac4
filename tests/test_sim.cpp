// Unit tests for the discrete-event engine, coroutine tasks, timeline
// resources, barrier, RNG determinism and cost statistics.
#include <gtest/gtest.h>

#include <set>
#include <string_view>
#include <vector>

#include "sim/barrier.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace numasim::sim {
namespace {

TEST(Time, UnitHelpers) {
  EXPECT_EQ(microseconds(3), 3000u);
  EXPECT_EQ(milliseconds(2), 2'000'000u);
  EXPECT_EQ(seconds(1), 1'000'000'000u);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(5)), 5.0);
  EXPECT_DOUBLE_EQ(mb_per_second(1'000'000, milliseconds(1)), 1000.0);
  EXPECT_DOUBLE_EQ(mb_per_second(123, 0), 0.0);
}

TEST(Time, Format) {
  EXPECT_EQ(format_time(500), "500 ns");
  EXPECT_EQ(format_time(microseconds(150)), "150.000 us");
  EXPECT_EQ(format_time(milliseconds(12)), "12.000 ms");
  EXPECT_EQ(format_time(seconds(30)), "30.000 s");
}

Task<void> record_at(Engine& e, Time t, std::vector<Time>& out) {
  co_await e.resume_at(t);
  out.push_back(e.now());
}

TEST(Engine, ProcessesEventsInTimeOrder) {
  Engine e;
  std::vector<Time> order;
  e.start(record_at(e, 300, order));
  e.start(record_at(e, 100, order));
  e.start(record_at(e, 200, order));
  e.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 100u);
  EXPECT_EQ(order[1], 200u);
  EXPECT_EQ(order[2], 300u);
}

Task<void> two_hops(Engine& e, std::vector<Time>& out) {
  co_await e.advance(50);
  out.push_back(e.now());
  co_await e.advance(25);
  out.push_back(e.now());
}

TEST(Engine, AdvanceAccumulates) {
  Engine e;
  std::vector<Time> out;
  e.start(two_hops(e, out));
  e.run();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 50u);
  EXPECT_EQ(out[1], 75u);
}

TEST(Engine, SameInstantTieBreaksByScheduleOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    e.start([](Engine& eng, std::vector<int>& o, int id) -> Task<void> {
      co_await eng.resume_at(42);
      o.push_back(id);
    }(e, order, i));
  }
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

Task<int> answer() { co_return 42; }

Task<void> outer(Engine& e, int& result) {
  co_await e.advance(10);
  result = co_await answer();
}

TEST(Task, NestedTaskReturnsValue) {
  Engine e;
  int result = 0;
  e.start(outer(e, result));
  e.run();
  EXPECT_EQ(result, 42);
}

Task<void> thrower(Engine& e) {
  co_await e.advance(1);
  throw std::runtime_error{"boom"};
}

TEST(Task, RootExceptionPropagatesFromRun) {
  Engine e;
  e.start(thrower(e));
  EXPECT_THROW(e.run(), std::runtime_error);
}

Task<void> catcher(Engine& e, bool& caught) {
  try {
    co_await thrower(e);
  } catch (const std::runtime_error&) {
    caught = true;
  }
}

TEST(Task, NestedExceptionCatchable) {
  Engine e;
  bool caught = false;
  e.start(catcher(e, caught));
  e.run();
  EXPECT_TRUE(caught);
}

TEST(Engine, CompletionCallbackAndFinished) {
  Engine e;
  bool done = false;
  const RootId id = e.start_with_callback(
      [](Engine& eng) -> Task<void> { co_await eng.advance(7); }(e),
      [&] { done = true; });
  EXPECT_FALSE(e.finished(id));
  e.run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(e.finished(id));
  EXPECT_EQ(e.live_roots(), 0u);
}

TEST(Timeline, SerializesReservations) {
  Timeline tl;
  const Slot a = tl.reserve(100, 50);
  EXPECT_EQ(a.start, 100u);
  EXPECT_EQ(a.finish, 150u);
  const Slot b = tl.reserve(120, 10);  // arrives while busy
  EXPECT_EQ(b.start, 150u);
  EXPECT_EQ(b.finish, 160u);
  EXPECT_EQ(b.wait(120), 30u);
  const Slot c = tl.reserve(500, 10);  // idle resource
  EXPECT_EQ(c.start, 500u);
}

TEST(BandwidthResource, DurationMatchesRate) {
  BandwidthResource bw(1000.0);  // 1 GB/s == 1000 bytes/us
  EXPECT_EQ(bw.duration(4096), 4096u);
  const Slot s = bw.transfer(0, 4096);
  EXPECT_EQ(s.finish, 4096u);
  const Slot t = bw.transfer(0, 4096);  // queued behind the first
  EXPECT_EQ(t.start, 4096u);
  EXPECT_EQ(t.finish, 8192u);
}

TEST(BandwidthResource, LatencyAddsPerTransfer) {
  BandwidthResource bw(1000.0, 500);
  const Slot s = bw.transfer(0, 1000);
  EXPECT_EQ(s.finish, 1500u);
}

Task<void> barrier_party(Engine& e, Barrier& b, Time arrive, std::vector<Time>& out) {
  co_await e.resume_at(arrive);
  co_await b.arrive();
  out.push_back(e.now());
}

TEST(Barrier, ReleasesAllAtLastArrival) {
  Engine e;
  Barrier b(e, 3, /*phase_cost=*/10);
  std::vector<Time> out;
  e.start(barrier_party(e, b, 100, out));
  e.start(barrier_party(e, b, 250, out));
  e.start(barrier_party(e, b, 400, out));
  e.run();
  ASSERT_EQ(out.size(), 3u);
  for (Time t : out) EXPECT_EQ(t, 410u);  // last arrival + phase cost
}

TEST(Barrier, IsReusableAcrossGenerations) {
  Engine e;
  Barrier b(e, 2, 0);
  std::vector<Time> out;
  auto body = [](Engine& eng, Barrier& bar, Time first,
                 std::vector<Time>& o) -> Task<void> {
    co_await eng.resume_at(first);
    co_await bar.arrive();
    o.push_back(eng.now());
    co_await eng.advance(first);  // diverge again
    co_await bar.arrive();
    o.push_back(eng.now());
  };
  e.start(body(e, b, 10, out));
  e.start(body(e, b, 30, out));
  e.run();
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0], 30u);
  EXPECT_EQ(out[1], 30u);
  EXPECT_EQ(out[2], 60u);  // 30 + max(10,30)
  EXPECT_EQ(out[3], 60u);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123), c(124);
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
    if (va != c.next()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(Rng, BelowStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.below(17), 17u);
    const auto v = r.between(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(CostStats, AccumulatesAndFractions) {
  CostStats s;
  s.add(CostKind::kCompute, 300);
  s.add(CostKind::kMemAccess, 100);
  s.add(CostKind::kCompute, 100);
  EXPECT_EQ(s.get(CostKind::kCompute), 400u);
  EXPECT_EQ(s.total(), 500u);
  EXPECT_DOUBLE_EQ(s.fraction(CostKind::kCompute), 0.8);
  CostStats t;
  t.add(CostKind::kCompute, 100);
  t += s;
  EXPECT_EQ(t.get(CostKind::kCompute), 500u);
  t.reset();
  EXPECT_EQ(t.total(), 0u);
}

TEST(CostStats, EveryKindHasAName) {
  std::set<std::string_view> names;
  for (std::size_t i = 0; i < kCostKindCount; ++i) {
    EXPECT_NE(cost_kind_name(static_cast<CostKind>(i)), "?");
    names.insert(cost_kind_name(static_cast<CostKind>(i)));
  }
  EXPECT_EQ(names.size(), kCostKindCount);  // no two kinds share a name
}

TEST(Engine, SameTimestampWakeupsRunInPostOrder) {
  // The redesigned posting API routes same-time wakeups through a FIFO.
  // Heap events that land on the current timestamp still run before FIFO
  // entries — they were posted from an earlier instant, so their sequence
  // numbers are older. A: sleep to 10, record, then advance(0) (FIFO);
  // B: sleep to 10, record. Expected order: A1, B1 (heap drained first), A2.
  Engine e;
  std::vector<int> order;
  e.start([](Engine& eng, std::vector<int>& ord) -> Task<void> {
    co_await eng.advance(10);
    ord.push_back(1);  // A1
    co_await eng.advance(0);
    ord.push_back(3);  // A2
  }(e, order));
  e.start([](Engine& eng, std::vector<int>& ord) -> Task<void> {
    co_await eng.advance(10);
    ord.push_back(2);  // B1
  }(e, order));
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 10u);
}

TEST(Engine, ZeroDelayAdvancesCountAsEvents) {
  Engine e;
  e.start([](Engine& eng) -> Task<void> {
    for (int i = 0; i < 5; ++i) co_await eng.advance(0);
  }(e));
  e.run();
  // 5 wakeups + the root start event.
  EXPECT_EQ(e.events_processed(), 6u);
  EXPECT_EQ(e.now(), 0u);
}

TEST(Engine, RunsAreDeterministic) {
  auto drive = [] {
    Engine e;
    std::vector<std::uint64_t> trace;
    for (int id = 0; id < 4; ++id) {
      e.start([](Engine& eng, int me, std::vector<std::uint64_t>& tr)
                  -> Task<void> {
        for (int i = 0; i < 8; ++i) {
          co_await eng.advance(static_cast<Time>((me + 1) * 3));
          tr.push_back(eng.now() * 10 + static_cast<std::uint64_t>(me));
        }
      }(e, id, trace));
    }
    e.run();
    return std::pair{trace, e.events_processed()};
  };
  const auto a = drive();
  const auto b = drive();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(FramePool, ReusesFreedCoroutineFrames) {
  // The slab pool hands back the most recently freed block of a size class.
  void* a = FramePool::allocate(192);
  FramePool::deallocate(a, 192);
  void* b = FramePool::allocate(192);
  EXPECT_EQ(a, b);
  FramePool::deallocate(b, 192);
  // Distinct size classes never alias while both are live.
  void* c = FramePool::allocate(64);
  void* d = FramePool::allocate(128);
  EXPECT_NE(c, d);
  FramePool::deallocate(c, 64);
  FramePool::deallocate(d, 128);
  // Oversized requests bypass the pool but still round-trip.
  void* big = FramePool::allocate(1 << 20);
  ASSERT_NE(big, nullptr);
  FramePool::deallocate(big, 1 << 20);
}

}  // namespace
}  // namespace numasim::sim

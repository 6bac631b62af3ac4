// KV serving subsystem tests: shard routing and slot permutation, zipfian
// traffic determinism, skew and draw exactness, phase-shift boundaries, data
// integrity under concurrent migration (both lock models), event-for-event
// run determinism with all policies off, and the zero-cost guarantee for
// sink-free serving.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "apps/kvstore.hpp"
#include "apps/traffic.hpp"
#include "kern/event_log.hpp"
#include "obs/trace.hpp"
#include "rt/machine.hpp"
#include "rt/team.hpp"
#include "rt/thread.hpp"

namespace numasim::apps {
namespace {

// --- shard routing / index ---------------------------------------------------

TEST(KvStore, ShardRoutingAndSlotPermutation) {
  rt::Machine m;
  KvConfig cfg;
  cfg.shards = 8;
  cfg.keys_per_shard = 64;
  KvStore store(m, cfg);
  ASSERT_EQ(store.num_keys(), 512u);
  for (std::uint64_t key = 0; key < store.num_keys(); ++key)
    EXPECT_EQ(store.shard_of(key), key / 64) << key;
  // Within each shard the slot assignment is a bijection onto [0, kps).
  for (std::uint64_t s = 0; s < cfg.shards; ++s) {
    std::set<std::uint64_t> slots;
    for (std::uint64_t k = 0; k < cfg.keys_per_shard; ++k) {
      const std::uint64_t slot = store.slot_of(s * cfg.keys_per_shard + k);
      EXPECT_LT(slot, cfg.keys_per_shard);
      slots.insert(slot);
    }
    EXPECT_EQ(slots.size(), cfg.keys_per_shard) << "shard " << s;
  }
  // Distinct index seeds permute differently (overwhelmingly likely).
  KvConfig cfg2 = cfg;
  cfg2.index_seed = 8;
  KvStore other(m, cfg2);
  bool differs = false;
  for (std::uint64_t key = 0; key < store.num_keys() && !differs; ++key)
    differs = store.slot_of(key) != other.slot_of(key);
  EXPECT_TRUE(differs);
}

TEST(KvStore, RejectsBadShape) {
  rt::Machine m;
  KvConfig cfg;
  cfg.shards = 0;
  EXPECT_THROW(KvStore(m, cfg), std::invalid_argument);
  cfg.shards = 4;
  cfg.keys_per_shard = 0;
  EXPECT_THROW(KvStore(m, cfg), std::invalid_argument);
  cfg.keys_per_shard = 16;
  cfg.value_bytes = 3000;  // does not divide the page size
  EXPECT_THROW(KvStore(m, cfg), std::invalid_argument);
}

TEST(KvStore, SlotAddressesStayInsideTheirShardArena) {
  rt::Machine m;
  KvConfig cfg;
  cfg.shards = 4;
  cfg.keys_per_shard = 32;
  cfg.value_bytes = 256;
  KvStore store(m, cfg);
  m.run_main(0, [&](rt::Thread& th) -> sim::Task<void> {
    co_await store.setup(th);
  });
  for (std::uint64_t key = 0; key < store.num_keys(); ++key) {
    const vm::Vaddr base = store.shard_addr(store.shard_of(key));
    const vm::Vaddr a = store.slot_addr(key);
    EXPECT_GE(a, base);
    EXPECT_LE(a + cfg.value_bytes, base + store.shard_bytes());
  }
}

// --- traffic generator -------------------------------------------------------

ClientTraffic::Config traffic_config(unsigned tenant = 0,
                                     std::uint64_t seed = 42) {
  ClientTraffic::Config tc;
  tc.tenant = tenant;
  tc.tenants = 4;
  tc.keys_per_tenant = 2048;
  tc.mix = Mix::kScanMixed;
  tc.theta = 0.99;
  tc.plan = {3, 1000};
  tc.seed = seed;
  return tc;
}

TEST(Traffic, SameSeedYieldsIdenticalStream) {
  ClientTraffic a(traffic_config());
  ClientTraffic b(traffic_config());
  ClientTraffic c(traffic_config(0, 43));
  bool differs = false;
  for (int i = 0; i < 3000; ++i) {
    const Request ra = a.next();
    const Request rb = b.next();
    const Request rc = c.next();
    ASSERT_EQ(ra.op, rb.op) << i;
    ASSERT_EQ(ra.key, rb.key) << i;
    ASSERT_EQ(ra.scan_slots, rb.scan_slots) << i;
    differs = differs || ra.op != rc.op || ra.key != rc.key;
  }
  EXPECT_TRUE(differs);  // a different seed is a different stream
}

TEST(Traffic, ZipfianMassConcentratesInFirstShardOfRange) {
  ClientTraffic gen(traffic_config());
  std::uint64_t hot = 0, total = 0;
  const std::uint64_t base = gen.range_base(0);
  for (int i = 0; i < 1000; ++i) {  // stay inside phase 0
    const Request r = gen.next();
    ASSERT_GE(r.key, base);
    ASSERT_LT(r.key, base + 2048);
    if (r.key < base + 512) ++hot;  // first shard of the 4-shard range
    ++total;
  }
  // theta=0.99 over 2048 keys puts ~80 % of draws in the first 512 ranks.
  EXPECT_GT(hot * 100, total * 60);
}

TEST(Traffic, PhaseShiftRotatesKeyRangesAtExactBoundaries) {
  ClientTraffic gen(traffic_config(/*tenant=*/1));
  EXPECT_EQ(gen.config().plan.total_requests(), 3000u);
  for (std::uint64_t i = 0; i < 3000; ++i) {
    const unsigned expect_phase = static_cast<unsigned>(i / 1000);
    EXPECT_EQ(gen.phase(), expect_phase) << i;
    EXPECT_EQ(gen.range_of(expect_phase), (1 + expect_phase) % 4);
    const Request r = gen.next();
    const std::uint64_t base = gen.range_base(expect_phase);
    EXPECT_GE(r.key, base) << i;
    EXPECT_LT(r.key, base + 2048) << i;
  }
  // Past the plan the generator clamps to the final phase.
  EXPECT_EQ(gen.phase(), 2u);
}

TEST(Traffic, RejectsBadConfig) {
  ClientTraffic::Config tc = traffic_config();
  tc.tenants = 0;
  EXPECT_THROW(ClientTraffic{tc}, std::invalid_argument);
  tc = traffic_config();
  tc.tenant = 4;  // out of range
  EXPECT_THROW(ClientTraffic{tc}, std::invalid_argument);
  tc = traffic_config();
  tc.keys_per_tenant = 0;
  EXPECT_THROW(ClientTraffic{tc}, std::invalid_argument);
  tc = traffic_config();
  tc.keys_per_tenant = std::uint64_t{1} << 32;  // guide ranks are 32-bit
  EXPECT_THROW(ClientTraffic{tc}, std::invalid_argument);
}

TEST(Traffic, ZipfianDrawsMatchBinarySearchOverTheCdf) {
  // Reference: the fixed-point CDF rebuilt here, searched with
  // std::upper_bound on the same Rng stream. The sampler's guide table must
  // return the identical rank on every draw.
  constexpr int kDraws = 100000;
  for (const std::uint64_t n : {1ull, 2ull, 7ull, 2048ull, 65536ull}) {
    for (const double theta : {0.0, 0.99, 1.5, 3.0}) {
      std::vector<std::uint64_t> cdf(n);
      std::uint64_t total = 0;
      for (std::uint64_t r = 0; r < n; ++r) {
        const double w = 4294967296.0 / std::pow(static_cast<double>(r + 1), theta);
        total += std::max<std::uint64_t>(1, static_cast<std::uint64_t>(w));
        cdf[r] = total;
      }
      for (const std::uint64_t seed : {1ull, 7ull, 0x5eedull}) {
        ZipfianSampler zipf(n, theta, seed);
        sim::Rng rng(seed);
        std::uint64_t mismatches = 0;
        for (int i = 0; i < kDraws; ++i) {
          const std::uint64_t u = rng.below(total);
          const auto want = static_cast<std::uint64_t>(
              std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
          if (zipf.next() != want) ++mismatches;
        }
        EXPECT_EQ(mismatches, 0u) << "n=" << n << " theta=" << theta
                                  << " seed=" << seed;
      }
    }
  }
}

// --- integrity under concurrent migration ------------------------------------

/// Two clients hammer get/put/scan over the whole store while a migrator
/// thread bounces every shard arena between nodes. Numeric stamps must
/// survive: migration may move pages but never corrupt or lose them.
void run_concurrent_migration(kern::LockModel lock) {
  rt::Machine::Config mc;
  mc.lock_model = lock;
  rt::Machine m(mc);
  KvConfig kc;
  kc.shards = 4;
  kc.keys_per_shard = 64;
  kc.value_bytes = 1024;
  kc.numeric = true;
  KvStore store(m, kc);

  rt::Team team(m, {0, 4, 8});
  rt::Team::WorkerFn worker = [&](unsigned tid,
                                  rt::Thread& w) -> sim::Task<void> {
    if (tid == 2) {
      // Migrator: sweep every shard to every node, twice.
      for (unsigned round = 0; round < 8; ++round)
        for (std::uint64_t s = 0; s < kc.shards; ++s) {
          const auto res = co_await w.move_range(
              store.shard_addr(s), store.shard_bytes(),
              static_cast<topo::NodeId>((s + round) % 4));
          EXPECT_TRUE(res.ok());
        }
      co_return;
    }
    ClientTraffic::Config tc;
    tc.tenant = tid;
    tc.tenants = 2;
    tc.keys_per_tenant = store.num_keys() / 2;
    tc.mix = Mix::kWriteHeavy;  // puts exercise stamp writes under migration
    tc.plan = {2, 300};
    tc.seed = 1000 + tid;
    ClientTraffic gen(tc);
    for (int i = 0; i < 600; ++i) co_await store.execute(w, gen.next());
  };
  m.run_main(12, [&](rt::Thread& th) -> sim::Task<void> {
    co_await store.setup(th);
    co_await store.populate_all(th);
    co_await team.parallel(th, worker, "kv-migrate");
    co_await th.kmigrated_drain();
  });

  EXPECT_GT(m.kernel().stats().pages_migrated_move, 0u);
  EXPECT_EQ(store.stats().verify_failures, 0u);
  EXPECT_EQ(store.verify_all(), 0u);
  EXPECT_GT(store.stats().gets, 0u);
  EXPECT_GT(store.stats().puts, 0u);
}

TEST(KvStore, IntegrityUnderConcurrentMigrationCoarseLock) {
  run_concurrent_migration(kern::LockModel::kCoarse);
}

TEST(KvStore, IntegrityUnderConcurrentMigrationRangeLock) {
  run_concurrent_migration(kern::LockModel::kRange);
}

// --- determinism / zero-cost -------------------------------------------------

struct ServingResult {
  sim::Time end_time = 0;
  std::uint64_t minor_faults = 0;
  std::uint64_t gets = 0;
  std::uint64_t puts = 0;
  std::uint64_t scans = 0;
  std::uint64_t probes = 0;
};

/// A small two-client serving run with every adaptive policy off. `sink`
/// (optional) subscribes to the kernel tracepoint stream.
ServingResult run_serving(obs::TraceSink* sink) {
  rt::Machine m;
  if (sink != nullptr) m.kernel().add_trace_sink(sink);
  KvConfig kc;
  kc.shards = 4;
  kc.keys_per_shard = 64;
  KvStore store(m, kc);
  rt::Team team(m, {0, 4});
  rt::Team::WorkerFn worker = [&](unsigned tid,
                                  rt::Thread& w) -> sim::Task<void> {
    ClientTraffic::Config tc;
    tc.tenant = tid;
    tc.tenants = 2;
    tc.keys_per_tenant = store.num_keys() / 2;
    tc.mix = Mix::kScanMixed;
    tc.plan = {2, 400};
    tc.seed = 7 + tid;
    ClientTraffic gen(tc);
    obs::Histogram lat;
    for (int i = 0; i < 800; ++i)
      co_await store.execute(w, gen.next(), &lat);
    EXPECT_EQ(lat.count(), 800u);
  };
  ServingResult r;
  m.run_main(8, [&](rt::Thread& th) -> sim::Task<void> {
    co_await store.setup(th);
    co_await team.parallel(th, worker, "serving");
    r.end_time = th.now();
  });
  r.minor_faults = m.kernel().stats().minor_faults;
  r.gets = store.stats().gets;
  r.puts = store.stats().puts;
  r.scans = store.stats().scans;
  r.probes = store.stats().index_probes;
  return r;
}

TEST(KvStore, PolicyOffRunsAreEventForEventIdentical) {
  kern::EventLog log1(1 << 20), log2(1 << 20);
  const ServingResult r1 = run_serving(&log1);
  const ServingResult r2 = run_serving(&log2);
  EXPECT_EQ(r1.end_time, r2.end_time);
  ASSERT_GT(log1.events().size(), 0u);
  ASSERT_EQ(log1.events().size(), log2.events().size());
  for (std::size_t i = 0; i < log1.events().size(); ++i) {
    const kern::Event& a = log1.events()[i];
    const kern::Event& b = log2.events()[i];
    ASSERT_EQ(a.when, b.when) << i;
    ASSERT_EQ(a.tid, b.tid) << i;
    ASSERT_EQ(a.type, b.type) << i;
    ASSERT_EQ(a.vpn, b.vpn) << i;
    ASSERT_EQ(a.pages, b.pages) << i;
    ASSERT_EQ(a.from, b.from) << i;
    ASSERT_EQ(a.to, b.to) << i;
  }
}

TEST(KvStore, SinkFreeServingIsZeroCostAndDeterministic) {
  // Two sink-free runs are byte-identical in everything observable.
  const ServingResult bare1 = run_serving(nullptr);
  const ServingResult bare2 = run_serving(nullptr);
  EXPECT_EQ(bare1.end_time, bare2.end_time);
  EXPECT_EQ(bare1.minor_faults, bare2.minor_faults);
  EXPECT_EQ(bare1.gets, bare2.gets);
  EXPECT_EQ(bare1.puts, bare2.puts);
  EXPECT_EQ(bare1.scans, bare2.scans);
  EXPECT_EQ(bare1.probes, bare2.probes);

  // A fully traced run emits per-request kv.* spans yet draws no simulated
  // cost: execute() only constructs its Phase span when tracing is enabled,
  // and span emission never advances the thread clock.
  obs::ChromeTraceWriter w(/*capacity=*/1 << 20);
  const ServingResult traced = run_serving(&w);
  EXPECT_EQ(traced.end_time, bare1.end_time);
  EXPECT_EQ(traced.minor_faults, bare1.minor_faults);
  const std::string json = w.to_json();
  EXPECT_NE(json.find("\"name\":\"kv.get\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"kv.scan\""), std::string::npos);
}

}  // namespace
}  // namespace numasim::apps

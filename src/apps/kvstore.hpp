// Sharded in-memory key-value store over NUMA-placed shard arenas.
//
// The first request-serving workload of the repo: fixed-size values live in
// one `lib::NumaBuffer` arena per shard (placement per KvConfig::Placement),
// a host-side open-addressing index maps keys to permuted slots (the probe
// walk is charged as computation, the value access as a simulated touch),
// and a request runs as one coroutine, `execute()`, on the calling thread, so
// per-request simulated latency is just the thread-clock delta across it.
//
// Keys are dense: the keyspace is exactly shards * keys_per_shard and every
// key exists after setup (serving stores are loaded before they take
// traffic). `shard_of` is key / keys_per_shard, so a contiguous key range
// maps to contiguous shards — the traffic layer exploits this to
// concentrate zipfian heat in the first shard of each tenant's range.
//
// In numeric mode (materialized backing only) every put stamps the value's
// first 8 bytes through the timing-free poke path and every get re-reads
// the stamp, so tests can assert end-to-end data integrity under concurrent
// migration.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "apps/traffic.hpp"
#include "lib/numalib.hpp"
#include "obs/metrics.hpp"
#include "rt/machine.hpp"
#include "rt/thread.hpp"

namespace numasim::apps {

/// Arena placement policy (the --placement axis of bench/serving_mixes that
/// is decided at allocation time; move_pages/AutoNUMA act on top of
/// kFirstTouch afterwards).
enum class KvPlacement : std::uint8_t { kFirstTouch, kInterleave, kTiered };

struct KvConfig {
  std::uint64_t shards = 16;
  std::uint64_t keys_per_shard = 512;
  /// Bytes per value; must divide the page size (values never straddle
  /// pages, like a slab allocator).
  std::uint64_t value_bytes = 1024;
  KvPlacement placement = KvPlacement::kFirstTouch;
  std::uint64_t index_seed = 7;  ///< slot-permutation / hash-table seed
  bool numeric = false;          ///< stamp verification via peek/poke
};

class KvStore {
 public:
  struct OpStats {
    std::uint64_t gets = 0;
    std::uint64_t puts = 0;
    std::uint64_t scans = 0;
    std::uint64_t scan_slots = 0;      ///< total slots read by scans
    std::uint64_t index_probes = 0;    ///< hash-table cells inspected
    std::uint64_t verify_failures = 0; ///< numeric-mode stamp mismatches
  };

  KvStore(rt::Machine& m, KvConfig cfg);

  /// Map the shard arenas and build the index. Call once from the setup
  /// thread before issuing requests; arenas are not faulted in (first touch
  /// must stay with the serving clients for kFirstTouch placement).
  sim::Task<void> setup(rt::Thread& th);

  /// Numeric mode: fault every slot in and write its initial stamp from the
  /// calling thread (tests that want a fully resident store).
  sim::Task<void> populate_all(rt::Thread& th);

  const KvConfig& config() const { return cfg_; }
  const OpStats& stats() const { return stats_; }
  std::uint64_t num_keys() const { return cfg_.shards * cfg_.keys_per_shard; }

  std::uint64_t shard_of(std::uint64_t key) const {
    return key / cfg_.keys_per_shard;
  }
  /// Permuted slot of `key` within its shard (stable for the store's life).
  std::uint64_t slot_of(std::uint64_t key) const {
    return slot_of_key_[key];
  }
  vm::Vaddr shard_addr(std::uint64_t shard) const {
    return arenas_[shard].addr();
  }
  /// Mapped bytes of one shard arena (page-rounded).
  std::uint64_t shard_bytes() const { return shard_bytes_; }
  vm::Vaddr slot_addr(std::uint64_t key) const {
    return shard_addr(shard_of(key)) + slot_of(key) * cfg_.value_bytes;
  }
  /// Present pages of `shard`'s arena on `node` (timing-free).
  std::uint64_t shard_pages_on(std::uint64_t shard, topo::NodeId node) const {
    return arenas_[shard].pages_on(node);
  }

  /// Run one request on `th`: probe the index (charged as computation),
  /// then touch the value — one page-local step for a get or put; for a
  /// scan, up to `scan_slots` contiguous slots from the key's slot, clamped
  /// at the shard end (scans never leave their shard). When `lat` is given,
  /// records the simulated nanoseconds the request took. Emits a
  /// per-request trace span only when a sink is attached (span construction
  /// is pure host cost, but a span per request would still be waste when
  /// nobody listens).
  sim::Task<void> execute(rt::Thread& th, const Request& req,
                          obs::Histogram* lat = nullptr);

  /// Numeric mode: re-read every stamped key through peek and count
  /// mismatches (0 = store intact). Timing-free.
  std::uint64_t verify_all() const;

 private:
  // Index-walk computation charge: base lookup plus one cache-miss-ish step
  // per extra probed cell.
  static constexpr sim::Time kIndexBaseNs = 120;
  static constexpr sim::Time kIndexProbeNs = 40;

  std::uint64_t probe_slot(std::uint64_t key, std::uint64_t& probes) const;
  std::uint64_t stamp_for(std::uint64_t key, std::uint64_t seq) const;
  void write_stamp(std::uint64_t key, std::uint64_t stamp);
  bool read_stamp(std::uint64_t key, std::uint64_t& stamp) const;

  rt::Machine& m_;
  KvConfig cfg_;
  std::uint64_t shard_bytes_ = 0;
  std::vector<lib::NumaBuffer> arenas_;
  /// Per-shard open-addressing table (power-of-two cells, linear probing);
  /// a cell holds key+1, 0 = empty. Lookup realism feeds the probe charge.
  std::vector<std::vector<std::uint64_t>> tables_;
  std::uint64_t table_mask_ = 0;
  std::vector<std::uint32_t> slot_of_key_;
  /// Numeric mode: expected stamp per key (monotone per-store sequence).
  std::vector<std::uint64_t> expected_;
  std::uint64_t stamp_seq_ = 0;
  OpStats stats_;
};

}  // namespace numasim::apps

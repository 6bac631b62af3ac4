#include "apps/kvstore.hpp"

#include <algorithm>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>

namespace numasim::apps {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t next_pow2(std::uint64_t v) {
  std::uint64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

KvStore::KvStore(rt::Machine& m, KvConfig cfg) : m_(m), cfg_(cfg) {
  if (cfg_.shards == 0 || cfg_.keys_per_shard == 0)
    throw std::invalid_argument("KvStore: empty shape");
  if (cfg_.value_bytes == 0 || mem::kPageSize % cfg_.value_bytes != 0)
    throw std::invalid_argument(
        "KvStore: value_bytes must divide the page size");

  const std::uint64_t payload = cfg_.keys_per_shard * cfg_.value_bytes;
  shard_bytes_ = (payload + mem::kPageSize - 1) / mem::kPageSize * mem::kPageSize;

  // Host-side index state is independent of the machine: build it up front
  // so accessors (shard routing, slot permutation) work before setup().
  const std::uint64_t cells = next_pow2(2 * cfg_.keys_per_shard);
  table_mask_ = cells - 1;
  tables_.assign(cfg_.shards, {});
  slot_of_key_.resize(num_keys());
  for (std::uint64_t s = 0; s < cfg_.shards; ++s) {
    // Fisher-Yates slot permutation per shard: values land in arena order
    // unrelated to key order, like a real allocator's free-list would.
    sim::Rng perm_rng(splitmix64(cfg_.index_seed) ^ (s * 0x9e3779b97f4a7c15ull));
    std::vector<std::uint32_t> perm(cfg_.keys_per_shard);
    for (std::uint64_t i = 0; i < cfg_.keys_per_shard; ++i)
      perm[i] = static_cast<std::uint32_t>(i);
    for (std::uint64_t i = cfg_.keys_per_shard; i > 1; --i) {
      const std::uint64_t j = perm_rng.below(i);
      std::swap(perm[i - 1], perm[j]);
    }
    std::vector<std::uint64_t>& table = tables_[s];
    table.assign(cells, 0);
    const std::uint64_t base = s * cfg_.keys_per_shard;
    for (std::uint64_t k = 0; k < cfg_.keys_per_shard; ++k) {
      const std::uint64_t key = base + k;
      slot_of_key_[key] = perm[k];
      std::uint64_t h = splitmix64(key ^ cfg_.index_seed) & table_mask_;
      while (table[h] != 0) h = (h + 1) & table_mask_;
      table[h] = key + 1;
    }
  }
  if (cfg_.numeric) expected_.assign(num_keys(), 0);
}

sim::Task<void> KvStore::setup(rt::Thread& th) {
  kern::ThreadCtx& t = th.ctx();
  kern::Kernel& k = th.kernel();
  arenas_.clear();
  arenas_.reserve(cfg_.shards);
  for (std::uint64_t s = 0; s < cfg_.shards; ++s) {
    const std::string name = "kv.shard" + std::to_string(s);
    switch (cfg_.placement) {
      case KvPlacement::kFirstTouch:
        arenas_.push_back(lib::NumaBuffer::local(t, k, shard_bytes_, name));
        break;
      case KvPlacement::kInterleave:
        arenas_.push_back(lib::NumaBuffer::interleaved(t, k, shard_bytes_, name));
        break;
      case KvPlacement::kTiered:
        arenas_.push_back(lib::NumaBuffer::tiered(t, k, shard_bytes_, 0, name));
        break;
    }
  }
  co_await th.sync();
}

sim::Task<void> KvStore::populate_all(rt::Thread& th) {
  for (std::uint64_t s = 0; s < cfg_.shards; ++s)
    co_await th.touch(shard_addr(s), shard_bytes_, vm::Prot::kReadWrite);
  if (cfg_.numeric) {
    for (std::uint64_t key = 0; key < num_keys(); ++key) {
      const std::uint64_t stamp = stamp_for(key, 0);
      write_stamp(key, stamp);
      expected_[key] = stamp;
    }
  }
}

std::uint64_t KvStore::probe_slot(std::uint64_t key,
                                  std::uint64_t& probes) const {
  const std::vector<std::uint64_t>& table = tables_[shard_of(key)];
  std::uint64_t h = splitmix64(key ^ cfg_.index_seed) & table_mask_;
  probes = 1;
  while (table[h] != key + 1) {
    h = (h + 1) & table_mask_;
    ++probes;
  }
  return slot_of_key_[key];
}

std::uint64_t KvStore::stamp_for(std::uint64_t key, std::uint64_t seq) const {
  return splitmix64(key * 0x2545f4914f6cdd1dull ^ seq);
}

void KvStore::write_stamp(std::uint64_t key, std::uint64_t stamp) {
  std::span<const std::byte> in(reinterpret_cast<const std::byte*>(&stamp),
                                sizeof stamp);
  m_.kernel().poke(m_.pid(), slot_addr(key), in);
}

bool KvStore::read_stamp(std::uint64_t key, std::uint64_t& stamp) const {
  std::span<std::byte> out(reinterpret_cast<std::byte*>(&stamp), sizeof stamp);
  return m_.kernel().peek(m_.pid(), slot_addr(key), out);
}

sim::Task<void> KvStore::execute(rt::Thread& th, const Request& req,
                                 obs::Histogram* lat) {
  const sim::Time t0 = th.now();
  const Op op = req.op;
  const std::uint64_t key = req.key;
  std::optional<rt::Thread::Phase> span;
  if (th.kernel().tracing())
    span.emplace(th, std::string("kv.") + op_name(op));
  std::uint64_t probes = 0;
  const std::uint64_t slot = probe_slot(key, probes);
  co_await th.compute(kIndexBaseNs + kIndexProbeNs * static_cast<sim::Time>(probes - 1));
  const vm::Vaddr value = shard_addr(shard_of(key)) + slot * cfg_.value_bytes;
  switch (op) {
    case Op::kGet:
      // A value never straddles a page (KvConfig), so it is one step.
      co_await th.touch_step(value, cfg_.value_bytes, vm::Prot::kRead);
      ++stats_.gets;
      break;
    case Op::kPut:
      co_await th.touch_step(value, cfg_.value_bytes, vm::Prot::kReadWrite);
      ++stats_.puts;
      break;
    case Op::kScan: {
      const std::uint64_t n =
          std::min<std::uint64_t>(std::max<std::uint32_t>(req.scan_slots, 1),
                                  cfg_.keys_per_shard - slot);
      co_await th.touch(value, n * cfg_.value_bytes, vm::Prot::kRead);
      ++stats_.scans;
      stats_.scan_slots += n;
      break;
    }
  }
  stats_.index_probes += probes;
  if (cfg_.numeric) {
    if (op == Op::kGet && expected_[key] != 0) {
      std::uint64_t got = 0;
      if (!read_stamp(key, got) || got != expected_[key]) ++stats_.verify_failures;
    } else if (op == Op::kPut) {
      const std::uint64_t stamp = stamp_for(key, ++stamp_seq_);
      write_stamp(key, stamp);
      expected_[key] = stamp;
    }
  }
  if (span) span->end();
  if (lat != nullptr) lat->record(static_cast<std::uint64_t>(th.now() - t0));
}

std::uint64_t KvStore::verify_all() const {
  if (!cfg_.numeric) return 0;
  std::uint64_t bad = 0;
  for (std::uint64_t key = 0; key < num_keys(); ++key) {
    if (expected_[key] == 0) continue;
    std::uint64_t got = 0;
    if (!read_stamp(key, got) || got != expected_[key]) ++bad;
  }
  return bad;
}

}  // namespace numasim::apps

// Deterministic request traffic for the serving subsystem (apps/kvstore).
//
// "Revisiting Page Migration for Main-Memory Database Systems" argues that
// page migration should be judged by tail request latency under live
// traffic, not end-to-end runtime. This layer generates that traffic
// reproducibly: a seeded zipfian key sampler (integer fixed-point CDF — no
// host floating-point randomness feeds the simulation), per-tenant request
// mixes, and a phase-shift schedule that rotates each tenant's key range
// mid-run so the hot shard migrates across NUMA nodes — the serving-shaped
// cousin of the adaptive-refinement phase shifts the paper motivates
// next-touch with.
//
// Every client owns its own sampler streams seeded from (seed, tenant,
// client), so the request sequence of a client is a pure function of its
// config — independent of engine interleaving with other clients.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/rng.hpp"

namespace numasim::apps {

enum class Op : std::uint8_t { kGet, kPut, kScan };

const char* op_name(Op op);

struct Request {
  Op op = Op::kGet;
  std::uint64_t key = 0;
  std::uint32_t scan_slots = 0;  ///< slots read by a kScan (0 otherwise)
};

/// Named tenant request mixes (the --mix flag of bench/serving_mixes).
enum class Mix : std::uint8_t { kReadHeavy, kWriteHeavy, kScanMixed };

const char* mix_name(Mix m);

/// Operation fractions of one mix. get/put/scan fractions sum to 1.
struct MixSpec {
  double get_frac = 1.0;
  double put_frac = 0.0;
  double scan_frac = 0.0;
  std::uint32_t scan_slots = 0;  ///< contiguous slots per scan
};

MixSpec mix_spec(Mix m);

/// Zipfian rank sampler over [0, n): rank 0 is the hottest key. The CDF is
/// a fixed-point integer table built once at construction (std::pow only at
/// table build, never per sample); sampling is one Rng draw plus an exact
/// guide-table lookup (O(1) expected steps, the rank a binary search over
/// the CDF would find), so identical seeds give identical streams on any
/// host. n must fit in 32 bits (std::invalid_argument otherwise).
class ZipfianSampler {
 public:
  ZipfianSampler(std::uint64_t n, double theta, std::uint64_t seed);

  std::uint64_t n() const { return cdf_.size(); }
  double theta() const { return theta_; }

  /// Next rank in [0, n); rank 0 is sampled most often.
  std::uint64_t next();

 private:
  std::vector<std::uint64_t> cdf_;  ///< inclusive cumulative weights
  /// guide_[b]: first rank whose cumulative weight exceeds b << shift_.
  std::vector<std::uint32_t> guide_;
  unsigned shift_ = 0;  ///< smallest shift leaving at most n buckets
  std::uint64_t total_ = 0;
  double theta_ = 0.0;
  sim::Rng rng_;
};

/// Phase schedule: `phases` equal phases of `requests_per_phase` requests
/// per client. Requests past the last boundary stay in the final phase.
struct PhasePlan {
  unsigned phases = 3;
  std::uint64_t requests_per_phase = 1000;

  unsigned phase_of(std::uint64_t i) const {
    if (requests_per_phase == 0 || phases == 0) return 0;
    const std::uint64_t p = i / requests_per_phase;
    return static_cast<unsigned>(p < phases ? p : phases - 1);
  }
  std::uint64_t total_requests() const {
    return static_cast<std::uint64_t>(phases) * requests_per_phase;
  }
};

/// The deterministic request stream of one client thread.
///
/// The keyspace is split into `tenants` contiguous ranges of
/// `keys_per_tenant` keys. In phase p, the client of tenant t addresses
/// range (t + p) % tenants, mapping zipf rank r to key range*keys_per_tenant
/// + r — so the hottest ranks of every tenant sit at the head of its
/// current range, and each phase shift hands every range to the next
/// tenant over (the hot head must migrate to stay local).
class ClientTraffic {
 public:
  struct Config {
    unsigned tenant = 0;
    unsigned tenants = 1;
    std::uint64_t keys_per_tenant = 1024;
    Mix mix = Mix::kReadHeavy;
    double theta = 0.99;
    PhasePlan plan;
    std::uint64_t seed = 1;
  };

  explicit ClientTraffic(const Config& cfg);

  const Config& config() const { return cfg_; }
  std::uint64_t emitted() const { return i_; }
  unsigned phase() const { return cfg_.plan.phase_of(i_); }

  /// Key-range index tenant `cfg.tenant` addresses in `phase`.
  unsigned range_of(unsigned phase) const {
    return (cfg_.tenant + phase) % cfg_.tenants;
  }
  /// First key of the range addressed in `phase`.
  std::uint64_t range_base(unsigned phase) const {
    return static_cast<std::uint64_t>(range_of(phase)) * cfg_.keys_per_tenant;
  }

  Request next();

 private:
  Config cfg_;
  MixSpec spec_;
  ZipfianSampler zipf_;
  sim::Rng op_rng_;
  std::uint64_t i_ = 0;
};

}  // namespace numasim::apps

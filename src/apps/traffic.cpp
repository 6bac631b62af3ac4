#include "apps/traffic.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace numasim::apps {

const char* op_name(Op op) {
  switch (op) {
    case Op::kGet: return "get";
    case Op::kPut: return "put";
    case Op::kScan: return "scan";
  }
  return "?";
}

const char* mix_name(Mix m) {
  switch (m) {
    case Mix::kReadHeavy: return "read_heavy";
    case Mix::kWriteHeavy: return "write_heavy";
    case Mix::kScanMixed: return "scan_mixed";
  }
  return "?";
}

MixSpec mix_spec(Mix m) {
  switch (m) {
    case Mix::kReadHeavy: return {0.95, 0.05, 0.0, 0};
    case Mix::kWriteHeavy: return {0.50, 0.50, 0.0, 0};
    case Mix::kScanMixed: return {0.70, 0.20, 0.10, 16};
  }
  return {};
}

namespace {
// Seed-stream separation: derive independent sub-seeds for the rank and the
// op draws so they never alias even when callers pass small seeds.
constexpr std::uint64_t kZipfStream = 0x9e3779b97f4a7c15ull;
constexpr std::uint64_t kOpStream = 0xc2b2ae3d27d4eb4full;
}  // namespace

ZipfianSampler::ZipfianSampler(std::uint64_t n, double theta,
                               std::uint64_t seed)
    : theta_(theta), rng_(seed) {
  if (n == 0) throw std::invalid_argument("ZipfianSampler: n == 0");
  if (n > std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument("ZipfianSampler: n exceeds 32-bit ranks");
  // Fixed-point weights w_r ~ 2^32 / (r+1)^theta. The constant keeps the
  // total below 2^63 for any practical n, and the floor at 1 keeps every
  // rank reachable.
  constexpr double kScale = 4294967296.0;  // 2^32
  cdf_.resize(n);
  for (std::uint64_t r = 0; r < n; ++r) {
    const double w =
        kScale / std::pow(static_cast<double>(r + 1), theta);
    total_ += std::max<std::uint64_t>(1, static_cast<std::uint64_t>(w));
    cdf_[r] = total_;
  }
  // Guide table: at most n buckets of 2^shift_ draw values each; bucket b
  // starts at the first rank whose cumulative weight exceeds b << shift_.
  while (((total_ - 1) >> shift_) >= n) ++shift_;
  guide_.resize(((total_ - 1) >> shift_) + 1);
  std::uint32_t r = 0;
  for (std::uint64_t b = 0; b < guide_.size(); ++b) {
    while (cdf_[r] <= (b << shift_)) ++r;
    guide_[b] = r;
  }
}

std::uint64_t ZipfianSampler::next() {
  const std::uint64_t u = rng_.below(total_);
  // First rank whose cumulative weight exceeds the draw: the draw's bucket
  // names a rank at or before it, and fewer than two steps remain on
  // average.
  std::uint64_t r = guide_[u >> shift_];
  while (cdf_[r] <= u) ++r;
  return r;
}

ClientTraffic::ClientTraffic(const Config& cfg)
    : cfg_(cfg), spec_(mix_spec(cfg.mix)),
      zipf_(cfg.keys_per_tenant, cfg.theta, cfg.seed ^ kZipfStream),
      op_rng_(cfg.seed ^ kOpStream) {
  if (cfg_.tenants == 0) throw std::invalid_argument("ClientTraffic: tenants == 0");
  if (cfg_.tenant >= cfg_.tenants)
    throw std::invalid_argument("ClientTraffic: tenant out of range");
}

Request ClientTraffic::next() {
  const unsigned ph = cfg_.plan.phase_of(i_);
  ++i_;
  Request r;
  r.key = range_base(ph) + zipf_.next();
  const double u = op_rng_.uniform();
  if (u < spec_.get_frac) {
    r.op = Op::kGet;
  } else if (u < spec_.get_frac + spec_.put_frac) {
    r.op = Op::kPut;
  } else {
    r.op = Op::kScan;
    r.scan_slots = spec_.scan_slots;
  }
  return r;
}

}  // namespace numasim::apps

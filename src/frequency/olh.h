// Optimized local hashing (Wang et al., USENIX Security 2017). Each user
// hashes her value into a small domain of g = round(e^ε) + 1 buckets with a
// per-report random hash seed, then runs GRR over the g buckets. The report
// is (seed, perturbed bucket): constant size regardless of k, at the cost of
// an O(k) server-side scan per report. Matches OUE's variance
// 4 e^ε / (n (e^ε − 1)²) when g = e^ε + 1 exactly.

#ifndef LDP_FREQUENCY_OLH_H_
#define LDP_FREQUENCY_OLH_H_

#include "frequency/frequency_oracle.h"

namespace ldp {

/// OLH: per-user random hashing into g buckets followed by GRR on buckets.
/// Report payload: {seed_lo32, seed_hi32, perturbed_bucket}.
class OlhOracle final : public FrequencyOracle {
 public:
  OlhOracle(double epsilon, uint32_t domain_size);

  void PerturbInto(uint32_t value, Rng* rng, std::string* out) const override;
  const char* ValidateView(ReportView report) const override {
    if (report.size() != 3) {
      return "OLH report must carry {seed_lo, seed_hi, bucket}";
    }
    if (report[2] >= hash_range_) {
      return "OLH report bucket outside the hash range";
    }
    return nullptr;
  }
  void AccumulateView(ReportView report, uint64_t* support) const override {
    const uint64_t seed = static_cast<uint64_t>(report[0]) |
                          (static_cast<uint64_t>(report[1]) << 32);
    const uint32_t bucket = report[2];
    for (uint32_t v = 0; v < domain_size(); ++v) {
      if (HashToBucket(seed, v, hash_range_) == bucket) ++support[v];
    }
  }
  std::vector<double> Estimate(const std::vector<uint64_t>& support,
                               uint64_t num_reports) const override;
  double EstimateVariance(double f, uint64_t num_reports) const override;
  size_t MaxReportSize() const override { return 3; }
  const char* name() const override { return "OLH"; }

  /// The hash range g = max(2, round(e^ε) + 1).
  uint32_t hash_range() const { return hash_range_; }

  /// Probability that the hashed bucket is reported unchanged,
  /// e^ε / (e^ε + g − 1).
  double p() const { return p_; }

  /// Probability that a report supports a non-true value, 1/g (a uniformly
  /// hashed wrong value collides with the reported bucket with this rate).
  double q() const { return 1.0 / static_cast<double>(hash_range_); }

  /// The deterministic seeded hash used by both protocol halves: maps
  /// (seed, value) to a bucket in [0, range).
  static uint32_t HashToBucket(uint64_t seed, uint32_t value, uint32_t range) {
    // SplitMix64 finalizer over the seed/value combination: cheap,
    // stateless, and high-quality enough that bucket collisions behave as
    // uniform.
    uint64_t z =
        seed ^ (0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(value) + 1));
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z = z ^ (z >> 31);
    return static_cast<uint32_t>(z % range);
  }

 private:
  uint32_t hash_range_;
  double p_;
};

}  // namespace ldp

#endif  // LDP_FREQUENCY_OLH_H_

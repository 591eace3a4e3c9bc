#include "frequency/histogram.h"

#include <algorithm>
#include <numeric>

#include "util/check.h"
#include "util/math.h"

namespace ldp {

FrequencyEstimator::FrequencyEstimator(const FrequencyOracle* oracle)
    : oracle_(oracle) {
  LDP_CHECK(oracle != nullptr);
  support_.assign(oracle_->domain_size(), 0);
}

void FrequencyEstimator::Add(const FrequencyOracle::Report& report) {
  oracle_->Accumulate(report, &support_);
  ++count_;
}

std::vector<double> FrequencyEstimator::RawEstimate() const {
  return oracle_->Estimate(support_, count_);
}

std::vector<double> FrequencyEstimator::ClampedEstimate() const {
  std::vector<double> estimates = RawEstimate();
  for (double& f : estimates) f = Clamp(f, 0.0, 1.0);
  return estimates;
}

std::vector<double> FrequencyEstimator::ProjectedEstimate() const {
  return ProjectOntoSimplex(RawEstimate());
}

std::vector<double> ProjectOntoSimplex(const std::vector<double>& v) {
  LDP_CHECK(!v.empty());
  // Sort descending, find the largest prefix whose shifted values stay
  // positive, subtract the common shift, clamp the rest to zero.
  std::vector<double> sorted = v;
  std::sort(sorted.begin(), sorted.end(), std::greater<double>());
  double prefix_sum = 0.0;
  double shift = 0.0;
  size_t active = 0;
  for (size_t j = 0; j < sorted.size(); ++j) {
    prefix_sum += sorted[j];
    const double candidate = (prefix_sum - 1.0) / static_cast<double>(j + 1);
    if (sorted[j] - candidate > 0.0) {
      shift = candidate;
      active = j + 1;
    }
  }
  LDP_CHECK(active > 0);
  std::vector<double> projected(v.size());
  for (size_t j = 0; j < v.size(); ++j) {
    projected[j] = std::max(0.0, v[j] - shift);
  }
  return projected;
}

std::vector<double> EstimateFrequencies(const FrequencyOracle& oracle,
                                        const std::vector<uint32_t>& values,
                                        Rng* rng) {
  FrequencyEstimator estimator(&oracle);
  for (const uint32_t value : values) {
    estimator.Add(oracle.Perturb(value, rng));
  }
  return estimator.RawEstimate();
}

}  // namespace ldp

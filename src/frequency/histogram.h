// Server-side histogram estimation on top of a frequency oracle: accumulates
// reports, produces raw (unbiased) estimates, and offers the two standard
// post-processing steps — clamping to [0, 1] and projection onto the
// probability simplex — that trade a little bias for much lower error on
// sparse histograms.

#ifndef LDP_FREQUENCY_HISTOGRAM_H_
#define LDP_FREQUENCY_HISTOGRAM_H_

#include <cstdint>
#include <vector>

#include "frequency/frequency_oracle.h"

namespace ldp {

/// Accumulates privatized reports for one categorical attribute and turns
/// them into frequency estimates. Does not own the oracle; the oracle must
/// outlive the estimator.
class FrequencyEstimator {
 public:
  /// `oracle` must be non-null and is borrowed for this object's lifetime.
  explicit FrequencyEstimator(const FrequencyOracle* oracle);

  /// Folds one user's report into the support counts.
  void Add(const FrequencyOracle::Report& report);

  /// Unbiased per-value frequency estimates; entries may fall outside [0,1].
  std::vector<double> RawEstimate() const;

  /// Raw estimates clamped into [0, 1] componentwise (biased, lower error).
  std::vector<double> ClampedEstimate() const;

  /// Euclidean projection of the raw estimates onto the probability simplex
  /// {f : f_v >= 0, Σ f_v = 1} — the standard consistency post-processing.
  std::vector<double> ProjectedEstimate() const;

  /// Number of reports accumulated so far.
  uint64_t count() const { return count_; }

  /// The raw per-value support counts (for inspection/testing).
  const std::vector<uint64_t>& support() const { return support_; }

 private:
  const FrequencyOracle* oracle_;
  std::vector<uint64_t> support_;
  uint64_t count_ = 0;
};

/// Euclidean projection of an arbitrary vector onto the probability simplex
/// (Duchi et al. 2008 sort-based algorithm, O(k log k)). Exposed for tests
/// and for reuse by the mixed-attribute collector.
std::vector<double> ProjectOntoSimplex(const std::vector<double>& v);

/// Convenience end-to-end simulation: perturbs every value in `values`
/// through `oracle` and returns the raw frequency estimates. Used by tests,
/// benchmarks and examples.
std::vector<double> EstimateFrequencies(const FrequencyOracle& oracle,
                                        const std::vector<uint32_t>& values,
                                        Rng* rng);

}  // namespace ldp

#endif  // LDP_FREQUENCY_HISTOGRAM_H_

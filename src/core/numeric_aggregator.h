// Server half of Algorithm 4: accumulates SampledNumericReports and produces
// the paper's mean estimates (the plain average of the implicitly zero-padded
// reports). This is the numeric-stream counterpart of MixedAggregator: it
// is the sink of the wire decoder (core/wire.h NumericFrameDecoder), which
// folds a validated frame in without materializing a report, and its
// accumulated state is an exact integer sum
// (core/fixed_point.h), so shards aggregated on separate machines merge into
// the same bits in any order.
//
// Bit-compatibility contract: on an all-numeric schema the Section IV-C
// mixed collector and Algorithm 4 draw the same randomness and quantize the
// same values, so a NumericAggregator over Algorithm-4 reports reproduces
// MixedAggregator's numeric sums and mean estimates bit for bit (tested in
// tests/numeric_stream_test.cc).

#ifndef LDP_CORE_NUMERIC_AGGREGATOR_H_
#define LDP_CORE_NUMERIC_AGGREGATOR_H_

#include <cstdint>
#include <vector>

#include "core/fixed_point.h"
#include "core/sampled_numeric.h"
#include "util/result.h"

namespace ldp {

/// Accumulates Algorithm-4 reports and estimates per-attribute means.
class NumericAggregator {
 public:
  /// `mechanism` must outlive the aggregator (it supplies dimension, k, ε —
  /// the compatibility surface for Merge).
  explicit NumericAggregator(const SampledNumericMechanism* mechanism);

  /// Rebuilds an aggregator from previously captured state (the inverse of
  /// the accessors below; used by the snapshot codec). Validates vector
  /// lengths against the mechanism's dimension and each sum against its
  /// attribute's report count × QuantizeValue(ScaledValueBound).
  static Result<NumericAggregator> FromParts(
      const SampledNumericMechanism* mechanism, uint64_t num_reports,
      std::vector<uint64_t> attribute_reports,
      std::vector<FixedPointSum> sums);

  /// Folds in one user's report.
  void Add(const SampledNumericReport& report);

  /// Decode-sink callbacks (core/wire.h NumericFrameDecoder::Decode): the
  /// streaming equivalent of Add, used by the ingest path. Callers must
  /// issue OnReportBegin exactly once per report followed by its validated
  /// entries (the wire decoder guarantees this).
  void OnReportBegin(uint32_t /*entry_count*/) { ++num_reports_; }
  void OnEntry(uint32_t attribute, double value) {
    ++attribute_reports_[attribute];
    sums_[attribute] += QuantizeValue(value);
  }

  /// Merges another aggregator built from the same or an equivalent
  /// mechanism (equal ε, dimension and k); FailedPrecondition otherwise.
  /// Exact integer adds: associative and commutative.
  Status Merge(const NumericAggregator& other);

  /// Unbiased mean estimate of attribute `attribute` (Algorithm 4's
  /// estimator: the average of the zero-padded reports).
  Result<double> EstimateMean(uint32_t attribute) const;

  /// Mean estimates for every attribute, indexed by attribute.
  std::vector<double> EstimateAllMeans() const;

  /// Number of reports accumulated.
  uint64_t num_reports() const { return num_reports_; }

  /// Raw accumulated state, exposed for the snapshot codec.
  const std::vector<uint64_t>& attribute_report_counts() const {
    return attribute_reports_;
  }
  const std::vector<FixedPointSum>& sums() const { return sums_; }

  /// The mechanism this aggregator was built from.
  const SampledNumericMechanism* mechanism() const { return mechanism_; }

 private:
  const SampledNumericMechanism* mechanism_;
  uint64_t num_reports_ = 0;
  std::vector<uint64_t> attribute_reports_;  // reports sampling each attr
  std::vector<FixedPointSum> sums_;          // Σ quantized noisy values
};

}  // namespace ldp

#endif  // LDP_CORE_NUMERIC_AGGREGATOR_H_

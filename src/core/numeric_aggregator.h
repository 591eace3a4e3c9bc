// Server half of Algorithm 4: accumulates SampledNumericReports and produces
// the paper's mean estimates (the plain average of the implicitly zero-padded
// reports). This is the numeric-stream counterpart of MixedAggregator: it
// implements a streaming sink interface so the zero-copy wire decoder
// (core/wire.h NumericFrameDecoder) can fold a validated frame in without
// materializing a report, and its accumulated state is an exact integer sum
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

/// Streaming consumer of one validated Algorithm-4 report, entry by entry —
/// the numeric counterpart of MixedReportSink. The wire decoder validates a
/// whole frame first and then replays its entries, so implementations never
/// see a partially valid report. NumericAggregator implements this
/// interface; streaming a report into it is exactly equivalent to Add().
class NumericReportSink {
 public:
  virtual ~NumericReportSink() = default;

  /// Called once per report, before any entry, with the entry count.
  virtual void OnReportBegin(uint32_t entry_count) = 0;

  /// One sampled attribute: the d/k-scaled noisy value.
  virtual void OnEntry(uint32_t attribute, double value) = 0;
};

/// Accumulates Algorithm-4 reports and estimates per-attribute means.
class NumericAggregator : public NumericReportSink {
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

  /// NumericReportSink: streaming equivalent of Add, used by the zero-copy
  /// ingest path. Callers must issue OnReportBegin exactly once per report
  /// followed by its entries (the wire decoder guarantees this).
  void OnReportBegin(uint32_t entry_count) override;
  void OnEntry(uint32_t attribute, double value) override;

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

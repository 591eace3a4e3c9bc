// Section IV-C: the extension of Algorithm 4 to tuples mixing numeric and
// categorical attributes — the first LDP collector that handles both under a
// single budget without per-attribute splitting.
//
// Each user samples k = max(1, min(d, ⌊ε/2.5⌋)) of her d attributes. A
// sampled numeric attribute is perturbed with PM/HM at budget ε/k and scaled
// by d/k (exactly as in Algorithm 4); a sampled categorical attribute is
// perturbed with a frequency oracle (OUE by default, the paper's choice) at
// budget ε/k. The aggregator estimates
//   - the mean of numeric attribute j as (1/n) Σ_i reported_scaled_value, and
//   - the frequency of value v of categorical attribute j as
//     (d/(k·n)) · (debiased support of v over the reports that sampled j),
// both unbiased (Lemma 4 and the Section IV-C estimator).

#ifndef LDP_CORE_MIXED_COLLECTOR_H_
#define LDP_CORE_MIXED_COLLECTOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/fixed_point.h"
#include "core/mechanism.h"
#include "frequency/frequency_oracle.h"
#include "util/random.h"
#include "util/result.h"

namespace ldp {

/// Type tag of one attribute in a mixed tuple.
enum class AttributeType {
  kNumeric,      ///< Value in [-1, 1].
  kCategorical,  ///< Value in {0, ..., domain_size-1}.
};

/// Describes one attribute of the tuples being collected.
struct MixedAttribute {
  AttributeType type = AttributeType::kNumeric;
  /// Number of distinct values; meaningful for categorical attributes only.
  uint32_t domain_size = 0;

  static MixedAttribute Numeric() { return {AttributeType::kNumeric, 0}; }
  static MixedAttribute Categorical(uint32_t domain_size) {
    return {AttributeType::kCategorical, domain_size};
  }
};

/// One attribute value of a mixed tuple: numeric attributes read `numeric`,
/// categorical attributes read `category`.
struct AttributeValue {
  double numeric = 0.0;
  uint32_t category = 0;

  static AttributeValue Numeric(double v) { return {v, 0}; }
  static AttributeValue Categorical(uint32_t v) { return {0.0, v}; }
};

/// A full user tuple: one AttributeValue per schema attribute.
using MixedTuple = std::vector<AttributeValue>;

/// One sampled attribute inside a privatized mixed report.
struct MixedReportEntry {
  uint32_t attribute = 0;
  /// d/k-scaled noisy value (numeric attributes).
  double numeric_value = 0.0;
  /// Oracle report (categorical attributes).
  FrequencyOracle::Report categorical_report;
};

/// A user's privatized report: exactly k sampled attributes.
using MixedReport = std::vector<MixedReportEntry>;

/// Consumer of one validated mixed report, entry by entry, for callers that
/// want the report's entries without an aggregator: the wire decoder
/// (core/wire.h MixedFrameDecoder::DecodeInto) validates a whole frame first
/// and then replays its entries into a sink, so implementations never see a
/// partially valid report. The materializing DecodeMixedReport is built on
/// it; the server's ingest path does not use it (MixedAggregator is a
/// non-virtual Decode sink instead).
class MixedReportSink {
 public:
  virtual ~MixedReportSink() = default;

  /// Called once per report, before any entry, with the entry count.
  virtual void OnReportBegin(uint32_t entry_count) = 0;

  /// One sampled numeric attribute: the d/k-scaled noisy value.
  virtual void OnNumericEntry(uint32_t attribute, double value) = 0;

  /// One sampled categorical attribute. `payload` is only valid for the
  /// duration of the call (it is decoder scratch).
  virtual void OnCategoricalEntry(uint32_t attribute,
                                  const FrequencyOracle::Report& payload) = 0;
};

/// The client half of the Section IV-C protocol.
///
/// Thread-safety: immutable after construction; share across threads with one
/// Rng per thread.
class MixedTupleCollector {
 public:
  /// Builds a collector for the given schema and total budget ε.
  /// `numeric_kind` is the scalar mechanism for numeric attributes (HM in the
  /// paper's experiments); `categorical_kind` is the frequency oracle for
  /// categorical attributes (OUE in the paper). Fails on an empty schema, a
  /// bad budget, a categorical attribute with fewer than 2 values, or a
  /// protocol the wire format cannot carry: k or an oracle's
  /// MaxReportSize() above UINT16_MAX (both travel as u16 counts).
  static Result<MixedTupleCollector> Create(
      std::vector<MixedAttribute> schema, double epsilon,
      MechanismKind numeric_kind = MechanismKind::kHybrid,
      FrequencyOracleKind categorical_kind = FrequencyOracleKind::kOue);

  /// Perturbs one user tuple (size d, numeric coordinates in [-1, 1],
  /// categorical coordinates within their domains) and appends the k-entry
  /// report to `out` in its wire form (core/wire.h), with no intermediate
  /// MixedReport: the sampled attributes live in stack slots and each
  /// oracle writes its payload in place (FrequencyOracle::PerturbInto).
  /// Allocates nothing once `out` has MaxReportBytes() of spare capacity.
  void PerturbInto(const MixedTuple& tuple, Rng* rng, std::string* out) const;

  /// PerturbInto over a pure-numeric tuple (one value per attribute); the
  /// schema must be all-numeric.
  void PerturbInto(const std::vector<double>& tuple, Rng* rng,
                   std::string* out) const;

  /// The most bytes one PerturbInto call can append.
  size_t MaxReportBytes() const { return max_report_bytes_; }

  /// Reference form of PerturbInto: the same draws as a materialized
  /// MixedReport, which EncodeMixedReport turns into the same bytes. Tests
  /// compare the in-place writer against it.
  MixedReport Perturb(const MixedTuple& tuple, Rng* rng) const;

  double epsilon() const { return epsilon_; }
  uint32_t dimension() const { return static_cast<uint32_t>(schema_.size()); }

  /// The number of attributes each user reports (Eq. 12).
  uint32_t k() const { return k_; }

  /// The scalar-mechanism kind used for numeric attributes.
  MechanismKind numeric_kind() const { return numeric_kind_; }

  /// The frequency-oracle kind used for categorical attributes.
  FrequencyOracleKind categorical_kind() const { return categorical_kind_; }

  /// True when `other` describes the same protocol: equal schema (dimension,
  /// per-attribute type and domain), budget, sample count and mechanism /
  /// oracle kinds. Reports and aggregator state are interchangeable between
  /// compatible collectors, which is what lets shards produced by separate
  /// processes be merged.
  bool CompatibleWith(const MixedTupleCollector& other) const;

  /// The per-attribute budget ε/k.
  double per_attribute_epsilon() const { return per_attribute_epsilon_; }

  /// The collection schema.
  const std::vector<MixedAttribute>& schema() const { return schema_; }

  /// The scalar mechanism shared by all numeric attributes.
  const ScalarMechanism& scalar_mechanism() const { return *scalar_; }

  /// The oracle used for categorical attribute `attribute`; null for numeric
  /// attributes.
  const FrequencyOracle* oracle_for(uint32_t attribute) const {
    return oracles_[attribute].get();
  }

 private:
  MixedTupleCollector(
      std::vector<MixedAttribute> schema, double epsilon, uint32_t k,
      MechanismKind numeric_kind, FrequencyOracleKind categorical_kind,
      std::shared_ptr<const ScalarMechanism> scalar,
      std::vector<std::shared_ptr<const FrequencyOracle>> oracles,
      size_t max_report_bytes)
      : schema_(std::move(schema)),
        epsilon_(epsilon),
        k_(k),
        per_attribute_epsilon_(epsilon / k),
        numeric_kind_(numeric_kind),
        categorical_kind_(categorical_kind),
        scalar_(std::move(scalar)),
        oracles_(std::move(oracles)),
        max_report_bytes_(max_report_bytes) {}

  template <typename Row>
  void WriteReport(const Row& row, Rng* rng, std::string* out) const;

  std::vector<MixedAttribute> schema_;
  double epsilon_;
  uint32_t k_;
  double per_attribute_epsilon_;
  MechanismKind numeric_kind_;
  FrequencyOracleKind categorical_kind_;
  std::shared_ptr<const ScalarMechanism> scalar_;
  // One oracle per attribute (null at numeric positions); oracles with equal
  // domain sizes are shared.
  std::vector<std::shared_ptr<const FrequencyOracle>> oracles_;
  size_t max_report_bytes_;
};

/// The server half: accumulates MixedReports and produces estimates.
///
/// It is also the sink of the wire decoder (core/wire.h
/// MixedFrameDecoder::Decode), which folds a validated frame in straight
/// from its bytes: OnReportBegin + one On*Entry call per entry is
/// bit-identical to Add() on the equivalent MixedReport.
class MixedAggregator {
 public:
  /// `collector` must outlive the aggregator (it borrows the schema and the
  /// oracles to decode reports).
  explicit MixedAggregator(const MixedTupleCollector* collector);

  /// Rebuilds an aggregator from previously captured state (the inverse of
  /// the num_reports / attribute_report_counts / numeric_sums / supports
  /// accessors, used by the snapshot codec). Validates every vector length
  /// against `collector`'s schema and every sum against what its attribute's
  /// report count could produce: a numeric sum within report_count ×
  /// QuantizeValue(ScaledValueBound) (zero at categorical positions), a
  /// support within report_count (report_count × UINT32_MAX for HE).
  static Result<MixedAggregator> FromParts(
      const MixedTupleCollector* collector, uint64_t num_reports,
      std::vector<uint64_t> attribute_reports,
      std::vector<FixedPointSum> numeric_sums,
      std::vector<std::vector<uint64_t>> supports);

  /// Folds in one user's report.
  void Add(const MixedReport& report);

  /// Decode-sink callbacks: the streaming equivalent of Add, used by the
  /// ingest path. Callers must issue OnReportBegin exactly once per report
  /// followed by its entries, every one of them already validated (the wire
  /// decoder guarantees both). `oracle` is `attribute`'s oracle, typed as
  /// the concrete class so its AccumulateView inlines.
  void OnReportBegin(uint32_t /*entry_count*/) { ++num_reports_; }
  void OnNumericEntry(uint32_t attribute, double value) {
    ++attribute_reports_[attribute];
    numeric_sums_[attribute] += QuantizeValue(value);
  }
  template <typename Oracle>
  void OnCategoricalEntry(uint32_t attribute, const Oracle& oracle,
                          ReportView payload) {
    ++attribute_reports_[attribute];
    oracle.AccumulateView(payload, supports_[attribute].data());
  }

  /// Merges another aggregator. The two aggregators must be built from the
  /// same collector or from CompatibleWith collectors (equal schema, budget,
  /// sample count and mechanism/oracle kinds); returns FailedPrecondition
  /// otherwise and leaves this aggregator untouched. The state is integers
  /// throughout, so merging is exact: associative and commutative.
  Status Merge(const MixedAggregator& other);

  /// Unbiased mean estimate of numeric attribute `attribute`; fails if the
  /// attribute is categorical.
  Result<double> EstimateMean(uint32_t attribute) const;

  /// Unbiased frequency estimates for every value of categorical attribute
  /// `attribute`; fails if the attribute is numeric. Entries may fall outside
  /// [0, 1]; see EstimateFrequenciesProjected for consistent estimates.
  Result<std::vector<double>> EstimateFrequencies(uint32_t attribute) const;

  /// EstimateFrequencies post-processed by Euclidean projection onto the
  /// probability simplex: non-negative, sums to 1 (slightly biased, usually
  /// lower error on skewed histograms).
  Result<std::vector<double>> EstimateFrequenciesProjected(
      uint32_t attribute) const;

  /// Mean estimates for all numeric attributes, indexed by attribute; entries
  /// at categorical positions are 0.
  std::vector<double> EstimateAllMeans() const;

  /// Number of reports accumulated.
  uint64_t num_reports() const { return num_reports_; }

  /// Number of reports that sampled `attribute`.
  uint64_t attribute_report_count(uint32_t attribute) const {
    return attribute_reports_[attribute];
  }

  /// Raw accumulated state, exposed so aggregator snapshots can be
  /// serialised for cross-process shard merging (stream/snapshot.h).
  const std::vector<uint64_t>& attribute_report_counts() const {
    return attribute_reports_;
  }
  const std::vector<FixedPointSum>& numeric_sums() const {
    return numeric_sums_;
  }
  const std::vector<std::vector<uint64_t>>& supports() const {
    return supports_;
  }

  /// The collector this aggregator was built from.
  const MixedTupleCollector* collector() const { return collector_; }

 private:
  const MixedTupleCollector* collector_;
  uint64_t num_reports_ = 0;
  std::vector<uint64_t> attribute_reports_;   // reports sampling each attr
  std::vector<FixedPointSum> numeric_sums_;      // Σ quantized noisy values
  std::vector<std::vector<uint64_t>> supports_;  // per-categorical supports
};

}  // namespace ldp

#endif  // LDP_CORE_MIXED_COLLECTOR_H_

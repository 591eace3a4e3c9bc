#include "core/mixed_collector.h"

#include <algorithm>
#include <map>

#include "core/variance.h"
#include "core/wire.h"
#include "frequency/histogram.h"
#include "util/check.h"
#include "util/sampling.h"

namespace ldp {

Result<MixedTupleCollector> MixedTupleCollector::Create(
    std::vector<MixedAttribute> schema, double epsilon,
    MechanismKind numeric_kind, FrequencyOracleKind categorical_kind) {
  if (schema.empty()) {
    return Status::InvalidArgument("schema must have at least one attribute");
  }
  LDP_RETURN_IF_ERROR(ValidateEpsilon(epsilon));
  const uint32_t dimension = static_cast<uint32_t>(schema.size());
  const uint32_t k = AttributeSampleCount(epsilon, dimension);
  if (k > UINT16_MAX) {
    return Status::InvalidArgument(
        "a report carries its entry count as u16: k exceeds 65535");
  }
  const double per_attribute_epsilon = epsilon / k;

  std::unique_ptr<ScalarMechanism> scalar;
  LDP_ASSIGN_OR_RETURN(scalar,
                       MakeScalarMechanism(numeric_kind, per_attribute_epsilon));

  // Attributes with equal domain sizes share one oracle instance.
  std::map<uint32_t, std::shared_ptr<const FrequencyOracle>> oracle_cache;
  std::vector<std::shared_ptr<const FrequencyOracle>> oracles(dimension);
  // Wire bytes of the largest entry: u32 attribute + u8 kind, then an f64
  // or an oracle payload (u16 count + u32 words).
  size_t max_entry_bytes = 4 + 1 + 8;
  for (uint32_t j = 0; j < dimension; ++j) {
    if (schema[j].type != AttributeType::kCategorical) continue;
    const uint32_t domain = schema[j].domain_size;
    auto it = oracle_cache.find(domain);
    if (it == oracle_cache.end()) {
      std::unique_ptr<FrequencyOracle> oracle;
      LDP_ASSIGN_OR_RETURN(oracle,
                           MakeFrequencyOracle(categorical_kind,
                                               per_attribute_epsilon, domain));
      if (oracle->MaxReportSize() > UINT16_MAX) {
        return Status::InvalidArgument(
            "categorical domain of " + std::to_string(domain) + " values: " +
            oracle->name() +
            " reports would exceed the wire's 65535-word oracle payload");
      }
      it = oracle_cache.emplace(domain, std::move(oracle)).first;
    }
    oracles[j] = it->second;
    max_entry_bytes = std::max(max_entry_bytes,
                               4 + 1 + 2 + 4 * it->second->MaxReportSize());
  }
  return MixedTupleCollector(std::move(schema), epsilon, k, numeric_kind,
                             categorical_kind,
                             std::shared_ptr<const ScalarMechanism>(
                                 std::move(scalar)),
                             std::move(oracles), 2 + k * max_entry_bytes);
}

bool MixedTupleCollector::CompatibleWith(
    const MixedTupleCollector& other) const {
  if (this == &other) return true;
  if (schema_.size() != other.schema_.size() || epsilon_ != other.epsilon_ ||
      k_ != other.k_ || numeric_kind_ != other.numeric_kind_ ||
      categorical_kind_ != other.categorical_kind_) {
    return false;
  }
  for (size_t j = 0; j < schema_.size(); ++j) {
    if (schema_[j].type != other.schema_[j].type) return false;
    if (schema_[j].type == AttributeType::kCategorical &&
        schema_[j].domain_size != other.schema_[j].domain_size) {
      return false;
    }
  }
  return true;
}

namespace {

// Coordinate readers over the two row shapes PerturbInto accepts.
struct TupleRow {
  const MixedTuple& tuple;
  double numeric(uint32_t j) const { return tuple[j].numeric; }
  uint32_t category(uint32_t j) const { return tuple[j].category; }
};

struct NumericRow {
  const std::vector<double>& values;
  double numeric(uint32_t j) const { return values[j]; }
  uint32_t category(uint32_t /*j*/) const {
    LDP_CHECK_MSG(false, "pure-numeric rows require an all-numeric schema");
    return 0;
  }
};

}  // namespace

template <typename Row>
void MixedTupleCollector::WriteReport(const Row& row, Rng* rng,
                                      std::string* out) const {
  using internal_wire::PutF64;
  using internal_wire::PutU16;
  using internal_wire::PutU32;
  using internal_wire::PutU8;
  const double scale = static_cast<double>(dimension()) / k_;
  // Every attribute is sampled before any is perturbed: the draw order of
  // the reference Perturb, so both produce the same report.
  SampleSlots slots(k_);
  uint32_t* const sampled = slots.data();
  SampleWithoutReplacement(dimension(), k_, rng, sampled);
  PutU16(out, static_cast<uint16_t>(k_));
  for (uint32_t i = 0; i < k_; ++i) {
    const uint32_t attribute = sampled[i];
    PutU32(out, attribute);
    if (schema_[attribute].type == AttributeType::kNumeric) {
      const double t = row.numeric(attribute);
      LDP_DCHECK(t >= -1.0 && t <= 1.0);
      PutU8(out, internal_wire::kNumericEntry);
      PutF64(out, scale * scalar_->Perturb(t, rng));
    } else {
      const uint32_t v = row.category(attribute);
      LDP_DCHECK(v < schema_[attribute].domain_size);
      PutU8(out, internal_wire::kCategoricalEntry);
      oracles_[attribute]->PerturbInto(v, rng, out);
    }
  }
}

void MixedTupleCollector::PerturbInto(const MixedTuple& tuple, Rng* rng,
                                      std::string* out) const {
  LDP_CHECK(tuple.size() == schema_.size());
  WriteReport(TupleRow{tuple}, rng, out);
}

void MixedTupleCollector::PerturbInto(const std::vector<double>& tuple,
                                      Rng* rng, std::string* out) const {
  LDP_CHECK(tuple.size() == schema_.size());
  WriteReport(NumericRow{tuple}, rng, out);
}

MixedReport MixedTupleCollector::Perturb(const MixedTuple& tuple,
                                         Rng* rng) const {
  LDP_CHECK(tuple.size() == schema_.size());
  const double scale = static_cast<double>(dimension()) / k_;
  const std::vector<uint32_t> sampled =
      SampleWithoutReplacement(dimension(), k_, rng);
  MixedReport report;
  report.reserve(k_);
  for (const uint32_t attribute : sampled) {
    MixedReportEntry entry;
    entry.attribute = attribute;
    if (schema_[attribute].type == AttributeType::kNumeric) {
      const double t = tuple[attribute].numeric;
      LDP_DCHECK(t >= -1.0 && t <= 1.0);
      entry.numeric_value = scale * scalar_->Perturb(t, rng);
    } else {
      const uint32_t v = tuple[attribute].category;
      LDP_DCHECK(v < schema_[attribute].domain_size);
      entry.categorical_report = oracles_[attribute]->Perturb(v, rng);
    }
    report.push_back(std::move(entry));
  }
  return report;
}

MixedAggregator::MixedAggregator(const MixedTupleCollector* collector)
    : collector_(collector) {
  LDP_CHECK(collector != nullptr);
  const uint32_t d = collector_->dimension();
  attribute_reports_.assign(d, 0);
  numeric_sums_.assign(d, 0);
  supports_.resize(d);
  for (uint32_t j = 0; j < d; ++j) {
    if (collector_->schema()[j].type == AttributeType::kCategorical) {
      supports_[j].assign(collector_->schema()[j].domain_size, 0);
    }
  }
}

void MixedAggregator::Add(const MixedReport& report) {
  OnReportBegin(static_cast<uint32_t>(report.size()));
  for (const MixedReportEntry& entry : report) {
    LDP_DCHECK(entry.attribute < collector_->dimension());
    if (collector_->schema()[entry.attribute].type == AttributeType::kNumeric) {
      OnNumericEntry(entry.attribute, entry.numeric_value);
    } else {
      ++attribute_reports_[entry.attribute];
      collector_->oracle_for(entry.attribute)
          ->Accumulate(entry.categorical_report,
                       &supports_[entry.attribute]);
    }
  }
}

Result<MixedAggregator> MixedAggregator::FromParts(
    const MixedTupleCollector* collector, uint64_t num_reports,
    std::vector<uint64_t> attribute_reports,
    std::vector<FixedPointSum> numeric_sums,
    std::vector<std::vector<uint64_t>> supports) {
  LDP_CHECK(collector != nullptr);
  const uint32_t d = collector->dimension();
  const uint64_t max_value = static_cast<uint64_t>(QuantizeValue(
      ScaledValueBound(d, collector->k(),
                       collector->scalar_mechanism().OutputBound())));
  // A count oracle adds at most 1 per report to each entry; HE adds one
  // packed uint32 component.
  const uint64_t max_support =
      collector->categorical_kind() == FrequencyOracleKind::kHe
          ? UINT32_MAX
          : 1;
  if (attribute_reports.size() != d || numeric_sums.size() != d ||
      supports.size() != d) {
    return Status::InvalidArgument(
        "aggregator state vectors must have one entry per attribute");
  }
  for (uint32_t j = 0; j < d; ++j) {
    const MixedAttribute& spec = collector->schema()[j];
    const size_t expected_support =
        spec.type == AttributeType::kCategorical ? spec.domain_size : 0;
    if (supports[j].size() != expected_support) {
      return Status::InvalidArgument(
          "support vector size does not match the attribute's domain");
    }
    if (attribute_reports[j] > num_reports) {
      return Status::InvalidArgument(
          "attribute report count exceeds the total report count");
    }
    const uint64_t numeric_reports =
        spec.type == AttributeType::kNumeric ? attribute_reports[j] : 0;
    if (!SumWithinBound(numeric_sums[j], numeric_reports, max_value)) {
      return Status::InvalidArgument(
          "numeric sum exceeds what the attribute's reports can reach");
    }
    for (const uint64_t s : supports[j]) {
      if (!SumWithinBound(s, attribute_reports[j], max_support)) {
        return Status::InvalidArgument(
            "support count exceeds what the attribute's reports can reach");
      }
    }
  }
  MixedAggregator aggregator(collector);
  aggregator.num_reports_ = num_reports;
  aggregator.attribute_reports_ = std::move(attribute_reports);
  aggregator.numeric_sums_ = std::move(numeric_sums);
  aggregator.supports_ = std::move(supports);
  return aggregator;
}

Status MixedAggregator::Merge(const MixedAggregator& other) {
  if (collector_ != other.collector_ &&
      !collector_->CompatibleWith(*other.collector_)) {
    return Status::FailedPrecondition(
        "cannot merge aggregators built from incompatible collectors");
  }
  num_reports_ += other.num_reports_;
  for (uint32_t j = 0; j < collector_->dimension(); ++j) {
    attribute_reports_[j] += other.attribute_reports_[j];
    numeric_sums_[j] += other.numeric_sums_[j];
    for (size_t v = 0; v < supports_[j].size(); ++v) {
      supports_[j][v] += other.supports_[j][v];
    }
  }
  return Status::OK();
}

Result<double> MixedAggregator::EstimateMean(uint32_t attribute) const {
  if (attribute >= collector_->dimension()) {
    return Status::OutOfRange("attribute index out of range");
  }
  if (collector_->schema()[attribute].type != AttributeType::kNumeric) {
    return Status::InvalidArgument("attribute is not numeric");
  }
  // Algorithm 4's estimator: average of the dense (zero-padded) reports.
  return FixedPointMean(numeric_sums_[attribute], num_reports_);
}

Result<std::vector<double>> MixedAggregator::EstimateFrequencies(
    uint32_t attribute) const {
  if (attribute >= collector_->dimension()) {
    return Status::OutOfRange("attribute index out of range");
  }
  if (collector_->schema()[attribute].type != AttributeType::kCategorical) {
    return Status::InvalidArgument("attribute is not categorical");
  }
  const FrequencyOracle* oracle = collector_->oracle_for(attribute);
  const uint64_t n_j = attribute_reports_[attribute];
  // The oracle's Estimate debiases relative to the n_j reports that sampled
  // this attribute; the Section IV-C estimator rescales the debiased counts
  // by d/(k·n): f̂ = (d·n_j)/(k·n) · per-reporter estimate.
  std::vector<double> estimates = oracle->Estimate(supports_[attribute], n_j);
  if (num_reports_ == 0) return estimates;
  const double scale = static_cast<double>(collector_->dimension()) *
                       static_cast<double>(n_j) /
                       (static_cast<double>(collector_->k()) *
                        static_cast<double>(num_reports_));
  for (double& f : estimates) f *= scale;
  return estimates;
}

Result<std::vector<double>> MixedAggregator::EstimateFrequenciesProjected(
    uint32_t attribute) const {
  std::vector<double> raw;
  LDP_ASSIGN_OR_RETURN(raw, EstimateFrequencies(attribute));
  return ProjectOntoSimplex(raw);
}

std::vector<double> MixedAggregator::EstimateAllMeans() const {
  std::vector<double> means(collector_->dimension(), 0.0);
  for (uint32_t j = 0; j < collector_->dimension(); ++j) {
    if (collector_->schema()[j].type == AttributeType::kNumeric) {
      means[j] = EstimateMean(j).value();
    }
  }
  return means;
}

}  // namespace ldp

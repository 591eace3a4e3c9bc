#include "core/numeric_aggregator.h"

#include <utility>

#include "util/check.h"

namespace ldp {

NumericAggregator::NumericAggregator(const SampledNumericMechanism* mechanism)
    : mechanism_(mechanism) {
  LDP_CHECK(mechanism != nullptr);
  attribute_reports_.assign(mechanism_->dimension(), 0);
  sums_.assign(mechanism_->dimension(), 0);
}

Result<NumericAggregator> NumericAggregator::FromParts(
    const SampledNumericMechanism* mechanism, uint64_t num_reports,
    std::vector<uint64_t> attribute_reports, std::vector<FixedPointSum> sums) {
  LDP_CHECK(mechanism != nullptr);
  const uint32_t d = mechanism->dimension();
  const uint64_t max_value = static_cast<uint64_t>(QuantizeValue(
      ScaledValueBound(d, mechanism->k(),
                       mechanism->scalar_mechanism().OutputBound())));
  if (attribute_reports.size() != d || sums.size() != d) {
    return Status::InvalidArgument(
        "aggregator state vectors must have one entry per attribute");
  }
  for (uint32_t j = 0; j < d; ++j) {
    if (attribute_reports[j] > num_reports) {
      return Status::InvalidArgument(
          "attribute report count exceeds the total report count");
    }
    if (!SumWithinBound(sums[j], attribute_reports[j], max_value)) {
      return Status::InvalidArgument(
          "numeric sum exceeds what the attribute's reports can reach");
    }
  }
  NumericAggregator aggregator(mechanism);
  aggregator.num_reports_ = num_reports;
  aggregator.attribute_reports_ = std::move(attribute_reports);
  aggregator.sums_ = std::move(sums);
  return aggregator;
}

void NumericAggregator::Add(const SampledNumericReport& report) {
  OnReportBegin(static_cast<uint32_t>(report.size()));
  for (const SampledValue& entry : report) {
    OnEntry(entry.attribute, entry.value);
  }
}

Status NumericAggregator::Merge(const NumericAggregator& other) {
  if (mechanism_ != other.mechanism_ &&
      (mechanism_->epsilon() != other.mechanism_->epsilon() ||
       mechanism_->dimension() != other.mechanism_->dimension() ||
       mechanism_->k() != other.mechanism_->k())) {
    return Status::FailedPrecondition(
        "cannot merge aggregators built from incompatible mechanisms");
  }
  num_reports_ += other.num_reports_;
  for (uint32_t j = 0; j < mechanism_->dimension(); ++j) {
    attribute_reports_[j] += other.attribute_reports_[j];
    sums_[j] += other.sums_[j];
  }
  return Status::OK();
}

Result<double> NumericAggregator::EstimateMean(uint32_t attribute) const {
  if (attribute >= mechanism_->dimension()) {
    return Status::OutOfRange("attribute index out of range");
  }
  // Algorithm 4's estimator: average of the dense (zero-padded) reports.
  return FixedPointMean(sums_[attribute], num_reports_);
}

std::vector<double> NumericAggregator::EstimateAllMeans() const {
  std::vector<double> means(mechanism_->dimension(), 0.0);
  for (uint32_t j = 0; j < mechanism_->dimension(); ++j) {
    means[j] = EstimateMean(j).value();
  }
  return means;
}

}  // namespace ldp

#include "core/sampled_numeric.h"

#include <algorithm>
#include <cmath>

#include "core/mixed_collector.h"
#include "core/variance.h"
#include "core/wire.h"
#include "util/check.h"
#include "util/sampling.h"

namespace ldp {

Result<SampledNumericMechanism> SampledNumericMechanism::Create(
    MechanismKind kind, double epsilon, uint32_t dimension) {
  if (dimension == 0) {
    return Status::InvalidArgument("dimension must be >= 1");
  }
  return CreateWithSampleCount(kind, epsilon, dimension,
                               AttributeSampleCount(epsilon, dimension));
}

Result<SampledNumericMechanism> SampledNumericMechanism::CreateWithSampleCount(
    MechanismKind kind, double epsilon, uint32_t dimension, uint32_t k) {
  if (dimension == 0) {
    return Status::InvalidArgument("dimension must be >= 1");
  }
  if (k < 1 || k > dimension) {
    return Status::InvalidArgument("sample count k must be in [1, dimension]");
  }
  if (k > UINT16_MAX) {
    return Status::InvalidArgument(
        "a report carries its entry count as u16: k exceeds 65535");
  }
  std::unique_ptr<ScalarMechanism> scalar;
  LDP_ASSIGN_OR_RETURN(scalar, MakeScalarMechanism(kind, epsilon / k));
  return SampledNumericMechanism(std::move(scalar), epsilon, dimension, k);
}

SampledNumericReport SampledNumericMechanism::Perturb(
    const std::vector<double>& tuple, Rng* rng) const {
  LDP_CHECK(tuple.size() == dimension_);
  const double scale = static_cast<double>(dimension_) / k_;
  SampleSlots slots(k_);
  uint32_t* const sampled = slots.data();
  SampleWithoutReplacement(dimension_, k_, rng, sampled);
  SampledNumericReport report;
  report.reserve(k_);
  for (uint32_t i = 0; i < k_; ++i) {
    const uint32_t attribute = sampled[i];
    LDP_DCHECK(tuple[attribute] >= -1.0 && tuple[attribute] <= 1.0);
    const double noisy = scalar_->Perturb(tuple[attribute], rng);
    report.push_back(SampledValue{attribute, scale * noisy});
  }
  return report;
}

template <typename ValueOf>
void SampledNumericMechanism::WriteReport(ValueOf value_of, Rng* rng,
                                          std::string* out) const {
  const double scale = static_cast<double>(dimension_) / k_;
  SampleSlots slots(k_);
  uint32_t* const sampled = slots.data();
  SampleWithoutReplacement(dimension_, k_, rng, sampled);
  internal_wire::PutU16(out, static_cast<uint16_t>(k_));
  for (uint32_t i = 0; i < k_; ++i) {
    const uint32_t attribute = sampled[i];
    const double t = value_of(attribute);
    LDP_DCHECK(t >= -1.0 && t <= 1.0);
    internal_wire::PutU32(out, attribute);
    internal_wire::PutF64(out, scale * scalar_->Perturb(t, rng));
  }
}

void SampledNumericMechanism::PerturbInto(const std::vector<double>& tuple,
                                          Rng* rng, std::string* out) const {
  LDP_CHECK(tuple.size() == dimension_);
  WriteReport([&](uint32_t j) { return tuple[j]; }, rng, out);
}

void SampledNumericMechanism::PerturbInto(
    const std::vector<AttributeValue>& tuple, Rng* rng,
    std::string* out) const {
  LDP_CHECK(tuple.size() == dimension_);
  WriteReport([&](uint32_t j) { return tuple[j].numeric; }, rng, out);
}

std::vector<double> SampledNumericMechanism::PerturbDense(
    const std::vector<double>& tuple, Rng* rng) const {
  std::vector<double> dense(dimension_, 0.0);
  for (const SampledValue& entry : Perturb(tuple, rng)) {
    dense[entry.attribute] = entry.value;
  }
  return dense;
}

double SampledNumericMechanism::CoordinateVariance(double tj) const {
  const double d_over_k = static_cast<double>(dimension_) / k_;
  return d_over_k * (scalar_->Variance(tj) + tj * tj) - tj * tj;
}

double SampledNumericMechanism::WorstCaseCoordinateVariance() const {
  // The tj² coefficient of CoordinateVariance is monotone in tj², so the
  // maximum is at one of the endpoints tj = 0 or |tj| = 1.
  return std::max(CoordinateVariance(0.0), CoordinateVariance(1.0));
}

}  // namespace ldp

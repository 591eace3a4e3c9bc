// Algorithm 4: the paper's collector for d-dimensional numeric tuples.
//
// Instead of splitting the budget ε across all d attributes (which costs
// O(d √log d / (ε √n)) error), each user samples k = max(1, min(d, ⌊ε/2.5⌋))
// attributes without replacement, perturbs each with a scalar mechanism at
// budget ε/k, and scales the noisy value by d/k. Reporting k attributes at
// ε/k each satisfies ε-LDP by composition, and the d/k scaling makes every
// coordinate of the (implicitly zero-padded) output an unbiased estimate of
// the corresponding input. The resulting estimation error is the
// asymptotically optimal O(√(d log d) / (ε √n)) (Lemma 5) with a smaller
// constant than Duchi et al.'s Algorithm 3 (Corollary 2).

#ifndef LDP_CORE_SAMPLED_NUMERIC_H_
#define LDP_CORE_SAMPLED_NUMERIC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/mechanism.h"
#include "util/random.h"
#include "util/result.h"

namespace ldp {

struct AttributeValue;  // core/mixed_collector.h

/// One sampled attribute of a numeric report: the attribute index and the
/// d/k-scaled noisy value.
struct SampledValue {
  uint32_t attribute;
  double value;
};

/// A user's Algorithm-4 report: exactly k sampled attributes. The implicit
/// dense form has zeros at the unsampled positions.
using SampledNumericReport = std::vector<SampledValue>;

/// Algorithm 4 for tuples in [-1, 1]^d, parameterised by the scalar
/// mechanism used per attribute (PM or HM in the paper; any MechanismKind is
/// accepted, which the ablation benchmarks exploit).
///
/// Thread-safety: immutable after construction; share one instance across
/// threads with one Rng per thread.
class SampledNumericMechanism {
 public:
  /// Builds the collector. Fails for a non-positive/non-finite budget or a
  /// zero dimension.
  static Result<SampledNumericMechanism> Create(MechanismKind kind,
                                                double epsilon,
                                                uint32_t dimension);

  /// As Create, but overrides the Eq.-12 sample count with an explicit k in
  /// [1, dimension]; used by the k-ablation benchmark. Fails for a k above
  /// UINT16_MAX, which the wire's u16 entry count cannot carry.
  static Result<SampledNumericMechanism> CreateWithSampleCount(
      MechanismKind kind, double epsilon, uint32_t dimension, uint32_t k);

  /// Perturbs a tuple with all coordinates in [-1, 1] into the sparse report
  /// of k (attribute, scaled noisy value) pairs.
  SampledNumericReport Perturb(const std::vector<double>& tuple,
                               Rng* rng) const;

  /// Perturb, appending the report to `out` in its wire form (core/wire.h)
  /// instead of materializing it: the same draws and the same values.
  /// Allocates nothing once `out` has MaxReportBytes() of spare capacity.
  void PerturbInto(const std::vector<double>& tuple, Rng* rng,
                   std::string* out) const;

  /// PerturbInto over a mixed-form tuple, reading each `numeric` field.
  void PerturbInto(const std::vector<AttributeValue>& tuple, Rng* rng,
                   std::string* out) const;

  /// The bytes one PerturbInto call appends: u16 count, then k × (u32
  /// attribute, f64 value).
  size_t MaxReportBytes() const { return 2 + 12 * static_cast<size_t>(k_); }

  /// Dense convenience form: the report expanded to a length-d vector with
  /// zeros at unsampled positions, so the aggregator's mean estimator is the
  /// plain average over users.
  std::vector<double> PerturbDense(const std::vector<double>& tuple,
                                   Rng* rng) const;

  double epsilon() const { return epsilon_; }
  uint32_t dimension() const { return dimension_; }

  /// The number of attributes each user reports (Eq. 12 unless overridden).
  uint32_t k() const { return k_; }

  /// The per-attribute budget ε/k.
  double per_attribute_epsilon() const { return per_attribute_epsilon_; }

  /// The scalar mechanism applied to each sampled attribute.
  const ScalarMechanism& scalar_mechanism() const { return *scalar_; }

  /// Closed-form per-coordinate variance of the dense output at input
  /// coordinate value `tj`: (d/k)·(σ²(tj; ε/k) + tj²) − tj² (Eqs. 14–15 for
  /// PM/HM).
  double CoordinateVariance(double tj) const;

  /// max over tj ∈ [-1, 1] of CoordinateVariance.
  double WorstCaseCoordinateVariance() const;

 private:
  template <typename ValueOf>
  void WriteReport(ValueOf value_of, Rng* rng, std::string* out) const;

  SampledNumericMechanism(std::unique_ptr<ScalarMechanism> scalar,
                          double epsilon, uint32_t dimension, uint32_t k)
      : scalar_(std::move(scalar)),
        epsilon_(epsilon),
        dimension_(dimension),
        k_(k),
        per_attribute_epsilon_(epsilon / k) {}

  std::shared_ptr<const ScalarMechanism> scalar_;  // shared: class is copyable
  double epsilon_;
  uint32_t dimension_;
  uint32_t k_;
  double per_attribute_epsilon_;
};

}  // namespace ldp

#endif  // LDP_CORE_SAMPLED_NUMERIC_H_

// Generalized randomized response (k-RR): the direct extension of Warner's
// 1965 randomized response to a k-value domain. The user reports her true
// value with probability p = e^ε / (e^ε + k − 1) and any specific other value
// with probability q = 1 / (e^ε + k − 1). Best-in-class when k < e^ε + 2;
// degrades linearly in k beyond that (OUE/OLH then dominate).

#ifndef LDP_FREQUENCY_GRR_H_
#define LDP_FREQUENCY_GRR_H_

#include "frequency/frequency_oracle.h"

namespace ldp {

/// k-ary randomized response; report payload is the single perturbed value.
class GrrOracle final : public FrequencyOracle {
 public:
  /// `epsilon` > 0 and finite, `domain_size` >= 2 (validated by the factory;
  /// direct construction LDP_CHECKs).
  GrrOracle(double epsilon, uint32_t domain_size);

  void PerturbInto(uint32_t value, Rng* rng, std::string* out) const override;
  const char* ValidateView(ReportView report) const override {
    if (report.size() != 1) return "GRR report must carry exactly one value";
    if (report[0] >= domain_size()) {
      return "GRR report value outside the domain";
    }
    return nullptr;
  }
  void AccumulateView(ReportView report, uint64_t* support) const override {
    ++support[report[0]];
  }
  std::vector<double> Estimate(const std::vector<uint64_t>& support,
                               uint64_t num_reports) const override;
  double EstimateVariance(double f, uint64_t num_reports) const override;
  size_t MaxReportSize() const override { return 1; }
  const char* name() const override { return "GRR"; }

  /// Probability of reporting the true value, e^ε / (e^ε + k − 1).
  double p() const { return p_; }

  /// Probability of reporting one specific other value, 1 / (e^ε + k − 1).
  double q() const { return q_; }

 private:
  double p_;
  double q_;
};

}  // namespace ldp

#endif  // LDP_FREQUENCY_GRR_H_

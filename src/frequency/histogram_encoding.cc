#include "frequency/histogram_encoding.h"

#include <cmath>

#include "util/check.h"
#include "util/math.h"

namespace ldp {

namespace {

// Laplace(b) upper tail: Pr[X > x].
double LaplaceUpperTail(double x, double b) {
  if (x >= 0.0) return 0.5 * std::exp(-x / b);
  return 1.0 - 0.5 * std::exp(x / b);
}

}  // namespace

// ---------------------------------------------------------------------------
// HE
// ---------------------------------------------------------------------------

HeOracle::HeOracle(double epsilon, uint32_t domain_size)
    : FrequencyOracle(epsilon, domain_size), noise_scale_(2.0 / epsilon) {
  LDP_CHECK(std::isfinite(epsilon) && epsilon > 0.0);
  LDP_CHECK(domain_size >= 2);
}

void HeOracle::PerturbInto(uint32_t value, Rng* rng,
                           std::string* out) const {
  LDP_DCHECK(value < domain_size());
  internal_wire::PutU16(out, static_cast<uint16_t>(domain_size()));
  const size_t words_at = out->size();
  out->resize(words_at + 4 * static_cast<size_t>(domain_size()));
  char* words = &(*out)[words_at];
  for (uint32_t v = 0; v < domain_size(); ++v) {
    const double one_hot = (v == value) ? 1.0 : 0.0;
    double noisy = one_hot + rng->Laplace(noise_scale_);
    // Clamp into the packable range; at scale 2/ε this tail is negligible
    // for any practical budget.
    noisy = Clamp(noisy, -kOffset, kOffset);
    internal_wire::StoreLittleEndian(
        words + 4 * static_cast<size_t>(v),
        static_cast<uint32_t>(
            std::llround((noisy + kOffset) * kFixedPointScale)));
  }
}

std::vector<double> HeOracle::Estimate(const std::vector<uint64_t>& support,
                                       uint64_t num_reports) const {
  LDP_DCHECK(support.size() == domain_size());
  std::vector<double> estimates(domain_size(), 0.0);
  if (num_reports == 0) return estimates;
  // Remove every report's packing offset exactly, then unscale once.
  const __int128_t offset =
      static_cast<__int128_t>(num_reports) * kFixedPointOffset;
  for (uint32_t v = 0; v < domain_size(); ++v) {
    const __int128_t centered = static_cast<__int128_t>(support[v]) - offset;
    estimates[v] = static_cast<double>(centered) / kFixedPointScale /
                   static_cast<double>(num_reports);
  }
  return estimates;
}

double HeOracle::EstimateVariance(double f, uint64_t num_reports) const {
  if (num_reports == 0) return 0.0;
  // Per-report component variance: Laplace noise (2 b²) plus the one-hot
  // indicator's own variance f(1-f).
  return (2.0 * noise_scale_ * noise_scale_ + f * (1.0 - f)) /
         static_cast<double>(num_reports);
}

// ---------------------------------------------------------------------------
// THE
// ---------------------------------------------------------------------------

double TheOracle::OptimalTheta(double epsilon) {
  const double b = 2.0 / epsilon;
  auto variance_proxy = [&](double theta) {
    const double p = LaplaceUpperTail(theta - 1.0, b);
    const double q = LaplaceUpperTail(theta, b);
    const double gap = p - q;
    return q * (1.0 - q) / (gap * gap);
  };
  // Ternary search on (0.5, 1): the proxy is unimodal in θ.
  double lo = 0.5, hi = 1.0;
  for (int iter = 0; iter < 200 && hi - lo > 1e-12; ++iter) {
    const double m1 = lo + (hi - lo) / 3.0;
    const double m2 = hi - (hi - lo) / 3.0;
    if (variance_proxy(m1) < variance_proxy(m2)) {
      hi = m2;
    } else {
      lo = m1;
    }
  }
  return 0.5 * (lo + hi);
}

TheOracle::TheOracle(double epsilon, uint32_t domain_size)
    : TheOracle(epsilon, domain_size, OptimalTheta(epsilon)) {}

TheOracle::TheOracle(double epsilon, uint32_t domain_size, double theta)
    : FrequencyOracle(epsilon, domain_size),
      theta_(theta),
      noise_scale_(2.0 / epsilon) {
  LDP_CHECK(std::isfinite(epsilon) && epsilon > 0.0);
  LDP_CHECK(domain_size >= 2);
  LDP_CHECK_MSG(theta > 0.5 && theta < 1.0, "theta must be in (0.5, 1)");
  p_ = LaplaceUpperTail(theta_ - 1.0, noise_scale_);
  q_ = LaplaceUpperTail(theta_, noise_scale_);
}

void TheOracle::PerturbInto(uint32_t value, Rng* rng,
                            std::string* out) const {
  LDP_DCHECK(value < domain_size());
  const size_t count_at = BeginReport(out);
  for (uint32_t v = 0; v < domain_size(); ++v) {
    const double one_hot = (v == value) ? 1.0 : 0.0;
    if (one_hot + rng->Laplace(noise_scale_) > theta_) {
      internal_wire::PutU32(out, v);
    }
  }
  EndReport(count_at, out);
}

std::vector<double> TheOracle::Estimate(const std::vector<uint64_t>& support,
                                        uint64_t num_reports) const {
  LDP_DCHECK(support.size() == domain_size());
  return internal_frequency::DebiasSupportCounts(support, num_reports, p_,
                                                 q_);
}

double TheOracle::EstimateVariance(double f, uint64_t num_reports) const {
  return internal_frequency::SupportEstimateVariance(f, num_reports, p_, q_);
}

}  // namespace ldp

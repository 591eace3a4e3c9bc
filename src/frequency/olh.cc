#include "frequency/olh.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace ldp {

OlhOracle::OlhOracle(double epsilon, uint32_t domain_size)
    : FrequencyOracle(epsilon, domain_size) {
  LDP_CHECK(std::isfinite(epsilon) && epsilon > 0.0);
  LDP_CHECK(domain_size >= 2);
  const double e_eps = std::exp(epsilon);
  hash_range_ = std::max<uint32_t>(
      2, static_cast<uint32_t>(std::lround(e_eps)) + 1);
  p_ = e_eps / (e_eps + static_cast<double>(hash_range_) - 1.0);
}

void OlhOracle::PerturbInto(uint32_t value, Rng* rng,
                            std::string* out) const {
  LDP_DCHECK(value < domain_size());
  const uint64_t seed = rng->Next();
  uint32_t bucket = HashToBucket(seed, value, hash_range_);
  if (!rng->Bernoulli(p_)) {
    // GRR over the g buckets: uniform among the other g-1.
    uint32_t other = static_cast<uint32_t>(rng->UniformIndex(hash_range_ - 1));
    if (other >= bucket) ++other;
    bucket = other;
  }
  internal_wire::PutU16(out, 3);
  internal_wire::PutU32(out, static_cast<uint32_t>(seed & 0xffffffffULL));
  internal_wire::PutU32(out, static_cast<uint32_t>(seed >> 32));
  internal_wire::PutU32(out, bucket);
}

std::vector<double> OlhOracle::Estimate(const std::vector<uint64_t>& support,
                                        uint64_t num_reports) const {
  LDP_DCHECK(support.size() == domain_size());
  return internal_frequency::DebiasSupportCounts(support, num_reports, p_,
                                                 q());
}

double OlhOracle::EstimateVariance(double f, uint64_t num_reports) const {
  return internal_frequency::SupportEstimateVariance(f, num_reports, p_, q());
}

}  // namespace ldp

#include "util/sampling.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace ldp {

void SampleWithoutReplacement(uint32_t n, uint32_t k, Rng* rng,
                              uint32_t* out) {
  LDP_CHECK(k <= n);
  // Robert Floyd: for j = n-k .. n-1, pick t in [0, j]; take t unless taken,
  // in which case take j (never taken yet: every earlier pick is < j). Every
  // k-subset is equally likely.
  for (uint32_t i = 0, j = n - k; j < n; ++i, ++j) {
    const auto t = static_cast<uint32_t>(rng->UniformIndex(j + 1));
    out[i] = std::find(out, out + i, t) == out + i ? t : j;
  }
}

std::vector<uint32_t> SampleWithoutReplacement(uint32_t n, uint32_t k,
                                               Rng* rng) {
  std::vector<uint32_t> out(k);
  SampleWithoutReplacement(n, k, rng, out.data());
  return out;
}

AliasSampler::AliasSampler(const std::vector<double>& weights) {
  LDP_CHECK(!weights.empty());
  const size_t n = weights.size();
  double total = 0.0;
  for (double w : weights) {
    LDP_CHECK(std::isfinite(w) && w >= 0.0);
    total += w;
  }
  LDP_CHECK(total > 0.0);

  normalized_.resize(n);
  for (size_t i = 0; i < n; ++i) normalized_[i] = weights[i] / total;

  prob_.assign(n, 0.0);
  alias_.assign(n, 0);
  std::vector<double> scaled(n);
  for (size_t i = 0; i < n; ++i) scaled[i] = normalized_[i] * static_cast<double>(n);

  std::vector<uint32_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const uint32_t s = small.back();
    small.pop_back();
    const uint32_t l = large.back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  for (uint32_t i : large) prob_[i] = 1.0;
  for (uint32_t i : small) prob_[i] = 1.0;  // numerical leftovers
}

uint32_t AliasSampler::Sample(Rng* rng) const {
  const auto bucket = static_cast<uint32_t>(rng->UniformIndex(prob_.size()));
  return rng->Uniform01() < prob_[bucket] ? bucket : alias_[bucket];
}

double UniformFromTwoIntervals(double a1, double b1, double a2, double b2,
                               Rng* rng) {
  const double len1 = std::max(0.0, b1 - a1);
  const double len2 = std::max(0.0, b2 - a2);
  LDP_CHECK(len1 + len2 > 0.0);
  const double u = rng->Uniform01() * (len1 + len2);
  if (u < len1) return a1 + u;
  return a2 + (u - len1);
}

}  // namespace ldp

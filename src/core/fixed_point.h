// Exact fixed-point numeric sums. Every estimator in the paper is a plain
// sum divided by a count, so the server keeps every aggregate as integers:
// support counts for the frequency oracles, and the PM/HM numeric sums as
// 128-bit fixed point with 32 fractional bits. Integer addition is
// associative and commutative, so shards merge into bit-identical state in
// any order — no merge needs to wait for another.
//
// Each numeric report value is rounded to the nearest multiple of 2^-32 as
// it is folded in. That rounding is server-side post-processing of a
// received report, so ε is unchanged; the wire carries the same f64 values
// as before.

#ifndef LDP_CORE_FIXED_POINT_H_
#define LDP_CORE_FIXED_POINT_H_

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace ldp {

/// Σ round(v · 2^32) over folded report values.
using FixedPointSum = __int128_t;

/// Quantization saturates at this magnitude, so one quantized value fits in
/// 63 bits and 2^64 of them fit in a FixedPointSum. Only the unbounded
/// mechanisms (Laplace, SCDF, Staircase) at budgets far below any practical
/// ε can emit values this large.
inline constexpr double kMaxQuantizedValue = 0x1p30;

/// The d/k-scaled output bound a numeric report value must respect, with
/// the decoders' floating-point slack folded in (+infinity for mechanisms
/// with unbounded output).
inline double ScaledValueBound(uint32_t dimension, uint32_t k,
                               double output_bound) {
  return static_cast<double>(dimension) / k * output_bound * (1.0 + 1e-9);
}

/// round(value · 2^32), saturating at ±kMaxQuantizedValue. Monotone, so
/// QuantizeValue(bound) bounds |QuantizeValue(v)| for every |v| <= bound.
inline int64_t QuantizeValue(double value) {
  return std::llround(
      std::clamp(value, -kMaxQuantizedValue, kMaxQuantizedValue) * 0x1p32);
}

/// The mean of `count` quantized values summing to `sum` (0 when count is
/// 0): one rounding from the exact sum, so equal sums give equal means.
inline double FixedPointMean(FixedPointSum sum, uint64_t count) {
  if (count == 0) return 0.0;
  return std::ldexp(static_cast<double>(sum), -32) /
         static_cast<double>(count);
}

/// True when |sum| <= count · max_term: a sum `count` terms of magnitude at
/// most `max_term` can reach. Decoders run it on snapshot sums from outside
/// data; it also keeps later integer adds clear of overflow.
inline bool SumWithinBound(FixedPointSum sum, uint64_t count,
                           uint64_t max_term) {
  const __uint128_t magnitude = sum < 0 ? -static_cast<__uint128_t>(sum)
                                        : static_cast<__uint128_t>(sum);
  return magnitude <= static_cast<__uint128_t>(count) * max_term;
}

}  // namespace ldp

#endif  // LDP_CORE_FIXED_POINT_H_

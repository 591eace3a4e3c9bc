#include "aggregate/confidence.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/hybrid.h"
#include "frequency/oue.h"
#include "util/random.h"
#include "util/stats.h"

namespace ldp::aggregate {
namespace {

TEST(NormalQuantileTest, MatchesStandardValues) {
  EXPECT_NEAR(NormalQuantile(0.95), 1.959964, 1e-5);
  EXPECT_NEAR(NormalQuantile(0.99), 2.575829, 1e-5);
  EXPECT_NEAR(NormalQuantile(0.6827), 1.0, 1e-3);
}

TEST(MeanConfidenceIntervalTest, ValidatesArguments) {
  const HybridMechanism mech(1.0);
  EXPECT_FALSE(MeanConfidenceInterval(0.0, mech, 0, 0.95).ok());
  EXPECT_FALSE(MeanConfidenceInterval(0.0, mech, 100, 0.0).ok());
  EXPECT_FALSE(MeanConfidenceInterval(0.0, mech, 100, 1.0).ok());
  EXPECT_TRUE(MeanConfidenceInterval(0.0, mech, 100, 0.95).ok());
}

TEST(MeanConfidenceIntervalTest, WidthMatchesWorstCaseVariance) {
  const HybridMechanism mech(1.0);
  const uint64_t n = 10000;
  auto interval = MeanConfidenceInterval(0.3, mech, n, 0.95);
  ASSERT_TRUE(interval.ok());
  const double expected =
      1.959964 * std::sqrt(mech.WorstCaseVariance() / n);
  EXPECT_NEAR(interval.value().HalfWidth(), expected, 1e-6);
  EXPECT_DOUBLE_EQ(interval.value().estimate, 0.3);
  EXPECT_NEAR(interval.value().lo, 0.3 - expected, 1e-6);
  EXPECT_NEAR(interval.value().hi, 0.3 + expected, 1e-6);
}

TEST(MeanConfidenceIntervalTest, WidthShrinksWithUsersAndConfidence) {
  const HybridMechanism mech(1.0);
  auto narrow = MeanConfidenceInterval(0.0, mech, 40000, 0.95);
  auto wide = MeanConfidenceInterval(0.0, mech, 10000, 0.95);
  auto confident = MeanConfidenceInterval(0.0, mech, 10000, 0.999);
  ASSERT_TRUE(narrow.ok() && wide.ok() && confident.ok());
  EXPECT_NEAR(narrow.value().HalfWidth(), wide.value().HalfWidth() / 2.0,
              1e-9);
  EXPECT_GT(confident.value().HalfWidth(), wide.value().HalfWidth());
}

TEST(MeanConfidenceIntervalTest, EmpiricalCoverageAtLeastNominal) {
  // The interval uses the worst-case variance, so coverage must be >= 95%.
  const HybridMechanism mech(1.0);
  const uint64_t n = 2000;
  const double truth = 0.4;
  Rng rng(1);
  int covered = 0;
  const int reps = 400;
  for (int rep = 0; rep < reps; ++rep) {
    double sum = 0.0;
    for (uint64_t i = 0; i < n; ++i) sum += mech.Perturb(truth, &rng);
    const double estimate = sum / static_cast<double>(n);
    auto interval = MeanConfidenceInterval(estimate, mech, n, 0.95);
    ASSERT_TRUE(interval.ok());
    if (truth >= interval.value().lo && truth <= interval.value().hi) {
      ++covered;
    }
  }
  EXPECT_GE(covered, static_cast<int>(reps * 0.93));
}

TEST(SampledMeanConfidenceIntervalTest, UsesCoordinateVariance) {
  auto mech = SampledNumericMechanism::Create(MechanismKind::kHybrid, 1.0, 8);
  ASSERT_TRUE(mech.ok());
  const uint64_t n = 5000;
  auto interval = SampledMeanConfidenceInterval(0.1, mech.value(), n, 0.95);
  ASSERT_TRUE(interval.ok());
  const double expected =
      1.959964 *
      std::sqrt(mech.value().WorstCaseCoordinateVariance() / n);
  EXPECT_NEAR(interval.value().HalfWidth(), expected, 1e-6);
}

TEST(FrequencyConfidenceIntervalTest, UsesOracleVariance) {
  const OueOracle oracle(1.0, 8);
  const uint64_t n = 20000;
  auto interval = FrequencyConfidenceInterval(0.25, oracle, n, 0.95);
  ASSERT_TRUE(interval.ok());
  const double expected =
      1.959964 * std::sqrt(oracle.EstimateVariance(0.25, n));
  EXPECT_NEAR(interval.value().HalfWidth(), expected, 1e-6);
}

TEST(FrequencyConfidenceIntervalTest, ClampsEstimateForVarianceEvaluation) {
  // A raw estimate of -0.02 must not crash the variance formula.
  const OueOracle oracle(1.0, 8);
  auto interval = FrequencyConfidenceInterval(-0.02, oracle, 1000, 0.95);
  ASSERT_TRUE(interval.ok());
  EXPECT_LT(interval.value().lo, interval.value().hi);
}

TEST(FrequencyConfidenceIntervalTest, EmpiricalCoverage) {
  const OueOracle oracle(1.0, 4);
  const uint64_t n = 3000;
  const double truth = 0.3;
  Rng rng(2);
  int covered = 0;
  const int reps = 300;
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<uint64_t> support(4, 0);
    for (uint64_t i = 0; i < n; ++i) {
      oracle.Accumulate(
          oracle.Perturb(rng.Bernoulli(truth) ? 0u : 2u, &rng), &support);
    }
    const double estimate = oracle.Estimate(support, n)[0];
    auto interval = FrequencyConfidenceInterval(estimate, oracle, n, 0.95);
    ASSERT_TRUE(interval.ok());
    if (truth >= interval.value().lo && truth <= interval.value().hi) {
      ++covered;
    }
  }
  // Nominal 95% with Monte-Carlo slack.
  EXPECT_GE(covered, static_cast<int>(reps * 0.90));
}

}  // namespace
}  // namespace ldp::aggregate

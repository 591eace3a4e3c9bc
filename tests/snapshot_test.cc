#include "stream/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "core/fixed_point.h"
#include "stream/report_stream.h"
#include "util/random.h"

namespace ldp::stream {
namespace {

MixedTupleCollector MakeCollector(
    double epsilon = 6.0,
    FrequencyOracleKind oracle = FrequencyOracleKind::kOue) {
  auto collector = MixedTupleCollector::Create(
      {MixedAttribute::Numeric(), MixedAttribute::Categorical(4),
       MixedAttribute::Numeric(), MixedAttribute::Categorical(6)},
      epsilon, MechanismKind::kHybrid, oracle);
  EXPECT_TRUE(collector.ok());
  return std::move(collector).value();
}

MixedTuple SampleTuple() {
  MixedTuple tuple(4);
  tuple[0] = AttributeValue::Numeric(0.5);
  tuple[1] = AttributeValue::Categorical(1);
  tuple[2] = AttributeValue::Numeric(-0.25);
  tuple[3] = AttributeValue::Categorical(3);
  return tuple;
}

MixedAggregator FillAggregator(const MixedTupleCollector& collector,
                               int reports, uint64_t seed) {
  MixedAggregator aggregator(&collector);
  Rng rng(seed);
  for (int i = 0; i < reports; ++i) {
    aggregator.Add(collector.Perturb(SampleTuple(), &rng));
  }
  return aggregator;
}

void ExpectSameState(const MixedAggregator& a, const MixedAggregator& b) {
  EXPECT_EQ(a.num_reports(), b.num_reports());
  EXPECT_EQ(a.attribute_report_counts(), b.attribute_report_counts());
  EXPECT_EQ(a.numeric_sums(), b.numeric_sums());
  EXPECT_EQ(a.supports(), b.supports());
}

TEST(SnapshotTest, RoundTripsExactly) {
  const MixedTupleCollector collector = MakeCollector();
  const MixedAggregator original = FillAggregator(collector, 500, 11);
  const std::string bytes = EncodeAggregatorSnapshot(original);
  EXPECT_TRUE(LooksLikeSnapshot(bytes));
  auto decoded = DecodeAggregatorSnapshot(bytes, &collector);
  ASSERT_TRUE(decoded.ok());
  ExpectSameState(original, decoded.value());
  // Estimates are a pure function of the state: bit-identical too.
  EXPECT_EQ(original.EstimateMean(0).value(),
            decoded.value().EstimateMean(0).value());
  EXPECT_EQ(original.EstimateFrequencies(1).value(),
            decoded.value().EstimateFrequencies(1).value());
}

TEST(SnapshotTest, ConfigRoundTrips) {
  const MixedTupleCollector collector = MakeCollector();
  const std::string bytes =
      EncodeAggregatorSnapshot(FillAggregator(collector, 10, 1));
  auto config = DecodeSnapshotConfig(bytes);
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config.value().mechanism, collector.numeric_kind());
  EXPECT_EQ(config.value().oracle, collector.categorical_kind());
  EXPECT_EQ(config.value().epsilon, collector.epsilon());
  EXPECT_EQ(config.value().dimension, collector.dimension());
  EXPECT_EQ(config.value().k, collector.k());
  EXPECT_EQ(config.value().schema_hash, CollectorSchemaHash(collector));
}

TEST(SnapshotTest, MergeIsCommutative) {
  const MixedTupleCollector collector = MakeCollector();
  const MixedAggregator a = FillAggregator(collector, 300, 21);
  const MixedAggregator b = FillAggregator(collector, 200, 22);
  MixedAggregator ab = a;
  ASSERT_TRUE(ab.Merge(b).ok());
  MixedAggregator ba = b;
  ASSERT_TRUE(ba.Merge(a).ok());
  // Integer addition is commutative, so the merged states match bit for bit.
  ExpectSameState(ab, ba);
}

TEST(SnapshotTest, MergeIsAssociative) {
  const MixedTupleCollector collector = MakeCollector();
  const MixedAggregator a = FillAggregator(collector, 100, 31);
  const MixedAggregator b = FillAggregator(collector, 150, 32);
  const MixedAggregator c = FillAggregator(collector, 200, 33);

  MixedAggregator left = a;   // (a + b) + c
  ASSERT_TRUE(left.Merge(b).ok());
  ASSERT_TRUE(left.Merge(c).ok());
  MixedAggregator bc = b;     // a + (b + c)
  ASSERT_TRUE(bc.Merge(c).ok());
  MixedAggregator right = a;
  ASSERT_TRUE(right.Merge(bc).ok());

  // Every field is an integer sum — numeric sums included — so both
  // groupings land on the same bits.
  ExpectSameState(left, right);
  EXPECT_EQ(EncodeAggregatorSnapshot(left), EncodeAggregatorSnapshot(right));
}

// Folds `parts` together in the order `order` names.
template <typename Aggregator>
Aggregator MergeInOrder(const std::vector<Aggregator>& parts,
                        const std::vector<size_t>& order) {
  Aggregator total = parts[order[0]];
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_TRUE(total.Merge(parts[order[i]]).ok());
  }
  return total;
}

// Merging in shuffled orders — and as a balanced tree — must give the same
// snapshot bytes as merging in index order. `encode` serializes a merged
// aggregator.
template <typename Aggregator, typename Encode>
void ExpectOrderFreeMerges(const std::vector<Aggregator>& parts,
                           Encode encode) {
  std::vector<size_t> order(parts.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  const std::string reference = encode(MergeInOrder(parts, order));
  std::mt19937 shuffler(17);
  for (int round = 0; round < 8; ++round) {
    std::shuffle(order.begin(), order.end(), shuffler);
    EXPECT_EQ(encode(MergeInOrder(parts, order)), reference)
        << "shuffle round " << round;
  }
  std::reverse(order.begin(), order.end());
  EXPECT_EQ(encode(MergeInOrder(parts, order)), reference) << "reversed";
  std::vector<Aggregator> level = parts;
  while (level.size() > 1) {
    std::vector<Aggregator> next;
    for (size_t i = 0; i + 1 < level.size(); i += 2) {
      next.push_back(level[i]);
      EXPECT_TRUE(next.back().Merge(level[i + 1]).ok());
    }
    if (level.size() % 2 == 1) next.push_back(level.back());
    level = std::move(next);
  }
  EXPECT_EQ(encode(level[0]), reference) << "tree";
}

TEST(SnapshotTest, MergeOrderNeverChangesTheSnapshotBytes) {
  for (const FrequencyOracleKind oracle :
       {FrequencyOracleKind::kOue, FrequencyOracleKind::kHe}) {
    SCOPED_TRACE(FrequencyOracleKindToString(oracle));
    const MixedTupleCollector collector = MakeCollector(6.0, oracle);
    std::vector<MixedAggregator> parts;
    for (int s = 0; s < 7; ++s) {
      parts.push_back(FillAggregator(collector, 40 + 30 * s, 900 + s));
    }
    ExpectOrderFreeMerges(parts, [](const MixedAggregator& aggregator) {
      return EncodeAggregatorSnapshot(aggregator);
    });
  }

  auto mechanism =
      SampledNumericMechanism::Create(MechanismKind::kHybrid, 2.0, 5);
  ASSERT_TRUE(mechanism.ok());
  std::vector<NumericAggregator> parts;
  Rng rng(77);
  for (int s = 0; s < 7; ++s) {
    NumericAggregator aggregator(&mechanism.value());
    for (int i = 0; i < 50 + 20 * s; ++i) {
      aggregator.Add(
          mechanism.value().Perturb({0.9, -0.3, 0.1, -0.8, 0.45}, &rng));
    }
    parts.push_back(aggregator);
  }
  ExpectOrderFreeMerges(parts, [](const NumericAggregator& aggregator) {
    return EncodeNumericAggregatorSnapshot(aggregator, MechanismKind::kHybrid);
  });
}

TEST(SnapshotTest, SnapshotMergeMatchesDirectMerge) {
  const MixedTupleCollector collector = MakeCollector();
  const MixedAggregator a = FillAggregator(collector, 250, 41);
  const MixedAggregator b = FillAggregator(collector, 350, 42);

  MixedAggregator direct = a;
  ASSERT_TRUE(direct.Merge(b).ok());

  auto a2 = DecodeAggregatorSnapshot(EncodeAggregatorSnapshot(a), &collector);
  auto b2 = DecodeAggregatorSnapshot(EncodeAggregatorSnapshot(b), &collector);
  ASSERT_TRUE(a2.ok());
  ASSERT_TRUE(b2.ok());
  MixedAggregator via_snapshots = std::move(a2).value();
  ASSERT_TRUE(via_snapshots.Merge(b2.value()).ok());
  ExpectSameState(direct, via_snapshots);
}

TEST(SnapshotTest, RejectsTruncationEverywhere) {
  const MixedTupleCollector collector = MakeCollector();
  const std::string bytes =
      EncodeAggregatorSnapshot(FillAggregator(collector, 40, 51));
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(
        DecodeAggregatorSnapshot(bytes.substr(0, cut), &collector).ok())
        << cut;
  }
}

TEST(SnapshotTest, RejectsTrailingGarbage) {
  const MixedTupleCollector collector = MakeCollector();
  std::string bytes =
      EncodeAggregatorSnapshot(FillAggregator(collector, 40, 52));
  bytes.push_back('x');
  EXPECT_FALSE(DecodeAggregatorSnapshot(bytes, &collector).ok());
}

TEST(SnapshotTest, RejectsForeignCollector) {
  const MixedTupleCollector collector = MakeCollector(6.0);
  const std::string bytes =
      EncodeAggregatorSnapshot(FillAggregator(collector, 40, 53));
  // Different ε.
  const MixedTupleCollector other_epsilon = MakeCollector(5.0);
  EXPECT_FALSE(DecodeAggregatorSnapshot(bytes, &other_epsilon).ok());
  // Different schema (domain size changed).
  auto other_schema = MixedTupleCollector::Create(
      {MixedAttribute::Numeric(), MixedAttribute::Categorical(5),
       MixedAttribute::Numeric(), MixedAttribute::Categorical(6)},
      6.0);
  ASSERT_TRUE(other_schema.ok());
  EXPECT_FALSE(DecodeAggregatorSnapshot(bytes, &other_schema.value()).ok());
}

TEST(SnapshotTest, RejectsBadMagicAndVersion) {
  const MixedTupleCollector collector = MakeCollector();
  const std::string good =
      EncodeAggregatorSnapshot(FillAggregator(collector, 4, 54));
  std::string bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_FALSE(DecodeAggregatorSnapshot(bad_magic, &collector).ok());
  EXPECT_FALSE(LooksLikeSnapshot(bad_magic));
  std::string bad_version = good;
  bad_version[4] = 9;
  EXPECT_FALSE(DecodeAggregatorSnapshot(bad_version, &collector).ok());
  // Version 1 held f64 sums; it is refused, not reinterpreted.
  bad_version[4] = 1;
  EXPECT_FALSE(DecodeAggregatorSnapshot(bad_version, &collector).ok());
}

TEST(FromPartsTest, ValidatesShapesAndValues) {
  const MixedTupleCollector collector = MakeCollector();
  const uint32_t d = collector.dimension();
  std::vector<uint64_t> counts(d, 5);
  std::vector<FixedPointSum> sums(d, 0);
  std::vector<std::vector<uint64_t>> supports(d);
  supports[1].assign(4, 1);
  supports[3].assign(6, 1);

  EXPECT_TRUE(MixedAggregator::FromParts(&collector, 10, counts, sums,
                                         supports)
                  .ok());
  // Wrong vector lengths.
  EXPECT_FALSE(MixedAggregator::FromParts(
                   &collector, 10, std::vector<uint64_t>(d - 1, 0), sums,
                   supports)
                   .ok());
  // Support size not matching the domain.
  auto bad_supports = supports;
  bad_supports[1].push_back(0);
  EXPECT_FALSE(MixedAggregator::FromParts(&collector, 10, counts, sums,
                                          bad_supports)
                   .ok());
  // Support present at a numeric position.
  bad_supports = supports;
  bad_supports[0].assign(2, 0);
  EXPECT_FALSE(MixedAggregator::FromParts(&collector, 10, counts, sums,
                                          bad_supports)
                   .ok());
  // Attribute count exceeding the total.
  auto bad_counts = counts;
  bad_counts[2] = 11;
  EXPECT_FALSE(MixedAggregator::FromParts(&collector, 10, bad_counts, sums,
                                          supports)
                   .ok());
  // A numeric sum beyond what its attribute's reports can reach: each of
  // the 5 reports adds at most the quantized scaled output bound.
  const double value_bound = ScaledValueBound(
      d, collector.k(), collector.scalar_mechanism().OutputBound());
  const FixedPointSum max_sum =
      static_cast<FixedPointSum>(counts[0]) * QuantizeValue(value_bound);
  auto bad_sums = sums;
  bad_sums[0] = max_sum;
  EXPECT_TRUE(MixedAggregator::FromParts(&collector, 10, counts, bad_sums,
                                         supports)
                  .ok());
  bad_sums[0] = max_sum + 1;
  EXPECT_FALSE(MixedAggregator::FromParts(&collector, 10, counts, bad_sums,
                                          supports)
                   .ok());
  bad_sums[0] = -max_sum - 1;
  EXPECT_FALSE(MixedAggregator::FromParts(&collector, 10, counts, bad_sums,
                                          supports)
                   .ok());
  // A numeric sum at a categorical position.
  bad_sums = sums;
  bad_sums[1] = 1;
  EXPECT_FALSE(MixedAggregator::FromParts(&collector, 10, counts, bad_sums,
                                          supports)
                   .ok());
  // An OUE support count above the attribute's report count.
  bad_supports = supports;
  bad_supports[3][2] = counts[3] + 1;
  EXPECT_FALSE(MixedAggregator::FromParts(&collector, 10, counts, sums,
                                          bad_supports)
                   .ok());
}

}  // namespace
}  // namespace ldp::stream

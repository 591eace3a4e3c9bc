// The Algorithm-4 numeric stream path: the zero-copy frame decoder, the
// NumericAggregator and its snapshot codec, numeric ShardIngester streams,
// and the headline parity contract — a sharded numeric run through
// api::ServerSession reproduces the in-process Pipeline::Collect simulation
// BIT FOR BIT on an all-numeric schema (the mixed collector and Algorithm 4
// draw the same randomness there), while adversarial frames are rejected
// without aborting the stream.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "api/pipeline.h"
#include "api/server_session.h"
#include "core/numeric_aggregator.h"
#include "core/wire.h"
#include "data/dataset.h"
#include "stream/report_stream.h"
#include "stream/shard_ingester.h"
#include "stream/snapshot.h"
#include "util/threadpool.h"

namespace ldp {
namespace {

// The retired CollectProposed wrapper, inlined over the session facade.
Result<api::CollectionOutput> CollectProposed(
    const data::Dataset& dataset, double epsilon, uint64_t seed,
    MechanismKind numeric_kind = MechanismKind::kHybrid,
    FrequencyOracleKind oracle_kind = FrequencyOracleKind::kOue,
    ThreadPool* pool = nullptr) {
  api::PipelineConfig config;
  config.epsilon = epsilon;
  config.mechanism = numeric_kind;
  config.oracle = oracle_kind;
  LDP_ASSIGN_OR_RETURN(config.attributes,
                       api::AttributesFromSchema(dataset.schema()));
  Result<api::Pipeline> pipeline =
      api::Pipeline::Create(std::move(config));
  if (!pipeline.ok()) return pipeline.status();
  return pipeline.value().Collect(dataset, seed, pool);
}


constexpr double kEpsilon = 8.0;  // k = 3 of 4: multi-entry reports
constexpr uint32_t kDimension = 4;
constexpr uint64_t kSeed = 7;
constexpr uint64_t kRows = 2000;

data::Dataset MakeNumericData() {
  std::vector<data::ColumnSpec> columns;
  for (uint32_t j = 0; j < kDimension; ++j) {
    columns.push_back(
        data::ColumnSpec::Numeric("x" + std::to_string(j), -1.0, 1.0));
  }
  auto schema = data::Schema::Create(std::move(columns));
  EXPECT_TRUE(schema.ok());
  data::Dataset dataset(schema.value());
  dataset.Resize(kRows);
  Rng rng(42);
  for (uint64_t row = 0; row < kRows; ++row) {
    for (uint32_t j = 0; j < kDimension; ++j) {
      dataset.set_numeric(row, j, rng.Uniform(-1.0, 1.0));
    }
  }
  return dataset;
}

SampledNumericMechanism MakeMechanism() {
  auto mechanism = SampledNumericMechanism::Create(MechanismKind::kHybrid,
                                                   kEpsilon, kDimension);
  EXPECT_TRUE(mechanism.ok());
  return std::move(mechanism).value();
}

TEST(NumericFrameDecoderTest, MatchesMaterializingDecoder) {
  const SampledNumericMechanism mechanism = MakeMechanism();
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    const SampledNumericReport report =
        mechanism.Perturb({0.5, -0.25, 0.0, 1.0}, &rng);
    const std::string bytes = EncodeSampledNumericReport(report);
    auto decoded = DecodeSampledNumericReport(bytes, mechanism);
    ASSERT_TRUE(decoded.ok());
    ASSERT_EQ(decoded.value().size(), report.size());
    for (size_t e = 0; e < report.size(); ++e) {
      EXPECT_EQ(decoded.value()[e].attribute, report[e].attribute);
      EXPECT_EQ(decoded.value()[e].value, report[e].value);
    }
  }
}

TEST(NumericFrameDecoderTest, SinkSeesNothingOnInvalidFrames) {
  const SampledNumericMechanism mechanism = MakeMechanism();
  NumericAggregator aggregator(&mechanism);
  NumericFrameDecoder decoder(&mechanism);
  Rng rng(2);
  const std::string good = EncodeSampledNumericReport(
      mechanism.Perturb({0.5, -0.25, 0.0, 1.0}, &rng));

  // Truncations at every cut never reach the sink.
  for (size_t cut = 0; cut < good.size(); ++cut) {
    EXPECT_FALSE(
        decoder.DecodeInto(good.data(), cut, &aggregator).ok());
  }
  // Trailing bytes, wrong entry count, out-of-range pieces.
  std::string trailing = good;
  trailing.push_back('\0');
  EXPECT_FALSE(
      decoder.DecodeInto(trailing.data(), trailing.size(), &aggregator).ok());
  const std::string too_few =
      EncodeSampledNumericReport({{0, 0.5}});
  EXPECT_FALSE(
      decoder.DecodeInto(too_few.data(), too_few.size(), &aggregator).ok());
  const std::string bad_attribute =
      EncodeSampledNumericReport({{0, 0.5}, {99, 0.5}, {1, 0.5}});
  EXPECT_FALSE(decoder
                   .DecodeInto(bad_attribute.data(), bad_attribute.size(),
                               &aggregator)
                   .ok());
  const std::string bad_value =
      EncodeSampledNumericReport({{0, 0.5}, {1, 1e9}, {2, 0.5}});
  EXPECT_FALSE(
      decoder.DecodeInto(bad_value.data(), bad_value.size(), &aggregator)
          .ok());
  const std::string duplicate =
      EncodeSampledNumericReport({{0, 0.5}, {0, 0.5}, {1, 0.5}});
  EXPECT_FALSE(
      decoder.DecodeInto(duplicate.data(), duplicate.size(), &aggregator)
          .ok());
  EXPECT_EQ(aggregator.num_reports(), 0u);

  // And the good frame still decodes afterwards.
  EXPECT_TRUE(decoder.DecodeInto(good.data(), good.size(), &aggregator).ok());
  EXPECT_EQ(aggregator.num_reports(), 1u);
}

TEST(NumericAggregatorTest, SnapshotRoundTripsAndValidates) {
  const SampledNumericMechanism mechanism = MakeMechanism();
  NumericAggregator aggregator(&mechanism);
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    aggregator.Add(mechanism.Perturb({0.25, 0.5, -0.75, 0.0}, &rng));
  }
  const std::string bytes =
      stream::EncodeNumericAggregatorSnapshot(aggregator, MechanismKind::kHybrid);
  EXPECT_TRUE(stream::LooksLikeNumericSnapshot(bytes));
  EXPECT_FALSE(stream::LooksLikeSnapshot(bytes));

  auto decoded = stream::DecodeNumericAggregatorSnapshot(
      bytes, &mechanism, MechanismKind::kHybrid);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().num_reports(), aggregator.num_reports());
  EXPECT_EQ(decoded.value().sums(), aggregator.sums());
  EXPECT_EQ(decoded.value().attribute_report_counts(),
            aggregator.attribute_report_counts());

  // The generic config peek tags the kind.
  auto config = stream::DecodeSnapshotConfig(bytes);
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config.value().kind, stream::ReportStreamKind::kSampledNumeric);

  // Mismatched mechanism kind, truncation, and cross-kind decodes fail.
  EXPECT_FALSE(stream::DecodeNumericAggregatorSnapshot(
                   bytes, &mechanism, MechanismKind::kPiecewise)
                   .ok());
  EXPECT_FALSE(stream::DecodeNumericAggregatorSnapshot(
                   bytes.substr(0, bytes.size() - 1), &mechanism,
                   MechanismKind::kHybrid)
                   .ok());
  auto other = SampledNumericMechanism::Create(MechanismKind::kHybrid,
                                               kEpsilon, kDimension + 1);
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(stream::DecodeNumericAggregatorSnapshot(
                   bytes, &other.value(), MechanismKind::kHybrid)
                   .ok());
}

// Writes rows [range.begin, range.end) as one framed numeric stream via the
// client session.
std::string WriteNumericShard(const data::Dataset& dataset,
                              const api::ClientSession& client,
                              IndexRange range) {
  std::string shard = client.EncodeHeader();
  std::vector<double> row(dataset.schema().num_columns(), 0.0);
  for (uint64_t r = range.begin; r < range.end; ++r) {
    for (uint32_t j = 0; j < row.size(); ++j) {
      row[j] = dataset.numeric(r, j);
    }
    Rng rng = api::UserRng(kSeed, r);
    auto payload = client.EncodeReport(row, &rng);
    EXPECT_TRUE(payload.ok());
    EXPECT_TRUE(stream::AppendFrame(payload.value(), &shard).ok());
  }
  return shard;
}

TEST(NumericStreamTest, ShardedServerSessionReproducesCollectProposed) {
  const data::Dataset dataset = MakeNumericData();
  // Shard boundaries mirror the pooled run's ParallelFor chunks (threads×4),
  // and shards merge in order — the same bit-reproduction contract the mixed
  // stream path has had since PR 1.
  constexpr unsigned kPoolThreads = 2;
  ThreadPool pool(kPoolThreads);
  auto expected = CollectProposed(dataset, kEpsilon, kSeed,
                                             MechanismKind::kHybrid,
                                             FrequencyOracleKind::kOue, &pool);
  ASSERT_TRUE(expected.ok());

  auto config = api::PipelineConfig::FromSchema(dataset.schema(), kEpsilon);
  ASSERT_TRUE(config.ok());
  auto pipeline = api::Pipeline::Create(std::move(config).value());
  ASSERT_TRUE(pipeline.ok());
  ASSERT_EQ(pipeline.value().stream_kind(),
            stream::ReportStreamKind::kSampledNumeric);
  auto client = pipeline.value().NewClient();
  ASSERT_TRUE(client.ok());
  auto server = pipeline.value().NewServer();
  ASSERT_TRUE(server.ok());

  // >= 2 shards, fed byte-at-a-time boundaries via 1000-byte chunks, closed
  // in order.
  const std::vector<IndexRange> ranges =
      SplitRange(kRows, kPoolThreads * 4);
  ASSERT_GE(ranges.size(), 2u);
  for (const IndexRange& range : ranges) {
    const std::string bytes =
        WriteNumericShard(dataset, client.value(), range);
    const size_t shard = server.value().OpenShard();
    for (size_t offset = 0; offset < bytes.size(); offset += 1000) {
      const size_t take = std::min<size_t>(1000, bytes.size() - offset);
      ASSERT_TRUE(
          server.value().Feed(shard, bytes.data() + offset, take).ok());
    }
    ASSERT_TRUE(server.value().CloseShard(shard).ok());
  }

  auto reports = server.value().num_reports(0);
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(reports.value(), kRows);
  for (size_t j = 0; j < expected.value().numeric_columns.size(); ++j) {
    auto mean = server.value().EstimateMean(
        expected.value().numeric_columns[j], 0);
    ASSERT_TRUE(mean.ok());
    EXPECT_EQ(mean.value(), expected.value().estimated_means[j])
        << "attribute " << j;
  }
}

TEST(NumericStreamTest, TwoEpochNumericSessionMatchesCollectAndSumsEpsilon) {
  const data::Dataset dataset = MakeNumericData();
  auto config = api::PipelineConfig::FromSchema(dataset.schema(), kEpsilon);
  ASSERT_TRUE(config.ok());
  config.value().plan.epochs = 2;
  auto pipeline = api::Pipeline::Create(std::move(config).value());
  ASSERT_TRUE(pipeline.ok());
  auto client = pipeline.value().NewClient();
  ASSERT_TRUE(client.ok());
  auto server = pipeline.value().NewServer();
  ASSERT_TRUE(server.ok());
  api::ServerSession& session = server.value();

  constexpr unsigned kPoolThreads = 2;
  constexpr uint64_t kEpochSeeds[] = {kSeed, kSeed + 1};
  const std::vector<IndexRange> ranges =
      SplitRange(kRows, kPoolThreads * 4);
  ASSERT_GE(ranges.size(), 2u);
  for (uint32_t epoch = 0; epoch < 2; ++epoch) {
    if (epoch > 0) {
      ASSERT_TRUE(session.AdvanceEpoch().ok());
    }
    for (const IndexRange& range : ranges) {
      std::string shard_bytes = client.value().EncodeHeader();
      std::vector<double> row(kDimension, 0.0);
      for (uint64_t r = range.begin; r < range.end; ++r) {
        for (uint32_t j = 0; j < kDimension; ++j) {
          row[j] = dataset.numeric(r, j);
        }
        Rng rng = api::UserRng(kEpochSeeds[epoch], r);
        auto payload = client.value().EncodeReport(row, &rng);
        ASSERT_TRUE(payload.ok());
        ASSERT_TRUE(stream::AppendFrame(payload.value(), &shard_bytes).ok());
      }
      const size_t shard = session.OpenShard();
      ASSERT_TRUE(session.Feed(shard, shard_bytes).ok());
      ASSERT_TRUE(session.CloseShard(shard).ok());
    }
  }

  // The accountant reports the summed spend of both epochs, and a third
  // epoch is refused.
  EXPECT_EQ(session.epsilon_spent(), 2 * kEpsilon);
  EXPECT_FALSE(session.AdvanceEpoch().ok());

  ThreadPool pool(kPoolThreads);
  for (uint32_t epoch = 0; epoch < 2; ++epoch) {
    auto expected = CollectProposed(
        dataset, kEpsilon, kEpochSeeds[epoch], MechanismKind::kHybrid,
        FrequencyOracleKind::kOue, &pool);
    ASSERT_TRUE(expected.ok());
    auto reports = session.num_reports(epoch);
    ASSERT_TRUE(reports.ok());
    EXPECT_EQ(reports.value(), kRows);
    for (size_t j = 0; j < expected.value().numeric_columns.size(); ++j) {
      auto mean = session.EstimateMean(
          expected.value().numeric_columns[j], epoch);
      ASSERT_TRUE(mean.ok());
      EXPECT_EQ(mean.value(), expected.value().estimated_means[j])
          << "epoch " << epoch << " attribute " << j;
    }
  }
}

TEST(NumericStreamTest, AdversarialFramesRejectedWithoutAbortingTheStream) {
  const data::Dataset dataset = MakeNumericData();
  auto config = api::PipelineConfig::FromSchema(dataset.schema(), kEpsilon);
  ASSERT_TRUE(config.ok());
  auto pipeline = api::Pipeline::Create(std::move(config).value());
  ASSERT_TRUE(pipeline.ok());
  auto client = pipeline.value().NewClient();
  ASSERT_TRUE(client.ok());

  std::string shard =
      WriteNumericShard(dataset, client.value(), IndexRange{0, 100});
  // A truncated numeric payload (half a report) framed as a whole frame, and
  // a frame that is a mixed-report payload rather than a numeric one: both
  // must bump `rejected` and leave the stream alive.
  Rng rng(5);
  const std::string good = EncodeSampledNumericReport(
      pipeline.value().numeric_mechanism()->Perturb({0.1, 0.2, 0.3, 0.4},
                                                    &rng));
  ASSERT_TRUE(
      stream::AppendFrame(good.substr(0, good.size() / 2), &shard).ok());
  ASSERT_TRUE(stream::AppendFrame("not a numeric report", &shard).ok());
  ASSERT_TRUE(stream::AppendFrame(good, &shard).ok());

  stream::ShardIngester ingester(pipeline.value().numeric_mechanism(),
                                 MechanismKind::kHybrid);
  ASSERT_TRUE(ingester.Feed(shard).ok());
  ASSERT_TRUE(ingester.Finish().ok());
  EXPECT_EQ(ingester.stats().accepted, 101u);
  EXPECT_EQ(ingester.stats().rejected, 2u);
  EXPECT_EQ(ingester.numeric_aggregator().num_reports(), 101u);
}

TEST(NumericStreamTest, WrongStreamKindHeaderIsRejectedUpFront) {
  const data::Dataset dataset = MakeNumericData();
  auto schema = api::AttributesFromSchema(dataset.schema());
  ASSERT_TRUE(schema.ok());
  auto collector =
      MixedTupleCollector::Create(std::move(schema).value(), kEpsilon);
  ASSERT_TRUE(collector.ok());
  const SampledNumericMechanism mechanism = MakeMechanism();

  // A mixed-kind stream fed to a numeric ingester (and vice versa) fails
  // header validation before any frame is decoded.
  const std::string mixed_header = stream::EncodeStreamHeader(
      stream::MakeMixedStreamHeader(collector.value()));
  stream::ShardIngester numeric_ingester(&mechanism, MechanismKind::kHybrid);
  EXPECT_FALSE(numeric_ingester.Feed(mixed_header).ok());

  const std::string numeric_header = stream::EncodeStreamHeader(
      stream::MakeNumericStreamHeader(mechanism, MechanismKind::kHybrid));
  stream::ShardIngester mixed_ingester(&collector.value());
  EXPECT_FALSE(mixed_ingester.Feed(numeric_header).ok());
}

TEST(NumericStreamTest, HandleDriverIngestsNumericShardsInParallel) {
  const data::Dataset dataset = MakeNumericData();
  auto config = api::PipelineConfig::FromSchema(dataset.schema(), kEpsilon);
  ASSERT_TRUE(config.ok());
  auto pipeline = api::Pipeline::Create(std::move(config).value());
  ASSERT_TRUE(pipeline.ok());
  auto client = pipeline.value().NewClient();
  ASSERT_TRUE(client.ok());

  constexpr unsigned kPoolThreads = 2;
  std::vector<std::string> shards;
  for (const IndexRange& range : SplitRange(kRows, kPoolThreads * 4)) {
    shards.push_back(WriteNumericShard(dataset, client.value(), range));
  }
  // Every shard open at once on a 3-worker session so they decode side by
  // side, then closed (merged) in shard order.
  api::ServerSessionOptions options;
  options.ingest_threads = 3;
  auto server = pipeline.value().NewServer(options);
  ASSERT_TRUE(server.ok());
  api::ServerSession& session = server.value();
  std::vector<size_t> ids;
  for (size_t s = 0; s < shards.size(); ++s) ids.push_back(session.OpenShard());
  for (size_t s = 0; s < shards.size(); ++s) {
    ASSERT_TRUE(session.Feed(ids[s], shards[s]).ok());
  }
  uint64_t accepted = 0, rejected = 0;
  for (const size_t id : ids) {
    ASSERT_TRUE(session.CloseShard(id).ok());
    auto stats = session.ShardStats(id);
    ASSERT_TRUE(stats.ok());
    accepted += stats.value().accepted;
    rejected += stats.value().rejected;
  }
  auto reports = session.num_reports(0);
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(reports.value(), kRows);
  EXPECT_EQ(accepted, kRows);
  EXPECT_EQ(rejected, 0u);

  ThreadPool collect_pool(kPoolThreads);
  auto expected = CollectProposed(dataset, kEpsilon, kSeed,
                                             MechanismKind::kHybrid,
                                             FrequencyOracleKind::kOue,
                                             &collect_pool);
  ASSERT_TRUE(expected.ok());
  for (size_t j = 0; j < expected.value().numeric_columns.size(); ++j) {
    auto mean =
        session.EstimateMean(expected.value().numeric_columns[j], 0);
    ASSERT_TRUE(mean.ok());
    EXPECT_EQ(mean.value(), expected.value().estimated_means[j]);
  }
}

}  // namespace
}  // namespace ldp

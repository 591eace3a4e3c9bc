// End-to-end equivalence of the deployment split: privatizing users into
// framed shard streams (the ldp_report path), then feeding the shards into
// one api::ServerSession that decodes them concurrently and merges them in
// shard order (the engine under ldp_aggregate and every transport), must
// reproduce the in-process Pipeline::Collect simulation BIT FOR BIT — same
// seeds, same chunk boundaries, same estimates, regardless of how many
// threads either side uses. ServerSession::IngestInputs, the file-input
// entry point ldp_aggregate calls, is pinned against this Feed/CloseShard path
// in server_session_test.cc.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "api/pipeline.h"
#include "api/server_session.h"
#include "data/census.h"
#include "data/encode.h"
#include "stream/report_stream.h"
#include "stream/shard_ingester.h"
#include "stream/snapshot.h"
#include "util/threadpool.h"

namespace ldp {
namespace {

constexpr double kEpsilon = 4.0;
constexpr uint64_t kSeed = 123;
constexpr uint64_t kRows = 4000;

data::Dataset MakeData() {
  auto dataset = data::MakeBrazilCensus(kRows, 7);
  EXPECT_TRUE(dataset.ok());
  return data::NormalizeNumeric(dataset.value());
}

// The paper's configuration (HM numeric mechanism, OUE oracle) over the
// dataset's schema: the in-process golden run and every server session
// below share it.
api::Pipeline MakePipeline(const data::Dataset& dataset) {
  api::PipelineConfig config;
  config.epsilon = kEpsilon;
  config.mechanism = MechanismKind::kHybrid;
  config.oracle = FrequencyOracleKind::kOue;
  auto attributes = api::AttributesFromSchema(dataset.schema());
  EXPECT_TRUE(attributes.ok());
  config.attributes = std::move(attributes).value();
  auto pipeline = api::Pipeline::Create(std::move(config));
  EXPECT_TRUE(pipeline.ok());
  return std::move(pipeline).value();
}

// The in-process golden run every deployment shape must reproduce.
api::CollectionOutput CollectProposed(const api::Pipeline& pipeline,
                                      const data::Dataset& dataset,
                                      ThreadPool* pool) {
  auto output = pipeline.Collect(dataset, kSeed, pool);
  EXPECT_TRUE(output.ok());
  return std::move(output).value();
}

// The client half: privatizes rows [range.begin, range.end) into one framed
// stream, exactly as tools/ldp_report does.
std::string WriteShard(const data::Dataset& dataset,
                       const MixedTupleCollector& collector,
                       IndexRange range) {
  std::ostringstream out;
  stream::ReportStreamWriter writer(&out,
                                    stream::MakeMixedStreamHeader(collector));
  const data::Schema& schema = dataset.schema();
  const uint32_t d = schema.num_columns();
  MixedTuple tuple(d);
  for (uint64_t row = range.begin; row < range.end; ++row) {
    for (uint32_t col = 0; col < d; ++col) {
      if (schema.column(col).type == data::ColumnType::kNumeric) {
        tuple[col].numeric = dataset.numeric(row, col);
      } else {
        tuple[col].category = dataset.category(row, col);
      }
    }
    Rng rng = api::UserRng(kSeed, row);
    EXPECT_TRUE(
        writer.WriteMixedReport(collector.Perturb(tuple, &rng), collector)
            .ok());
  }
  return out.str();
}

// Shard streams whose boundaries match a ParallelFor run on `pool_threads`
// workers (ParallelFor splits into threads*4 chunks).
std::vector<std::string> WriteShards(const data::Dataset& dataset,
                                     const MixedTupleCollector& collector,
                                     unsigned pool_threads) {
  std::vector<std::string> shards;
  for (const IndexRange range :
       SplitRange(dataset.num_rows(), pool_threads * 4)) {
    shards.push_back(WriteShard(dataset, collector, range));
  }
  return shards;
}

// The server half: every shard opened on `session` up front (so a
// concurrent session decodes them side by side), fed whole, then closed in
// shard order. Returns the shards' summed stats.
stream::ShardIngester::Stats FeedShards(
    api::ServerSession* session, const std::vector<std::string>& shards) {
  std::vector<size_t> ids;
  for (size_t s = 0; s < shards.size(); ++s) {
    ids.push_back(session->OpenShard());
  }
  for (size_t s = 0; s < shards.size(); ++s) {
    EXPECT_TRUE(session->Feed(ids[s], shards[s]).ok());
  }
  stream::ShardIngester::Stats totals;
  for (const size_t id : ids) {
    EXPECT_TRUE(session->CloseShard(id).ok());
    auto stats = session->ShardStats(id);
    EXPECT_TRUE(stats.ok());
    totals.accepted += stats.value().accepted;
    totals.rejected += stats.value().rejected;
  }
  return totals;
}

void ExpectBitIdentical(const api::ServerSession& session,
                        const api::CollectionOutput& expected) {
  for (size_t j = 0; j < expected.numeric_columns.size(); ++j) {
    auto mean = session.EstimateMean(expected.numeric_columns[j], 0);
    ASSERT_TRUE(mean.ok());
    EXPECT_EQ(mean.value(), expected.estimated_means[j]) << "attribute " << j;
  }
  for (size_t c = 0; c < expected.categorical_columns.size(); ++c) {
    auto freqs =
        session.EstimateFrequencies(expected.categorical_columns[c], 0);
    ASSERT_TRUE(freqs.ok());
    ASSERT_EQ(freqs.value().size(), expected.estimated_frequencies[c].size());
    for (size_t v = 0; v < freqs.value().size(); ++v) {
      EXPECT_EQ(freqs.value()[v], expected.estimated_frequencies[c][v])
          << "attribute " << c << " value " << v;
    }
  }
}

TEST(StreamEndToEndTest, ShardedIngestReproducesCollectProposedBitForBit) {
  const data::Dataset dataset = MakeData();
  const api::Pipeline pipeline = MakePipeline(dataset);

  constexpr unsigned kPoolThreads = 2;
  ThreadPool pool(kPoolThreads);
  const api::CollectionOutput expected =
      CollectProposed(pipeline, dataset, &pool);

  const std::vector<std::string> shards =
      WriteShards(dataset, pipeline.mixed_collector(), kPoolThreads);
  ASSERT_GE(shards.size(), 2u);

  // The server ingests the shards with various thread counts — including
  // more ingest workers than shards — and always lands on the same bits.
  for (const unsigned server_threads : {0u, 3u, 16u}) {
    api::ServerSessionOptions options;
    options.ingest_threads = server_threads;
    auto server = pipeline.NewServer(options);
    ASSERT_TRUE(server.ok());
    const stream::ShardIngester::Stats totals =
        FeedShards(&server.value(), shards);
    auto reports = server.value().num_reports(0);
    ASSERT_TRUE(reports.ok());
    EXPECT_EQ(reports.value(), kRows);
    EXPECT_EQ(totals.accepted, kRows);
    EXPECT_EQ(totals.rejected, 0u);
    ExpectBitIdentical(server.value(), expected);
  }
}

TEST(StreamEndToEndTest, SnapshotReductionReproducesCollectProposed) {
  const data::Dataset dataset = MakeData();
  const api::Pipeline pipeline = MakePipeline(dataset);
  const MixedTupleCollector& collector = pipeline.mixed_collector();

  constexpr unsigned kPoolThreads = 2;
  ThreadPool pool(kPoolThreads);
  const api::CollectionOutput expected =
      CollectProposed(pipeline, dataset, &pool);

  // Each shard is ingested on its own "machine", snapshotted to bytes, and
  // merged into the reducer's session in shard order.
  auto reducer = pipeline.NewServer();
  ASSERT_TRUE(reducer.ok());
  for (const std::string& shard :
       WriteShards(dataset, collector, kPoolThreads)) {
    stream::ShardIngester ingester(&collector);
    ASSERT_TRUE(ingester.Feed(shard).ok());
    ASSERT_TRUE(ingester.Finish().ok());
    ASSERT_TRUE(reducer.value()
                    .Merge(stream::EncodeAggregatorSnapshot(
                        ingester.aggregator()))
                    .ok());
  }
  auto reports = reducer.value().num_reports(0);
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(reports.value(), kRows);
  ExpectBitIdentical(reducer.value(), expected);
}

TEST(StreamEndToEndTest, CollectProposedIsDeterministicPerThreadCount) {
  const data::Dataset dataset = MakeData();
  const api::Pipeline pipeline = MakePipeline(dataset);
  ThreadPool pool_a(3), pool_b(3);
  const api::CollectionOutput run_a =
      CollectProposed(pipeline, dataset, &pool_a);
  const api::CollectionOutput run_b =
      CollectProposed(pipeline, dataset, &pool_b);
  EXPECT_EQ(run_a.estimated_means, run_b.estimated_means);
  EXPECT_EQ(run_a.estimated_frequencies, run_b.estimated_frequencies);
}

TEST(StreamEndToEndTest, CorruptShardDoesNotPoisonTheRun) {
  const data::Dataset dataset = MakeData();
  const api::Pipeline pipeline = MakePipeline(dataset);
  std::vector<std::string> shards =
      WriteShards(dataset, pipeline.mixed_collector(), 1);
  ASSERT_FALSE(shards.empty());
  // Append a garbage frame: the ingest keeps going and reports it rejected.
  std::string garbage;
  ASSERT_TRUE(stream::AppendFrame("garbage payload", &garbage).ok());
  shards.back() += garbage;
  auto server = pipeline.NewServer();
  ASSERT_TRUE(server.ok());
  const stream::ShardIngester::Stats totals =
      FeedShards(&server.value(), shards);
  auto reports = server.value().num_reports(0);
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(reports.value(), kRows);
  EXPECT_EQ(totals.rejected, 1u);
}

}  // namespace
}  // namespace ldp

// Determinism and stress harness for concurrent intra-epoch ingest in
// api::ServerSession: a session with an ingest pool must reproduce the
// serial session — and the in-process Pipeline::Collect run — bit for bit at
// every thread count, under interleaved chunked feeds, multiple producer
// threads, and repeated runs; and the PrivacyAccountant must stay exact when
// AdvanceEpoch races other session calls. The TSan CI job runs this file to
// verify the absence of data races, so test bodies deliberately share
// nothing beyond the session under test.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "api/pipeline.h"
#include "api/server_session.h"
#include "data/census.h"
#include "data/encode.h"
#include "stream/report_stream.h"
#include "stream_test_util.h"
#include "util/threadpool.h"

namespace ldp {
namespace {

constexpr double kEpsilon = 4.0;
constexpr uint64_t kRows = 1000;
constexpr uint64_t kSeed = 77;
// Shard boundaries mirror a kPoolThreads-pooled run's ParallelFor chunks
// (threads x 4), the repo's bit-reproduction contract for sharded ingestion.
constexpr unsigned kPoolThreads = 2;
constexpr size_t kShards = kPoolThreads * 4;

data::Dataset MakeData() {
  auto dataset = data::MakeBrazilCensus(kRows, 3);
  EXPECT_TRUE(dataset.ok());
  return data::NormalizeNumeric(dataset.value());
}

api::Pipeline MakePipeline(const data::Dataset& dataset, uint32_t epochs) {
  auto config = api::PipelineConfig::FromSchema(dataset.schema(), kEpsilon);
  EXPECT_TRUE(config.ok());
  config.value().plan.epochs = epochs;
  auto pipeline = api::Pipeline::Create(std::move(config).value());
  EXPECT_TRUE(pipeline.ok());
  return std::move(pipeline).value();
}

api::ServerSession MakeServer(const api::Pipeline& pipeline,
                              unsigned ingest_threads) {
  api::ServerSessionOptions options;
  options.ingest_threads = ingest_threads;
  auto server = pipeline.NewServer(options);
  EXPECT_TRUE(server.ok());
  return std::move(server).value();
}

// One epoch's worth of shard streams whose boundaries split the population
// `num_shards` ways.
std::vector<std::string> WriteShards(const data::Dataset& dataset,
                                     const api::ClientSession& client,
                                     uint64_t seed, size_t num_shards) {
  const data::Schema& schema = dataset.schema();
  const uint32_t d = schema.num_columns();
  std::vector<std::string> shards;
  for (const IndexRange range : SplitRange(dataset.num_rows(), num_shards)) {
    std::string shard = client.EncodeHeader();
    MixedTuple tuple(d);
    for (uint64_t row = range.begin; row < range.end; ++row) {
      for (uint32_t col = 0; col < d; ++col) {
        if (schema.column(col).type == data::ColumnType::kNumeric) {
          tuple[col].numeric = dataset.numeric(row, col);
        } else {
          tuple[col].category = dataset.category(row, col);
        }
      }
      Rng rng = api::UserRng(seed, row);
      auto payload = client.EncodeReport(tuple, &rng);
      EXPECT_TRUE(payload.ok());
      EXPECT_TRUE(stream::AppendFrame(payload.value(), &shard).ok());
    }
    shards.push_back(std::move(shard));
  }
  return shards;
}

using ldp::testing::FeedShardsInterleaved;
using ldp::testing::NextLcg;

// Reference path: every shard fed as one chunk, closed immediately.
void FeedWholeShards(api::ServerSession* session,
                     const std::vector<std::string>& shards) {
  for (const std::string& bytes : shards) {
    const size_t shard = session->OpenShard();
    ASSERT_TRUE(session->Feed(shard, bytes).ok());
    ASSERT_TRUE(session->CloseShard(shard).ok());
  }
}

// Adversarially interleaved path: all shards open at once, fed round-robin
// in pseudo-random chunk sizes (so frame boundaries straddle chunks), closed
// in shard-id order. One producer thread.
void FeedInterleaved(api::ServerSession* session,
                     const std::vector<std::string>& shards,
                     uint64_t chunk_seed) {
  std::vector<size_t> ids;
  std::vector<const std::string*> streams;
  ids.reserve(shards.size());
  for (const std::string& shard : shards) {
    ids.push_back(session->OpenShard());
    streams.push_back(&shard);
  }
  ASSERT_TRUE(
      FeedShardsInterleaved(session, ids, streams, chunk_seed).ok());
  for (const size_t id : ids) {
    ASSERT_TRUE(session->CloseShard(id).ok());
  }
}

void ExpectSameEstimates(const api::ServerSession& a,
                         const api::ServerSession& b, uint32_t epoch) {
  auto ea = a.Estimate(epoch);
  auto eb = b.Estimate(epoch);
  ASSERT_TRUE(ea.ok() && eb.ok());
  EXPECT_EQ(ea.value().num_reports, eb.value().num_reports);
  EXPECT_EQ(ea.value().means, eb.value().means);
  EXPECT_EQ(ea.value().frequencies, eb.value().frequencies);
}

TEST(ConcurrentSessionTest, SnapshotsAreBitIdenticalToSerialAtAnyThreadCount) {
  const data::Dataset dataset = MakeData();
  const api::Pipeline pipeline = MakePipeline(dataset, 1);
  auto client = pipeline.NewClient();
  ASSERT_TRUE(client.ok());
  const std::vector<std::string> shards =
      WriteShards(dataset, client.value(), kSeed, kShards);

  api::ServerSession reference = MakeServer(pipeline, 0);
  FeedWholeShards(&reference, shards);
  const std::string reference_snapshot = reference.Snapshot();

  for (const unsigned threads : {1u, 2u, 8u}) {
    api::ServerSession session = MakeServer(pipeline, threads);
    FeedInterleaved(&session, shards, /*chunk_seed=*/1000 + threads);
    EXPECT_EQ(session.Snapshot(), reference_snapshot)
        << "ingest_threads=" << threads;
    ExpectSameEstimates(session, reference, 0);
  }
}

TEST(ConcurrentSessionTest, MatchesInProcessCollectBitForBit) {
  const data::Dataset dataset = MakeData();
  const api::Pipeline pipeline = MakePipeline(dataset, 1);
  auto client = pipeline.NewClient();
  ASSERT_TRUE(client.ok());

  ThreadPool pool(kPoolThreads);
  auto expected = pipeline.Collect(dataset, kSeed, &pool);
  ASSERT_TRUE(expected.ok());

  api::ServerSession session = MakeServer(pipeline, 8);
  FeedInterleaved(&session, WriteShards(dataset, client.value(), kSeed,
                                        kShards),
                  /*chunk_seed=*/9);
  for (size_t j = 0; j < expected.value().numeric_columns.size(); ++j) {
    auto mean = session.EstimateMean(expected.value().numeric_columns[j], 0);
    ASSERT_TRUE(mean.ok());
    EXPECT_EQ(mean.value(), expected.value().estimated_means[j]);
  }
  for (size_t c = 0; c < expected.value().categorical_columns.size(); ++c) {
    auto freqs = session.EstimateFrequencies(
        expected.value().categorical_columns[c], 0);
    ASSERT_TRUE(freqs.ok());
    EXPECT_EQ(freqs.value(), expected.value().estimated_frequencies[c]);
  }
}

TEST(ConcurrentSessionTest, MultipleProducerThreadsReproduceTheSerialRun) {
  const data::Dataset dataset = MakeData();
  const api::Pipeline pipeline = MakePipeline(dataset, 1);
  auto client = pipeline.NewClient();
  ASSERT_TRUE(client.ok());
  const std::vector<std::string> shards =
      WriteShards(dataset, client.value(), kSeed, kShards);

  api::ServerSession reference = MakeServer(pipeline, 0);
  FeedWholeShards(&reference, shards);

  api::ServerSession session = MakeServer(pipeline, 4);
  std::vector<size_t> ids;
  ids.reserve(shards.size());
  for (size_t s = 0; s < shards.size(); ++s) {
    ids.push_back(session.OpenShard());
  }
  // Each producer owns a disjoint pair of shards (per-shard call order must
  // be externally defined), feeding them in interleaved small chunks.
  constexpr size_t kProducers = 4;
  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([p, &session, &ids, &shards] {
      const size_t per_producer = shards.size() / kProducers;
      std::vector<size_t> mine;
      std::vector<const std::string*> streams;
      for (size_t i = 0; i < per_producer; ++i) {
        mine.push_back(ids[p * per_producer + i]);
        streams.push_back(&shards[p * per_producer + i]);
      }
      EXPECT_TRUE(FeedShardsInterleaved(&session, mine, streams,
                                        /*chunk_seed=*/555 + p,
                                        /*max_chunk=*/512)
                      .ok());
    });
  }
  for (std::thread& producer : producers) producer.join();
  for (const size_t id : ids) {
    ASSERT_TRUE(session.CloseShard(id).ok());
  }

  EXPECT_EQ(session.Snapshot(), reference.Snapshot());
  ExpectSameEstimates(session, reference, 0);
}

TEST(ConcurrentSessionTest, RepeatedRunsAreSchedulingIndependent) {
  const data::Dataset dataset = MakeData();
  const api::Pipeline pipeline = MakePipeline(dataset, 1);
  auto client = pipeline.NewClient();
  ASSERT_TRUE(client.ok());
  const std::vector<std::string> shards =
      WriteShards(dataset, client.value(), kSeed, kShards);

  // Different chunkings, different runs, same pool size: the snapshot may
  // depend on none of it.
  std::string first;
  for (int run = 0; run < 3; ++run) {
    api::ServerSession session = MakeServer(pipeline, 8);
    FeedInterleaved(&session, shards, /*chunk_seed=*/7000 + run);
    if (run == 0) {
      first = session.Snapshot();
    } else {
      EXPECT_EQ(session.Snapshot(), first) << "run " << run;
    }
  }
}

TEST(ConcurrentSessionTest, NumericStreamsAreBitIdenticalToSerial) {
  // The Algorithm-4 numeric stream kind goes through its own frame decoder
  // and aggregator; the concurrency contract must hold there too.
  auto schema = data::Schema::Create({data::ColumnSpec::Numeric("x", -1, 1),
                                      data::ColumnSpec::Numeric("y", -1, 1),
                                      data::ColumnSpec::Numeric("z", -1, 1)});
  ASSERT_TRUE(schema.ok());
  auto config = api::PipelineConfig::FromSchema(schema.value(), kEpsilon);
  ASSERT_TRUE(config.ok());
  auto pipeline = api::Pipeline::Create(std::move(config).value());
  ASSERT_TRUE(pipeline.ok());
  ASSERT_EQ(pipeline.value().stream_kind(),
            stream::ReportStreamKind::kSampledNumeric);
  auto client = pipeline.value().NewClient();
  ASSERT_TRUE(client.ok());

  std::vector<std::string> shards;
  for (const IndexRange range : SplitRange(600, 4)) {
    std::string shard = client.value().EncodeHeader();
    for (uint64_t row = range.begin; row < range.end; ++row) {
      Rng rng = api::UserRng(kSeed, row);
      auto payload = client.value().EncodeReport(
          std::vector<double>{0.5, -0.25, 0.125}, &rng);
      ASSERT_TRUE(payload.ok());
      ASSERT_TRUE(stream::AppendFrame(payload.value(), &shard).ok());
    }
    shards.push_back(std::move(shard));
  }

  api::ServerSession reference = MakeServer(pipeline.value(), 0);
  FeedWholeShards(&reference, shards);
  api::ServerSession session = MakeServer(pipeline.value(), 4);
  FeedInterleaved(&session, shards, /*chunk_seed=*/17);
  EXPECT_EQ(session.Snapshot(), reference.Snapshot());
  ExpectSameEstimates(session, reference, 0);
}

TEST(ConcurrentSessionTest, AccountantIsExactUnderConcurrentAdvance) {
  const data::Dataset dataset = MakeData();
  constexpr uint32_t kPlannedEpochs = 4;
  const api::Pipeline pipeline = MakePipeline(dataset, kPlannedEpochs);
  api::ServerSession session = MakeServer(pipeline, 4);

  // Epoch 0 is charged at session creation; exactly kPlannedEpochs - 1 more
  // advances can succeed no matter how many threads race for them.
  std::atomic<int> advanced{0};
  std::atomic<int> refused{0};
  std::vector<std::thread> contenders;
  for (int t = 0; t < 8; ++t) {
    contenders.emplace_back([&session, &advanced, &refused] {
      for (int attempt = 0; attempt < 8; ++attempt) {
        const Status status = session.AdvanceEpoch();
        if (status.ok()) {
          advanced.fetch_add(1);
        } else {
          EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
          refused.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& contender : contenders) contender.join();

  EXPECT_EQ(advanced.load(), static_cast<int>(kPlannedEpochs) - 1);
  EXPECT_EQ(refused.load(), 8 * 8 - (static_cast<int>(kPlannedEpochs) - 1));
  EXPECT_EQ(session.num_epochs(), kPlannedEpochs);
  // The spend is exact — no double charge and no partial charge leaked from
  // a refused advance.
  EXPECT_EQ(session.epsilon_spent(), kPlannedEpochs * kEpsilon);
  EXPECT_FALSE(session.AdvanceEpoch().ok());
}

TEST(ConcurrentSessionTest, AdvanceEpochIsRefusedWhileFeedsAreInFlight) {
  const data::Dataset dataset = MakeData();
  const api::Pipeline pipeline = MakePipeline(dataset, 2);
  auto client = pipeline.NewClient();
  ASSERT_TRUE(client.ok());
  const std::vector<std::string> shards =
      WriteShards(dataset, client.value(), kSeed, 1);

  api::ServerSession session = MakeServer(pipeline, 2);
  const size_t shard = session.OpenShard();
  ASSERT_TRUE(session.Feed(shard, shards[0]).ok());
  // The shard is open (its chunks may still be decoding on the pool):
  // advancing must refuse and charge nothing.
  EXPECT_FALSE(session.AdvanceEpoch().ok());
  EXPECT_EQ(session.epsilon_spent(), kEpsilon);
  ASSERT_TRUE(session.CloseShard(shard).ok());
  EXPECT_TRUE(session.AdvanceEpoch().ok());
  EXPECT_EQ(session.epsilon_spent(), 2 * kEpsilon);
}

TEST(ConcurrentSessionTest, ShardStatsIsADrainPoint) {
  const data::Dataset dataset = MakeData();
  const api::Pipeline pipeline = MakePipeline(dataset, 1);
  auto client = pipeline.NewClient();
  ASSERT_TRUE(client.ok());
  const std::vector<std::string> shards =
      WriteShards(dataset, client.value(), kSeed, 1);

  api::ServerSession session = MakeServer(pipeline, 4);
  const size_t shard = session.OpenShard();
  ASSERT_TRUE(session.Feed(shard, shards[0]).ok());
  // Immediately after the (asynchronous) Feed returns, the stats must
  // already cover every byte fed — ShardStats drains the shard's queue.
  auto stats = session.ShardStats(shard);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().accepted, kRows);
  EXPECT_EQ(stats.value().bytes, shards[0].size());
  ASSERT_TRUE(session.CloseShard(shard).ok());
}

TEST(ConcurrentSessionTest, AsyncFramingErrorPoisonsOnlyItsShard) {
  const data::Dataset dataset = MakeData();
  const api::Pipeline pipeline = MakePipeline(dataset, 1);
  auto client = pipeline.NewClient();
  ASSERT_TRUE(client.ok());
  const std::vector<std::string> shards =
      WriteShards(dataset, client.value(), kSeed, 2);

  api::ServerSession reference = MakeServer(pipeline, 0);
  FeedWholeShards(&reference, shards);

  api::ServerSession session = MakeServer(pipeline, 4);
  const size_t honest0 = session.OpenShard();
  const size_t poisoned = session.OpenShard();
  const size_t honest1 = session.OpenShard();
  ASSERT_TRUE(session.Feed(honest0, shards[0]).ok());
  ASSERT_TRUE(
      session.Feed(poisoned, std::string(64, 'x')).ok());  // bad magic
  ASSERT_TRUE(session.Feed(honest1, shards[1]).ok());

  // After the drain the worker-side framing error is sticky: later feeds
  // are refused without enqueueing.
  ASSERT_TRUE(session.ShardStats(poisoned).ok());
  EXPECT_FALSE(session.Feed(poisoned, std::string("more")).ok());
  EXPECT_FALSE(session.CloseShard(poisoned).ok());
  ASSERT_TRUE(session.CloseShard(honest0).ok());
  ASSERT_TRUE(session.CloseShard(honest1).ok());

  // The poisoned shard contributed nothing: totals equal the honest run.
  EXPECT_EQ(session.Snapshot(), reference.Snapshot());
  ExpectSameEstimates(session, reference, 0);
}

TEST(ConcurrentSessionTest, BackpressureBoundPreservesResultsWithoutDeadlock) {
  const data::Dataset dataset = MakeData();
  const api::Pipeline pipeline = MakePipeline(dataset, 1);
  auto client = pipeline.NewClient();
  ASSERT_TRUE(client.ok());
  const std::vector<std::string> shards =
      WriteShards(dataset, client.value(), kSeed, kShards);

  api::ServerSession reference = MakeServer(pipeline, 0);
  FeedWholeShards(&reference, shards);

  // A bound far below the shard size forces Feed to block on the decoding
  // workers constantly; results must be unaffected and nothing may wedge.
  api::ServerSessionOptions options;
  options.ingest_threads = 2;
  options.max_pending_feed_bytes = 512;
  auto server = pipeline.NewServer(options);
  ASSERT_TRUE(server.ok());
  FeedInterleaved(&server.value(), shards, /*chunk_seed=*/31);
  EXPECT_EQ(server.value().Snapshot(), reference.Snapshot());
  ExpectSameEstimates(server.value(), reference, 0);
}

TEST(ConcurrentSessionTest, SmallChunksQueueBehindAPendingLargeOne) {
  // A chunk of at least kInlineFeedBytes always queues on the pool; a small
  // chunk fed right behind it finds it pending and must queue too rather
  // than decode inline ahead of it. Alternating large and small chunks over
  // whole shards pins that: any overtaking would tear frames apart.
  auto census = data::MakeBrazilCensus(8000, 3);
  ASSERT_TRUE(census.ok());
  const data::Dataset dataset = data::NormalizeNumeric(census.value());
  const api::Pipeline pipeline = MakePipeline(dataset, 1);
  auto client = pipeline.NewClient();
  ASSERT_TRUE(client.ok());
  const std::vector<std::string> shards =
      WriteShards(dataset, client.value(), kSeed, 2);
  for (const std::string& shard : shards) {
    ASSERT_GT(shard.size(), 4 * api::kInlineFeedBytes);
  }

  api::ServerSession reference = MakeServer(pipeline, 0);
  FeedWholeShards(&reference, shards);

  const size_t pattern[] = {api::kInlineFeedBytes, 97,
                            2 * api::kInlineFeedBytes + 5, 1,
                            api::kInlineFeedBytes + 1, 300};
  for (const unsigned threads : {2u, 4u}) {
    api::ServerSession session = MakeServer(pipeline, threads);
    std::vector<size_t> ids;
    std::vector<size_t> offsets(shards.size(), 0);
    for (size_t s = 0; s < shards.size(); ++s) {
      ids.push_back(session.OpenShard());
    }
    for (size_t step = 0, left = 1; left > 0; ++step) {
      left = 0;
      for (size_t s = 0; s < shards.size(); ++s) {
        const size_t take = std::min(pattern[step % std::size(pattern)],
                                     shards[s].size() - offsets[s]);
        ASSERT_TRUE(
            session.Feed(ids[s], shards[s].data() + offsets[s], take).ok());
        offsets[s] += take;
        left += shards[s].size() - offsets[s];
      }
    }
    for (const size_t id : ids) {
      ASSERT_TRUE(session.CloseShard(id).ok());
    }
    EXPECT_EQ(session.Snapshot(), reference.Snapshot())
        << "ingest_threads=" << threads;
    ExpectSameEstimates(session, reference, 0);
  }
}

TEST(ConcurrentSessionTest, DrainPointsRaceSmallChunkFeedsOnOtherShards) {
  // Producers feed honest shards in inline-sized chunks while another
  // thread drives ShardStats, AbandonShard and CloseShard on decoy shards
  // that are themselves fed inline. The drain points must wait out inline
  // decodes (TSan checks the handoff), and the decoys contribute nothing.
  const data::Dataset dataset = MakeData();
  const api::Pipeline pipeline = MakePipeline(dataset, 1);
  auto client = pipeline.NewClient();
  ASSERT_TRUE(client.ok());
  const std::vector<std::string> shards =
      WriteShards(dataset, client.value(), kSeed, kShards);

  api::ServerSession reference = MakeServer(pipeline, 0);
  FeedWholeShards(&reference, shards);

  api::ServerSession session = MakeServer(pipeline, 2);
  std::vector<size_t> ids;
  for (size_t s = 0; s < shards.size(); ++s) {
    ids.push_back(session.OpenShard());
  }
  std::atomic<size_t> producers_running{2};
  std::thread decoys([&session, &shards, &producers_running] {
    for (size_t round = 0; round < 4 || producers_running.load() > 0;
         ++round) {
      const std::string& honest = shards[round % shards.size()];
      const size_t abandoned = session.OpenShard();
      EXPECT_TRUE(FeedShardsInterleaved(&session, {abandoned}, {&honest},
                                        /*chunk_seed=*/900 + round,
                                        /*max_chunk=*/256)
                      .ok());
      auto stats = session.ShardStats(abandoned);
      ASSERT_TRUE(stats.ok());
      EXPECT_EQ(stats.value().bytes, honest.size());
      auto final_stats = session.AbandonShard(abandoned);
      ASSERT_TRUE(final_stats.ok());
      EXPECT_EQ(final_stats.value().bytes, honest.size());

      const size_t poisoned = session.OpenShard();
      EXPECT_TRUE(session.Feed(poisoned, std::string(64, 'x')).ok());
      EXPECT_FALSE(session.CloseShard(poisoned).ok());
    }
  });
  std::vector<std::thread> producers;
  for (size_t p = 0; p < 2; ++p) {
    producers.emplace_back([p, &session, &ids, &shards, &producers_running] {
      std::vector<size_t> mine;
      std::vector<const std::string*> streams;
      for (size_t s = p; s < shards.size(); s += 2) {
        mine.push_back(ids[s]);
        streams.push_back(&shards[s]);
      }
      EXPECT_TRUE(FeedShardsInterleaved(&session, mine, streams,
                                        /*chunk_seed=*/321 + p,
                                        /*max_chunk=*/128)
                      .ok());
      producers_running.fetch_sub(1);
    });
  }
  for (std::thread& producer : producers) producer.join();
  decoys.join();
  for (const size_t id : ids) {
    ASSERT_TRUE(session.CloseShard(id).ok());
  }

  EXPECT_EQ(session.Snapshot(), reference.Snapshot());
  ExpectSameEstimates(session, reference, 0);
}

TEST(ConcurrentSessionTest, AbandonWaitsOutAnInFlightInlineDecode) {
  // A drain point racing small-chunk Feeds on the *same* shard: each Feed
  // either decodes inline before the detach, and the drain waits it out,
  // or finds the shard closed. The ingester is never read or freed
  // mid-decode (TSan and ASan check that), and the abandoned shard
  // contributes nothing.
  const data::Dataset dataset = MakeData();
  const api::Pipeline pipeline = MakePipeline(dataset, 1);
  auto client = pipeline.NewClient();
  ASSERT_TRUE(client.ok());
  const std::string bytes =
      WriteShards(dataset, client.value(), kSeed, 1).front();

  api::ServerSession session = MakeServer(pipeline, 2);
  const std::string empty_snapshot = session.Snapshot();
  const size_t shard = session.OpenShard();
  std::atomic<size_t> fed_bytes{0};
  std::thread feeder([&session, &bytes, &fed_bytes, shard] {
    for (size_t offset = 0; offset < bytes.size(); offset += 16) {
      const size_t take = std::min<size_t>(16, bytes.size() - offset);
      const Status fed = session.Feed(shard, bytes.data() + offset, take);
      if (!fed.ok()) {
        EXPECT_EQ(fed.code(), StatusCode::kFailedPrecondition);
        return;
      }
      fed_bytes.fetch_add(take);
    }
  });
  while (fed_bytes.load() == 0) std::this_thread::yield();
  auto stats = session.AbandonShard(shard);
  feeder.join();
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats.value().bytes, 0u);
  EXPECT_LE(stats.value().bytes, fed_bytes.load());
  EXPECT_EQ(session.Snapshot(), empty_snapshot);
}

TEST(ConcurrentSessionTest, FeedAfterCloseFails) {
  const data::Dataset dataset = MakeData();
  const api::Pipeline pipeline = MakePipeline(dataset, 1);
  auto client = pipeline.NewClient();
  ASSERT_TRUE(client.ok());
  const std::vector<std::string> shards =
      WriteShards(dataset, client.value(), kSeed, 1);

  api::ServerSession session = MakeServer(pipeline, 2);
  const size_t shard = session.OpenShard();
  ASSERT_TRUE(session.Feed(shard, shards[0]).ok());
  ASSERT_TRUE(session.CloseShard(shard).ok());
  EXPECT_FALSE(session.Feed(shard, shards[0]).ok());
  EXPECT_FALSE(session.CloseShard(shard).ok());
}

}  // namespace
}  // namespace ldp

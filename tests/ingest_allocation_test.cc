// Proof of the zero-copy ingest contract: once an ingester is warmed up,
// feeding further frames must perform ZERO heap allocations on the accept
// path — no MixedReport materialization, no payload vectors, no staging
// growth. Verified with replaced global operator new/delete that count every
// allocation in the process (each gtest case runs in its own process under
// ctest, so the counter observes only this test).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>

#include "allocation_counter.h"
#include "api/pipeline.h"
#include "api/server_session.h"
#include "core/mixed_collector.h"
#include "data/schema.h"
#include "stream/report_stream.h"
#include "stream/shard_ingester.h"
#include "util/random.h"

namespace {

std::atomic<uint64_t> g_allocation_count{0};

}  // namespace

// Replaceable global allocation functions (count, then defer to malloc).
// operator new[] and the sized/unsized deletes forward here per the
// standard's default definitions.
void* operator new(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

uint64_t HeapAllocationCount() {
  return g_allocation_count.load(std::memory_order_relaxed);
}

namespace ldp::stream {
namespace {

MixedTupleCollector MakeCollector() {
  auto collector = MixedTupleCollector::Create(
      {MixedAttribute::Numeric(), MixedAttribute::Categorical(8),
       MixedAttribute::Numeric(), MixedAttribute::Categorical(16),
       MixedAttribute::Numeric(), MixedAttribute::Categorical(32)},
      4.0);
  EXPECT_TRUE(collector.ok());
  return std::move(collector).value();
}

std::string MakeStream(const MixedTupleCollector& collector, int reports) {
  std::ostringstream out;
  ReportStreamWriter writer(&out, MakeMixedStreamHeader(collector));
  MixedTuple tuple(collector.dimension());
  for (uint32_t j = 0; j < collector.dimension(); ++j) {
    if (collector.schema()[j].type == AttributeType::kNumeric) {
      tuple[j] = AttributeValue::Numeric(0.5);
    } else {
      tuple[j] = AttributeValue::Categorical(
          j % collector.schema()[j].domain_size);
    }
  }
  // Lead with the worst-case frame (a full unary payload on the widest
  // categorical attribute), so the warm-up phase provably sees the largest
  // staging/scratch demand any later frame can pose.
  MixedReport max_report(1);
  max_report[0].attribute = 5;  // Categorical(32)
  for (uint32_t bit = 0; bit < 32; ++bit) {
    max_report[0].categorical_report.push_back(bit);
  }
  EXPECT_TRUE(writer.WriteMixedReport(max_report, collector).ok());
  Rng rng(21);
  for (int i = 0; i < reports - 1; ++i) {
    EXPECT_TRUE(
        writer.WriteMixedReport(collector.Perturb(tuple, &rng), collector)
            .ok());
  }
  return out.str();
}

TEST(IngestAllocationTest, SteadyStateAcceptPathIsAllocationFree) {
  const MixedTupleCollector collector = MakeCollector();
  const std::string bytes = MakeStream(collector, 4000);
  ShardIngester ingester(&collector);

  // Warm up: header, staging-ring growth, and scratch sizing all happen on
  // the first chunks.
  constexpr size_t kChunk = 4096;
  const size_t warmup_end = bytes.size() / 2;
  size_t cursor = 0;
  while (cursor < warmup_end) {
    const size_t take = std::min(kChunk, bytes.size() - cursor);
    ASSERT_TRUE(ingester.Feed(bytes.data() + cursor, take).ok());
    cursor += take;
  }
  const uint64_t accepted_before = ingester.stats().accepted;
  ASSERT_GT(accepted_before, 0u);

  // Measured window: every remaining frame must be accepted without a
  // single heap allocation.
  const uint64_t allocations_before =
      g_allocation_count.load(std::memory_order_relaxed);
  while (cursor < bytes.size()) {
    const size_t take = std::min(kChunk, bytes.size() - cursor);
    ingester.Feed(bytes.data() + cursor, take);
    cursor += take;
  }
  const uint64_t allocations_after =
      g_allocation_count.load(std::memory_order_relaxed);

  ASSERT_TRUE(ingester.Finish().ok());
  EXPECT_EQ(ingester.stats().accepted, 4000u);
  EXPECT_GT(ingester.stats().accepted, accepted_before);
  EXPECT_EQ(allocations_after - allocations_before, 0u)
      << "accept path allocated "
      << (allocations_after - allocations_before) << " times for "
      << (ingester.stats().accepted - accepted_before) << " frames";
}

TEST(IngestAllocationTest, ByteAtATimeSteadyStateIsAllocationFree) {
  // The staging ring also reaches a steady state: after the first frames
  // have sized it, even byte-at-a-time feeding (every frame staged and
  // wrapped) allocates nothing.
  const MixedTupleCollector collector = MakeCollector();
  const std::string bytes = MakeStream(collector, 600);
  ShardIngester ingester(&collector);

  const size_t warmup_end = bytes.size() / 2;
  size_t cursor = 0;
  for (; cursor < warmup_end; ++cursor) {
    ASSERT_TRUE(ingester.Feed(bytes.data() + cursor, 1).ok());
  }

  const uint64_t allocations_before =
      g_allocation_count.load(std::memory_order_relaxed);
  for (; cursor < bytes.size(); ++cursor) {
    ingester.Feed(bytes.data() + cursor, 1);
  }
  const uint64_t allocations_after =
      g_allocation_count.load(std::memory_order_relaxed);

  ASSERT_TRUE(ingester.Finish().ok());
  EXPECT_EQ(ingester.stats().accepted, 600u);
  EXPECT_EQ(allocations_after - allocations_before, 0u);
}

TEST(IngestAllocationTest, ConcurrentSessionSmallChunkFeedIsAllocationFree) {
  // A concurrent ServerSession decodes a chunk under kInlineFeedBytes on the
  // calling thread when its shard has nothing queued: no chunk copy, no pool
  // task. Once the shard is warmed up, such Feed calls allocate nothing.
  auto schema = data::Schema::Create({data::ColumnSpec::Numeric("a", -1, 1),
                                      data::ColumnSpec::Categorical("b", 8),
                                      data::ColumnSpec::Numeric("c", -1, 1),
                                      data::ColumnSpec::Categorical("d", 32)});
  ASSERT_TRUE(schema.ok());
  auto config = api::PipelineConfig::FromSchema(schema.value(), 4.0);
  ASSERT_TRUE(config.ok());
  auto pipeline = api::Pipeline::Create(std::move(config).value());
  ASSERT_TRUE(pipeline.ok());
  auto client = pipeline.value().NewClient();
  ASSERT_TRUE(client.ok());
  constexpr uint64_t kReports = 4000;
  std::string bytes = client.value().EncodeHeader();
  MixedTuple tuple(4);
  for (uint64_t user = 0; user < kReports; ++user) {
    tuple[0] = AttributeValue::Numeric((user % 200) / 100.0 - 1.0);
    tuple[1] = AttributeValue::Categorical(user % 8);
    tuple[2] = AttributeValue::Numeric(0.25);
    tuple[3] = AttributeValue::Categorical(user % 32);
    Rng rng = api::UserRng(21, user);
    auto payload = client.value().EncodeReport(tuple, &rng);
    ASSERT_TRUE(payload.ok());
    ASSERT_TRUE(AppendFrame(payload.value(), &bytes).ok());
  }
  // The last kInlineFeedBytes go in as one chunk after the measured window.
  ASSERT_GT(bytes.size(), 4 * api::kInlineFeedBytes);
  const size_t tail_begin = bytes.size() - api::kInlineFeedBytes;

  api::ServerSessionOptions options;
  options.ingest_threads = 2;
  auto server = pipeline.value().NewServer(options);
  ASSERT_TRUE(server.ok());
  api::ServerSession& session = server.value();
  const size_t shard = session.OpenShard();

  constexpr size_t kChunk = 512;
  static_assert(kChunk < api::kInlineFeedBytes);
  const size_t warmup_end = bytes.size() / 2;
  size_t cursor = 0;
  while (cursor < warmup_end) {
    const size_t take = std::min(kChunk, warmup_end - cursor);
    ASSERT_TRUE(session.Feed(shard, bytes.data() + cursor, take).ok());
    cursor += take;
  }

  const uint64_t allocations_before =
      g_allocation_count.load(std::memory_order_relaxed);
  while (cursor < tail_begin) {
    const size_t take = std::min(kChunk, tail_begin - cursor);
    session.Feed(shard, bytes.data() + cursor, take);
    cursor += take;
  }
  const uint64_t allocations_after =
      g_allocation_count.load(std::memory_order_relaxed);

  // Control: a chunk at the bound takes the queued path, which copies it
  // and submits a pool task — the counter must see those allocations.
  ASSERT_TRUE(session.Feed(shard, bytes.data() + tail_begin,
                           bytes.size() - tail_begin)
                  .ok());
  const uint64_t allocations_queued =
      g_allocation_count.load(std::memory_order_relaxed);

  auto stats = session.ShardStats(shard);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().accepted, kReports);
  ASSERT_TRUE(session.CloseShard(shard).ok());
  EXPECT_EQ(allocations_after - allocations_before, 0u)
      << "small-chunk Feed allocated "
      << (allocations_after - allocations_before) << " times";
  EXPECT_GT(allocations_queued, allocations_after);
}

}  // namespace
}  // namespace ldp::stream

// End-to-end tests for the socket transport (net/report_server.h +
// net/client.h): loopback campaigns over Unix-domain and TCP sockets must
// reproduce a directly-fed ServerSession byte for byte — snapshots included
// — at every session thread count and regardless of which connection
// arrives or finishes first (merges are exact integer sums, so their order
// never shows). Also covers the multi-epoch conversation (CLOSE → ADVANCE_EPOCH
// → re-HELLO on one connection, down to the accountant's refusal) and
// hard-stop abandonment.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "api/pipeline.h"
#include "api/server_session.h"
#include "net/client.h"
#include "net/report_server.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "stream/report_stream.h"
#include "stream_corpus_util.h"

namespace ldp {
namespace {

using ldp::testing::kCorpusReports;
using ldp::testing::MakeCorpusPipeline;
using ldp::testing::MakeHonestStream;

net::Endpoint TestUdsEndpoint(const std::string& name) {
  net::Endpoint endpoint;
  endpoint.kind = net::Endpoint::Kind::kUnix;
  endpoint.path = "/tmp/ldp_test_" + std::to_string(::getpid()) + "_" + name +
                  ".sock";
  return endpoint;
}

net::Endpoint TestTcpEndpoint() {
  net::Endpoint endpoint;
  endpoint.kind = net::Endpoint::Kind::kTcp;
  endpoint.host = "127.0.0.1";
  endpoint.port = 0;  // ephemeral; read back from the server
  return endpoint;
}

// Shard byte streams (header + frames) for `shards` ordinals, different
// report contents per shard.
std::vector<std::string> MakeShardStreams(const api::Pipeline& pipeline,
                                          size_t shards) {
  std::vector<std::string> streams;
  for (size_t s = 0; s < shards; ++s) {
    streams.push_back(MakeHonestStream(pipeline, /*seed=*/700 + s));
  }
  return streams;
}

// The reference: the same shard bytes fed straight into a session, closed
// in ordinal order — what the file-based ldp_aggregate run would compute.
std::string DirectSessionSnapshot(const api::Pipeline& pipeline,
                                  const std::vector<std::string>& streams) {
  auto session = pipeline.NewServer();
  EXPECT_TRUE(session.ok());
  for (const std::string& stream : streams) {
    const size_t shard = session.value().OpenShard();
    EXPECT_TRUE(session.value().Feed(shard, stream).ok());
    EXPECT_TRUE(session.value().CloseShard(shard).ok());
  }
  return session.value().Snapshot();
}

// Runs one racing campaign: every stream on its own connection/thread with
// its index as ordinal, `stagger_ms[i]` of sleep before its CLOSE (to force
// completion orders), against a server session with `ingest_threads`.
// Returns the resulting session snapshot.
std::string RunCampaign(const api::Pipeline& pipeline,
                        const net::Endpoint& endpoint,
                        const std::vector<std::string>& streams,
                        unsigned ingest_threads,
                        const std::vector<int>& stagger_ms) {
  api::ServerSessionOptions session_options;
  session_options.ingest_threads = ingest_threads;
  auto session = pipeline.NewServer(session_options);
  EXPECT_TRUE(session.ok());
  net::ReportServerOptions server_options;
  server_options.acceptors = static_cast<unsigned>(streams.size());
  // The campaigns race real threads; exact merges are what make the
  // snapshot-equality assertions deterministic.
  server_options.expected_shards = streams.size();
  auto server = net::ReportServer::Start(&session.value(), pipeline.header(),
                                         endpoint, server_options);
  EXPECT_TRUE(server.ok());
  const net::Endpoint resolved = server.value()->endpoint();

  std::vector<std::thread> reporters;
  for (size_t s = 0; s < streams.size(); ++s) {
    reporters.emplace_back([&, s] {
      auto client = net::CollectorClient::Connect(resolved, pipeline.header(),
                                                  /*ordinal=*/s);
      ASSERT_TRUE(client.ok()) << client.status().ToString();
      // The stream bytes start with the header the HELLO already carried.
      ASSERT_TRUE(client.value()
                      .Send(streams[s].data() + stream::kStreamHeaderBytes,
                            streams[s].size() - stream::kStreamHeaderBytes)
                      .ok());
      if (stagger_ms[s] > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(stagger_ms[s]));
      }
      auto summary = client.value().Close();
      ASSERT_TRUE(summary.ok()) << summary.status().ToString();
      EXPECT_TRUE(summary.value().status.ok())
          << summary.value().status.ToString();
      EXPECT_EQ(summary.value().stats.accepted, kCorpusReports);
      EXPECT_EQ(summary.value().stats.rejected, 0u);
    });
  }
  for (std::thread& reporter : reporters) reporter.join();
  server.value()->Stop(/*drain=*/true);

  const net::ReportServerStats stats = server.value()->stats();
  EXPECT_EQ(stats.connections, streams.size());
  EXPECT_EQ(stats.shards_merged, streams.size());
  EXPECT_EQ(stats.shards_abandoned, 0u);
  EXPECT_EQ(stats.hello_rejected, 0u);
  return session.value().Snapshot();
}

TEST(ReportServerTest, UdsCampaignIsBitIdenticalToDirectSession) {
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::vector<std::string> streams = MakeShardStreams(pipeline, 4);
  const std::string reference = DirectSessionSnapshot(pipeline, streams);
  const std::vector<int> no_stagger(streams.size(), 0);

  for (const unsigned threads : {0u, 2u}) {
    const std::string snapshot =
        RunCampaign(pipeline, TestUdsEndpoint("uds_campaign"), streams,
                    threads, no_stagger);
    EXPECT_EQ(snapshot, reference) << "ingest_threads=" << threads;
  }
}

TEST(ReportServerTest, TcpCampaignIsBitIdenticalToDirectSession) {
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::vector<std::string> streams = MakeShardStreams(pipeline, 3);
  const std::string reference = DirectSessionSnapshot(pipeline, streams);
  const std::string snapshot =
      RunCampaign(pipeline, TestTcpEndpoint(), streams,
                  /*ingest_threads=*/2, std::vector<int>(streams.size(), 0));
  EXPECT_EQ(snapshot, reference);
}

TEST(ReportServerTest, CompletionOrderDoesNotChangeTheSession) {
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::vector<std::string> streams = MakeShardStreams(pipeline, 3);
  const std::string reference = DirectSessionSnapshot(pipeline, streams);
  // Ordinal 0 asks to close LAST: ordinal 2's CLOSE arrives first and
  // merges first. Whatever the interleaving, the session is the
  // ordinal-ordered one.
  const std::string snapshot =
      RunCampaign(pipeline, TestUdsEndpoint("reverse_close"), streams,
                  /*ingest_threads=*/0, /*stagger_ms=*/{120, 60, 0});
  EXPECT_EQ(snapshot, reference);
}

TEST(ReportServerTest, ExpectedShardsBarrierHoldsForLateConnectors) {
  // Ordinal 1 connects, streams and closes BEFORE ordinal 0 has even
  // connected. Its close merges at once — there is no barrier to wait at —
  // and once the late connector lands the session still matches the
  // ordinal-ordered reference bit for bit.
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::vector<std::string> streams = MakeShardStreams(pipeline, 2);
  const std::string reference = DirectSessionSnapshot(pipeline, streams);

  auto session = pipeline.NewServer();
  ASSERT_TRUE(session.ok());
  net::ReportServerOptions options;
  options.acceptors = 2;
  options.expected_shards = 2;
  auto server =
      net::ReportServer::Start(&session.value(), pipeline.header(),
                               TestUdsEndpoint("late_connector"), options);
  ASSERT_TRUE(server.ok());
  const net::Endpoint endpoint = server.value()->endpoint();

  auto early = net::CollectorClient::Connect(endpoint, pipeline.header(),
                                             /*ordinal=*/1);
  ASSERT_TRUE(early.ok());
  ASSERT_TRUE(early.value()
                  .Send(streams[1].data() + stream::kStreamHeaderBytes,
                        streams[1].size() - stream::kStreamHeaderBytes)
                  .ok());
  auto early_summary = early.value().Close();
  ASSERT_TRUE(early_summary.ok()) << early_summary.status().ToString();
  EXPECT_TRUE(early_summary.value().status.ok());
  EXPECT_EQ(server.value()->stats().shards_merged, 1u);

  // A closed ordinal is refused for the rest of the epoch.
  auto again = net::CollectorClient::Connect(endpoint, pipeline.header(),
                                             /*ordinal=*/1);
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kAlreadyExists);

  auto late = net::CollectorClient::Connect(endpoint, pipeline.header(),
                                            /*ordinal=*/0);
  ASSERT_TRUE(late.ok());
  ASSERT_TRUE(late.value()
                  .Send(streams[0].data() + stream::kStreamHeaderBytes,
                        streams[0].size() - stream::kStreamHeaderBytes)
                  .ok());
  auto summary = late.value().Close();
  ASSERT_TRUE(summary.ok());
  EXPECT_TRUE(summary.value().status.ok());
  server.value()->Stop(/*drain=*/true);

  EXPECT_EQ(server.value()->stats().shards_merged, 2u);
  EXPECT_EQ(session.value().Snapshot(), reference);

  // An ordinal outside the declared fleet is refused at HELLO.
  auto session2 = pipeline.NewServer();
  ASSERT_TRUE(session2.ok());
  auto server2 =
      net::ReportServer::Start(&session2.value(), pipeline.header(),
                               TestUdsEndpoint("fleet_bound"), options);
  ASSERT_TRUE(server2.ok());
  auto outside = net::CollectorClient::Connect(server2.value()->endpoint(),
                                               pipeline.header(),
                                               /*ordinal=*/2);
  EXPECT_FALSE(outside.ok());
  EXPECT_EQ(outside.status().code(), StatusCode::kOutOfRange);
  server2.value()->Stop(/*drain=*/false);
}

TEST(ReportServerTest, LateSmallerOrdinalMergesBitIdentically) {
  // Ad hoc mode, one connection at a time, ordinals closed 3, 2, 1, 0:
  // every shard merges the moment it closes, in the reverse of the
  // reference's order, and the session still matches bit for bit.
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::vector<std::string> streams = MakeShardStreams(pipeline, 4);
  const std::string reference = DirectSessionSnapshot(pipeline, streams);

  auto session = pipeline.NewServer();
  ASSERT_TRUE(session.ok());
  auto server =
      net::ReportServer::Start(&session.value(), pipeline.header(),
                               TestUdsEndpoint("reverse_ordinals"),
                               net::ReportServerOptions());
  ASSERT_TRUE(server.ok());
  for (size_t s = streams.size(); s-- > 0;) {
    auto client = net::CollectorClient::Connect(server.value()->endpoint(),
                                                pipeline.header(), s);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    ASSERT_TRUE(client.value()
                    .Send(streams[s].data() + stream::kStreamHeaderBytes,
                          streams[s].size() - stream::kStreamHeaderBytes)
                    .ok());
    auto summary = client.value().Close();
    ASSERT_TRUE(summary.ok()) << summary.status().ToString();
    EXPECT_TRUE(summary.value().status.ok());
    EXPECT_EQ(server.value()->stats().shards_merged, streams.size() - s);
  }
  server.value()->Stop(/*drain=*/true);
  EXPECT_EQ(session.value().Snapshot(), reference);
}

TEST(ReportServerTest, ReporterDyingAfterCloseNeverWedgesTheBarrier) {
  // Ordinal 0 sends its whole stream, issues CLOSE_SHARD, and vanishes
  // without ever reading the verdict (its socket closes immediately, so
  // the server's reply flush can fail at any point around the dispatch).
  // Whichever way the server sees it — close merged with the reply
  // dropped, or the disconnect first and the shard abandoned — ordinal 1's
  // close returns at once, and the session is bit-identical to the direct
  // run over exactly the shards that merged.
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::vector<std::string> streams = MakeShardStreams(pipeline, 2);

  auto session = pipeline.NewServer();
  ASSERT_TRUE(session.ok());
  net::ReportServerOptions options;
  options.expected_shards = 2;
  auto server =
      net::ReportServer::Start(&session.value(), pipeline.header(),
                               TestUdsEndpoint("dying_closer"), options);
  ASSERT_TRUE(server.ok());
  const net::Endpoint endpoint = server.value()->endpoint();

  {
    // Acks enabled, so the server has watermarks to flush at close time.
    net::CollectorClientOptions ack_options;
    ack_options.window_bytes = 1;  // clamped up; enables DATA_ACK batches
    auto doomed = net::CollectorClient::Connect(endpoint, pipeline.header(),
                                                /*ordinal=*/0, ack_options);
    ASSERT_TRUE(doomed.ok());
    ASSERT_TRUE(doomed.value()
                    .Send(streams[0].data() + stream::kStreamHeaderBytes,
                          streams[0].size() - stream::kStreamHeaderBytes)
                    .ok());
    ASSERT_TRUE(doomed.value().CloseShardBegin(/*channel=*/0).ok());
    // Scope exit closes the socket without awaiting SHARD_CLOSED.
  }

  auto survivor = net::CollectorClient::Connect(endpoint, pipeline.header(),
                                                /*ordinal=*/1);
  ASSERT_TRUE(survivor.ok());
  ASSERT_TRUE(survivor.value()
                  .Send(streams[1].data() + stream::kStreamHeaderBytes,
                        streams[1].size() - stream::kStreamHeaderBytes)
                  .ok());
  auto summary = survivor.value().Close();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_TRUE(summary.value().status.ok())
      << summary.value().status.ToString();
  server.value()->Stop(/*drain=*/true);

  const net::ReportServerStats stats = server.value()->stats();
  EXPECT_EQ(stats.shards_merged + stats.shards_abandoned, 2u);
  EXPECT_GE(stats.shards_merged, 1u);  // the survivor always merges
  const std::vector<std::string> merged =
      stats.shards_merged == 2 ? streams
                               : std::vector<std::string>{streams[1]};
  EXPECT_EQ(session.value().Snapshot(),
            DirectSessionSnapshot(pipeline, merged));
}

TEST(ReportServerTest, MultiplexedShardsOverOneConnectionAreBitIdentical) {
  // All four shards ride ONE connection as interleaved channels; the
  // event-driven server demultiplexes them and the session still matches
  // the ordinal-ordered reference byte for byte.
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::vector<std::string> streams = MakeShardStreams(pipeline, 4);
  const std::string reference = DirectSessionSnapshot(pipeline, streams);

  auto session = pipeline.NewServer();
  ASSERT_TRUE(session.ok());
  net::ReportServerOptions options;
  options.expected_shards = streams.size();
  auto server =
      net::ReportServer::Start(&session.value(), pipeline.header(),
                               TestUdsEndpoint("multiplexed"), options);
  ASSERT_TRUE(server.ok());

  // Small flushes force many interleaved DATA messages per channel.
  net::CollectorClientOptions client_options;
  client_options.flush_bytes = 512;
  auto client =
      net::CollectorClient::Connect(server.value()->endpoint(),
                                    pipeline.header(), /*ordinal=*/0,
                                    client_options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  std::vector<uint32_t> channels = {0};
  for (size_t s = 1; s < streams.size(); ++s) {
    auto channel = client.value().OpenShard(pipeline.header(), s);
    ASSERT_TRUE(channel.ok()) << channel.status().ToString();
    channels.push_back(channel.value());
  }
  EXPECT_EQ(client.value().open_shards(), streams.size());

  // Interleave: one chunk per shard, round-robin, until all are drained.
  std::vector<size_t> offsets(streams.size(), stream::kStreamHeaderBytes);
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (size_t s = 0; s < streams.size(); ++s) {
      if (offsets[s] >= streams[s].size()) continue;
      const size_t take = std::min<size_t>(1024, streams[s].size() - offsets[s]);
      ASSERT_TRUE(client.value()
                      .Send(channels[s], streams[s].data() + offsets[s], take)
                      .ok());
      offsets[s] += take;
      progressed = true;
    }
  }
  // Close in REVERSE ordinal order, pipelined, then await in ordinal
  // order: the verdicts come back in close order and must still match up
  // by channel.
  for (size_t s = streams.size(); s-- > 0;) {
    ASSERT_TRUE(client.value().CloseShardBegin(channels[s]).ok());
  }
  for (size_t s = 0; s < streams.size(); ++s) {
    auto summary = client.value().AwaitShardClosed(channels[s]);
    ASSERT_TRUE(summary.ok()) << summary.status().ToString();
    EXPECT_TRUE(summary.value().status.ok())
        << summary.value().status.ToString();
    EXPECT_EQ(summary.value().stats.accepted, kCorpusReports);
  }
  EXPECT_EQ(client.value().open_shards(), 0u);
  server.value()->Stop(/*drain=*/true);

  const net::ReportServerStats stats = server.value()->stats();
  EXPECT_EQ(stats.connections, 1u);
  EXPECT_EQ(stats.shards_merged, streams.size());
  EXPECT_EQ(stats.shards_abandoned, 0u);
  EXPECT_EQ(session.value().Snapshot(), reference);
}

TEST(ReportServerTest, PollBackendCampaignIsBitIdentical) {
  // The portable poll(2) backend must be behaviorally indistinguishable
  // from epoll — same campaign, same bytes.
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::vector<std::string> streams = MakeShardStreams(pipeline, 3);
  const std::string reference = DirectSessionSnapshot(pipeline, streams);

  api::ServerSessionOptions session_options;
  auto session = pipeline.NewServer(session_options);
  ASSERT_TRUE(session.ok());
  net::ReportServerOptions options;
  options.poller = net::PollerBackend::kPoll;
  options.acceptors = 2;
  options.expected_shards = streams.size();
  auto server =
      net::ReportServer::Start(&session.value(), pipeline.header(),
                               TestUdsEndpoint("poll_backend"), options);
  ASSERT_TRUE(server.ok());

  std::vector<std::thread> reporters;
  for (size_t s = 0; s < streams.size(); ++s) {
    reporters.emplace_back([&, s] {
      auto client = net::CollectorClient::Connect(server.value()->endpoint(),
                                                  pipeline.header(), s);
      ASSERT_TRUE(client.ok()) << client.status().ToString();
      ASSERT_TRUE(client.value()
                      .Send(streams[s].data() + stream::kStreamHeaderBytes,
                            streams[s].size() - stream::kStreamHeaderBytes)
                      .ok());
      auto summary = client.value().Close();
      ASSERT_TRUE(summary.ok());
      EXPECT_TRUE(summary.value().status.ok());
    });
  }
  for (std::thread& reporter : reporters) reporter.join();
  server.value()->Stop(/*drain=*/true);
  EXPECT_EQ(session.value().Snapshot(), reference);
}

TEST(ReportServerTest, ZeroFlushBytesIsClampedNotAnInfiniteLoop) {
  // Regression: flush_bytes == 0 used to make CollectorClient::Send stage
  // zero bytes per loop iteration and spin forever. It is clamped to 1 at
  // Connect (degenerate one-byte DATA messages, but correct).
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::string stream = MakeHonestStream(pipeline, 830);

  auto session = pipeline.NewServer();
  ASSERT_TRUE(session.ok());
  auto server =
      net::ReportServer::Start(&session.value(), pipeline.header(),
                               TestUdsEndpoint("zero_flush"),
                               net::ReportServerOptions());
  ASSERT_TRUE(server.ok());

  net::CollectorClientOptions client_options;
  client_options.flush_bytes = 0;
  auto client = net::CollectorClient::Connect(server.value()->endpoint(),
                                              pipeline.header(),
                                              /*ordinal=*/0, client_options);
  ASSERT_TRUE(client.ok());
  // Send a slice spanning several "buffers" (every byte flushes) plus the
  // remainder; the call must return, and the shard must merge intact.
  ASSERT_TRUE(client.value()
                  .Send(stream.data() + stream::kStreamHeaderBytes,
                        stream.size() - stream::kStreamHeaderBytes)
                  .ok());
  auto summary = client.value().Close();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_TRUE(summary.value().status.ok());
  EXPECT_EQ(summary.value().stats.accepted, kCorpusReports);
  server.value()->Stop(/*drain=*/true);
}

TEST(ReportServerTest, NumericStreamCampaignMatchesDirectSession) {
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/true);
  ASSERT_EQ(pipeline.stream_kind(),
            stream::ReportStreamKind::kSampledNumeric);
  const std::vector<std::string> streams = MakeShardStreams(pipeline, 2);
  const std::string reference = DirectSessionSnapshot(pipeline, streams);
  const std::string snapshot =
      RunCampaign(pipeline, TestUdsEndpoint("numeric"), streams,
                  /*ingest_threads=*/2, std::vector<int>(streams.size(), 0));
  EXPECT_EQ(snapshot, reference);
}

TEST(ReportServerTest, MultiEpochCampaignOverOneConnection) {
  // A 2-epoch plan: the same reporter ships a shard per epoch over one
  // connection, advancing the epoch in between; the third advance must be
  // refused by the accountant, over the wire.
  auto schema = data::Schema::Create(
      {data::ColumnSpec::Numeric("income", -1, 1),
       data::ColumnSpec::Categorical("sector", 4),
       data::ColumnSpec::Numeric("age", -1, 1)});
  ASSERT_TRUE(schema.ok());
  auto config = api::PipelineConfig::FromSchema(schema.value(), 4.0);
  ASSERT_TRUE(config.ok());
  config.value().plan.epochs = 2;
  auto pipeline = api::Pipeline::Create(std::move(config).value());
  ASSERT_TRUE(pipeline.ok());

  const std::string epoch0 = MakeHonestStream(pipeline.value(), 810);
  const std::string epoch1 = MakeHonestStream(pipeline.value(), 811);

  auto session = pipeline.value().NewServer();
  ASSERT_TRUE(session.ok());
  net::ReportServerOptions options;
  // Expected-shards mode: the Reopen below also proves the closed-ordinal
  // set resets when the epoch advances (ordinal 0 streams again in epoch
  // 1).
  options.expected_shards = 1;
  auto server =
      net::ReportServer::Start(&session.value(), pipeline.value().header(),
                               TestUdsEndpoint("epochs"), options);
  ASSERT_TRUE(server.ok());

  auto client = net::CollectorClient::Connect(
      server.value()->endpoint(), pipeline.value().header(), /*ordinal=*/0);
  ASSERT_TRUE(client.ok());
  EXPECT_EQ(client.value().epoch(), 0u);
  ASSERT_TRUE(client.value()
                  .Send(epoch0.data() + stream::kStreamHeaderBytes,
                        epoch0.size() - stream::kStreamHeaderBytes)
                  .ok());
  auto closed = client.value().Close();
  ASSERT_TRUE(closed.ok());
  EXPECT_TRUE(closed.value().status.ok());

  auto advanced = client.value().AdvanceEpoch();
  ASSERT_TRUE(advanced.ok()) << advanced.status().ToString();
  EXPECT_EQ(advanced.value(), 1u);

  ASSERT_TRUE(
      client.value().Reopen(pipeline.value().header(), /*ordinal=*/0).ok());
  EXPECT_EQ(client.value().epoch(), 1u);
  ASSERT_TRUE(client.value()
                  .Send(epoch1.data() + stream::kStreamHeaderBytes,
                        epoch1.size() - stream::kStreamHeaderBytes)
                  .ok());
  closed = client.value().Close();
  ASSERT_TRUE(closed.ok());
  EXPECT_TRUE(closed.value().status.ok());

  // The plan is exhausted: the wire surfaces the accountant's exact
  // refusal.
  auto refused = client.value().AdvanceEpoch();
  EXPECT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);

  server.value()->Stop(/*drain=*/true);
  EXPECT_EQ(session.value().num_epochs(), 2u);
  auto reports0 = session.value().num_reports(0);
  auto reports1 = session.value().num_reports(1);
  ASSERT_TRUE(reports0.ok());
  ASSERT_TRUE(reports1.ok());
  EXPECT_EQ(reports0.value(), kCorpusReports);
  EXPECT_EQ(reports1.value(), kCorpusReports);

  // Byte-identical to the same two-epoch campaign run directly.
  auto direct = pipeline.value().NewServer();
  ASSERT_TRUE(direct.ok());
  size_t shard = direct.value().OpenShard();
  ASSERT_TRUE(direct.value().Feed(shard, epoch0).ok());
  ASSERT_TRUE(direct.value().CloseShard(shard).ok());
  ASSERT_TRUE(direct.value().AdvanceEpoch().ok());
  shard = direct.value().OpenShard();
  ASSERT_TRUE(direct.value().Feed(shard, epoch1).ok());
  ASSERT_TRUE(direct.value().CloseShard(shard).ok());
  // The refused advance left a refusal count in the wire session's ledger;
  // the session snapshot serializes it, so the reference run must refuse
  // too.
  EXPECT_FALSE(direct.value().AdvanceEpoch().ok());
  EXPECT_EQ(session.value().Snapshot(), direct.value().Snapshot());
}

TEST(ReportServerTest, KeyedCampaignChargesReporterOncePerEpoch) {
  // The acceptance pin for per-reporter accounting: alice reconnects three
  // times in one epoch (three connections, three shards), bob once. Every
  // HELLO is authenticated; alice's ledger is charged exactly once, and
  // the session — ledger section included — is bit-identical to feeding
  // the same shards directly with the same reporter ids.
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::vector<std::string> streams = MakeShardStreams(pipeline, 4);
  const char* kReporters[] = {"alice", "alice", "bob", "alice"};
  const std::string kKey = "campaign-key-7";

  auto direct = pipeline.NewServer();
  ASSERT_TRUE(direct.ok());
  for (size_t s = 0; s < streams.size(); ++s) {
    auto shard = direct.value().OpenShard(kReporters[s]);
    ASSERT_TRUE(shard.ok()) << shard.status().ToString();
    ASSERT_TRUE(direct.value().Feed(shard.value(), streams[s]).ok());
    ASSERT_TRUE(direct.value().CloseShard(shard.value()).ok());
  }
  const std::string reference = direct.value().Snapshot();

  auto session = pipeline.NewServer();
  ASSERT_TRUE(session.ok());
  net::ReportServerOptions options;
  options.campaign_key = kKey;
  auto server =
      net::ReportServer::Start(&session.value(), pipeline.header(),
                               TestUdsEndpoint("keyed_once"), options);
  ASSERT_TRUE(server.ok());

  for (size_t s = 0; s < streams.size(); ++s) {
    net::CollectorClientOptions client_options;
    client_options.reporter_id = kReporters[s];
    client_options.campaign_key = kKey;
    auto client =
        net::CollectorClient::Connect(server.value()->endpoint(),
                                      pipeline.header(), /*ordinal=*/s,
                                      client_options);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    ASSERT_TRUE(client.value()
                    .Send(streams[s].data() + stream::kStreamHeaderBytes,
                          streams[s].size() - stream::kStreamHeaderBytes)
                    .ok());
    auto summary = client.value().Close();
    ASSERT_TRUE(summary.ok());
    EXPECT_TRUE(summary.value().status.ok());
    EXPECT_EQ(summary.value().stats.accepted, kCorpusReports);
  }
  server.value()->Stop(/*drain=*/true);

  const net::ReportServerStats stats = server.value()->stats();
  EXPECT_EQ(stats.connections, streams.size());
  EXPECT_EQ(stats.shards_merged, streams.size());
  EXPECT_EQ(stats.hello_rejected, 0u);
  EXPECT_EQ(stats.hello_unauthenticated, 0u);

  // Three alice connections, one charge; the snapshot equality also pins
  // the serialized ledger against the direct run.
  EXPECT_EQ(session.value().accountant().Spent("alice"),
            pipeline.header().epsilon);
  EXPECT_EQ(session.value().accountant().Spent("bob"),
            pipeline.header().epsilon);
  EXPECT_EQ(session.value().accountant().num_charged_reporters(), 3u);
  EXPECT_EQ(session.value().Snapshot(), reference);
}

TEST(ReportServerTest, ImportedLedgerSpendRefusesReporterAtHello) {
  // A reporter's spend can arrive from another collection edge (snapshot
  // merge / relay forwarding) before the reporter ever connects here. If
  // that imported spend exhausts the lifetime budget, the authenticated
  // HELLO must be refused shardless — and the refusal must release the
  // ordinal so the campaign proceeds without the reporter.
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::string kKey = "campaign-key-7";
  const double epsilon = pipeline.header().epsilon;

  auto put16 = [](std::string* out, uint16_t v) {
    out->push_back(static_cast<char>(v & 0xff));
    out->push_back(static_cast<char>(v >> 8));
  };
  auto put32 = [](std::string* out, uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  };
  auto put64 = [&put32](std::string* out, uint64_t v) {
    put32(out, static_cast<uint32_t>(v));
    put32(out, static_cast<uint32_t>(v >> 32));
  };
  auto putf64 = [&put64](std::string* out, double v) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v), "f64 layout");
    std::memcpy(&bits, &v, sizeof(bits));
    put64(out, bits);
  };

  // Start from a real (empty, anonymous-only) snapshot and splice in a
  // ledger section claiming user-0 already spent the whole budget at a
  // foreign edge's later epochs. First pin the anonymous tail we are about
  // to replace, so a layout change fails loudly here instead of merging
  // garbage.
  auto donor = pipeline.NewServer();
  ASSERT_TRUE(donor.ok());
  std::string snapshot = donor.value().Snapshot();
  std::string anonymous_tail;
  put32(&anonymous_tail, 1);   // one reporter: the anonymous plan
  put16(&anonymous_tail, 0);   // empty id
  put64(&anonymous_tail, 0);   // refusals
  put32(&anonymous_tail, 1);   // one epoch entry
  put32(&anonymous_tail, 0);   // epoch 0
  putf64(&anonymous_tail, epsilon);
  ASSERT_GT(snapshot.size(), anonymous_tail.size());
  ASSERT_EQ(snapshot.substr(snapshot.size() - anonymous_tail.size()),
            anonymous_tail);

  std::string crafted_tail;
  put32(&crafted_tail, 2);  // anonymous plan + user-0, ascending by id
  put16(&crafted_tail, 0);
  put64(&crafted_tail, 0);
  put32(&crafted_tail, 1);
  put32(&crafted_tail, 0);
  putf64(&crafted_tail, epsilon);
  const std::string reporter = "user-0";
  put16(&crafted_tail, static_cast<uint16_t>(reporter.size()));
  crafted_tail.append(reporter);
  put64(&crafted_tail, 0);     // no refusals yet
  put32(&crafted_tail, 1);     // one epoch entry...
  put32(&crafted_tail, 7);     // ...at an epoch this session never opened
  putf64(&crafted_tail, epsilon);  // the whole single-epoch budget
  const std::string crafted =
      snapshot.substr(0, snapshot.size() - anonymous_tail.size()) +
      crafted_tail;

  auto session = pipeline.NewServer();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session.value().Merge(crafted).ok());
  EXPECT_EQ(session.value().accountant().Spent(reporter), epsilon);

  net::ReportServerOptions options;
  options.campaign_key = kKey;
  auto server =
      net::ReportServer::Start(&session.value(), pipeline.header(),
                               TestUdsEndpoint("ledger_refusal"), options);
  ASSERT_TRUE(server.ok());

  // user-0's tag verifies, but the accountant cannot afford epoch 0: the
  // HELLO is refused before any shard exists.
  net::CollectorClientOptions exhausted;
  exhausted.reporter_id = reporter;
  exhausted.campaign_key = kKey;
  auto refused = net::CollectorClient::Connect(
      server.value()->endpoint(), pipeline.header(), /*ordinal=*/0,
      exhausted);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);

  // The refusal released ordinal 0: a solvent reporter reuses it and the
  // campaign completes around the missing shard.
  const std::string stream = MakeHonestStream(pipeline, 730);
  net::CollectorClientOptions solvent;
  solvent.reporter_id = "user-1";
  solvent.campaign_key = kKey;
  auto client = net::CollectorClient::Connect(
      server.value()->endpoint(), pipeline.header(), /*ordinal=*/0, solvent);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client.value()
                  .Send(stream.data() + stream::kStreamHeaderBytes,
                        stream.size() - stream::kStreamHeaderBytes)
                  .ok());
  auto summary = client.value().Close();
  ASSERT_TRUE(summary.ok());
  EXPECT_TRUE(summary.value().status.ok());
  server.value()->Stop(/*drain=*/true);

  const net::ReportServerStats stats = server.value()->stats();
  EXPECT_EQ(stats.hello_rejected, 1u);
  // The tag verified; this was a budget refusal, not an auth failure.
  EXPECT_EQ(stats.hello_unauthenticated, 0u);
  EXPECT_EQ(stats.shards_merged, 1u);
  EXPECT_EQ(session.value().accountant().Refusals(reporter), 1u);
  EXPECT_EQ(session.value().accountant().Spent("user-1"), epsilon);
  auto reports = session.value().num_reports(0);
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(reports.value(), kCorpusReports);
}

TEST(ReportServerTest, HardStopAbandonsInFlightShards) {
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::string stream = MakeHonestStream(pipeline, 820);

  auto session = pipeline.NewServer();
  ASSERT_TRUE(session.ok());
  auto server =
      net::ReportServer::Start(&session.value(), pipeline.header(),
                               TestUdsEndpoint("hardstop"),
                               net::ReportServerOptions());
  ASSERT_TRUE(server.ok());

  auto client = net::CollectorClient::Connect(
      server.value()->endpoint(), pipeline.header(), /*ordinal=*/0);
  ASSERT_TRUE(client.ok());
  // Ship some frames but never CLOSE; the hard stop must reap the shard.
  ASSERT_TRUE(client.value()
                  .Send(stream.data() + stream::kStreamHeaderBytes,
                        stream.size() - stream::kStreamHeaderBytes)
                  .ok());
  server.value()->Stop(/*drain=*/false);

  // The half-shipped shard contributed nothing.
  auto reports = session.value().num_reports(0);
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(reports.value(), 0u);
  const net::ReportServerStats stats = server.value()->stats();
  EXPECT_EQ(stats.shards_merged, 0u);
  EXPECT_EQ(stats.shards_abandoned, 1u);

  // And the client's next conversation step fails rather than hanging.
  auto summary = client.value().Close();
  EXPECT_FALSE(summary.ok() && summary.value().status.ok());
}

TEST(ReportServerTest, DuplicateActiveOrdinalIsRefused) {
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  auto session = pipeline.NewServer();
  ASSERT_TRUE(session.ok());
  net::ReportServerOptions options;
  options.acceptors = 2;
  auto server =
      net::ReportServer::Start(&session.value(), pipeline.header(),
                               TestUdsEndpoint("dup_ordinal"), options);
  ASSERT_TRUE(server.ok());

  auto first = net::CollectorClient::Connect(server.value()->endpoint(),
                                             pipeline.header(),
                                             /*ordinal=*/5);
  ASSERT_TRUE(first.ok());
  auto second = net::CollectorClient::Connect(server.value()->endpoint(),
                                              pipeline.header(),
                                              /*ordinal=*/5);
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kAlreadyExists);

  // The ordinal frees up once the first shard closes.
  auto closed = first.value().Close();
  ASSERT_TRUE(closed.ok());
  auto third = net::CollectorClient::Connect(server.value()->endpoint(),
                                             pipeline.header(),
                                             /*ordinal=*/5);
  EXPECT_TRUE(third.ok());
  server.value()->Stop(/*drain=*/false);
}

// --- CollectorClient batching -----------------------------------------------

TEST(CollectorClientTest, PoisonedCoalescedWriteReturnsTheServerVerdict) {
  // A stream whose first frame claims an oversized length: the session's
  // Feed refuses it, and the server answers ERROR and hangs up. The client
  // sends staged DATA together with CLOSE_SHARD in one write; whether the
  // verdict is read after that write or the write itself fails because the
  // server already hung up, the caller gets the server's verdict, never a
  // bare send error.
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::string mutant = ldp::testing::CorpusOversizedFirstFrameLength(
      MakeHonestStream(pipeline, /*seed=*/780));
  const std::string frames = mutant.substr(stream::kStreamHeaderBytes);
  Status expected = Status::OK();
  {
    auto direct = pipeline.NewServer();
    ASSERT_TRUE(direct.ok());
    expected = direct.value().Feed(direct.value().OpenShard(), mutant);
    ASSERT_FALSE(expected.ok());
    ASSERT_NE(expected.code(), StatusCode::kIoError);
  }

  auto session = pipeline.NewServer();
  ASSERT_TRUE(session.ok());
  auto server = net::ReportServer::Start(&session.value(), pipeline.header(),
                                         TestUdsEndpoint("poisoned_close"), {});
  ASSERT_TRUE(server.ok());
  const net::Endpoint endpoint = server.value()->endpoint();

  {
    // Every byte staged until the close: one write carries DATA + CLOSE.
    net::CollectorClientOptions options;
    options.flush_bytes = 1u << 20;
    auto client = net::CollectorClient::Connect(endpoint, pipeline.header(),
                                                /*ordinal=*/0, options);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    ASSERT_TRUE(client.value().Send(frames.data(), frames.size()).ok());
    auto closed = client.value().CloseShard(0);
    ASSERT_FALSE(closed.ok());
    EXPECT_EQ(closed.status().code(), expected.code())
        << closed.status().ToString();
  }
  {
    // The hostile frame leaves early in its own DATA; once the server has
    // hung up, the coalesced DATA + CLOSE write fails.
    net::CollectorClientOptions options;
    options.flush_bytes = 64;
    auto client = net::CollectorClient::Connect(endpoint, pipeline.header(),
                                                /*ordinal=*/1, options);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    ASSERT_TRUE(client.value().Send(frames.data(), 64).ok());
    for (int i = 0; i < 500 && server.value()->stats().shards_abandoned < 2;
         ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_EQ(server.value()->stats().shards_abandoned, 2u);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ASSERT_TRUE(client.value().Send(frames.data() + 64, 10).ok());
    const Status closing = client.value().CloseShardBegin(0);
    ASSERT_FALSE(closing.ok());
    EXPECT_EQ(closing.code(), expected.code()) << closing.ToString();
  }
  server.value()->Stop(/*drain=*/true);
}

TEST(CollectorClientTest, VerdictsReadTogetherMatchTheirChannelsInReverse) {
  // Four pipelined closes whose SHARD_CLOSED replies all land before the
  // first await, so one read brings them all. Each shard carries a
  // different report count, and awaiting in reverse order must still hand
  // every channel its own verdict.
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::string honest = MakeHonestStream(pipeline, /*seed=*/790);
  const std::string frames = honest.substr(stream::kStreamHeaderBytes);
  std::vector<std::string> streams;
  for (size_t s = 0; s < 4; ++s) {
    std::string bytes = honest;
    for (size_t copy = 0; copy < s; ++copy) bytes += frames;
    streams.push_back(std::move(bytes));
  }

  auto session = pipeline.NewServer();
  ASSERT_TRUE(session.ok());
  auto server = net::ReportServer::Start(&session.value(), pipeline.header(),
                                         TestUdsEndpoint("reverse_await"), {});
  ASSERT_TRUE(server.ok());
  auto client = net::CollectorClient::Connect(server.value()->endpoint(),
                                              pipeline.header(),
                                              /*ordinal=*/0);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  std::vector<uint32_t> channels = {0};
  for (size_t s = 1; s < streams.size(); ++s) {
    auto channel = client.value().OpenShard(pipeline.header(), s);
    ASSERT_TRUE(channel.ok()) << channel.status().ToString();
    channels.push_back(channel.value());
  }
  for (size_t s = 0; s < streams.size(); ++s) {
    ASSERT_TRUE(client.value()
                    .Send(channels[s],
                          streams[s].data() + stream::kStreamHeaderBytes,
                          streams[s].size() - stream::kStreamHeaderBytes)
                    .ok());
    ASSERT_TRUE(client.value().CloseShardBegin(channels[s]).ok());
  }
  for (int i = 0; i < 500 && server.value()->stats().shards_merged < 4; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(server.value()->stats().shards_merged, 4u);
  for (size_t s = streams.size(); s-- > 0;) {
    auto summary = client.value().AwaitShardClosed(channels[s]);
    ASSERT_TRUE(summary.ok()) << summary.status().ToString();
    EXPECT_TRUE(summary.value().status.ok());
    EXPECT_EQ(summary.value().stats.accepted, (s + 1) * kCorpusReports);
  }
  EXPECT_EQ(client.value().open_shards(), 0u);
  server.value()->Stop(/*drain=*/true);
  EXPECT_EQ(session.value().Snapshot(),
            DirectSessionSnapshot(pipeline, streams));
}

// --- pipelined HELLOs ----------------------------------------------------

// The header and first frame of `stream`: a one-report shard.
std::string FirstFrameOnly(const std::string& stream) {
  const size_t at = stream::kStreamHeaderBytes;
  const auto* p = reinterpret_cast<const unsigned char*>(stream.data() + at);
  const size_t length = static_cast<size_t>(p[0]) |
                        (static_cast<size_t>(p[1]) << 8) |
                        (static_cast<size_t>(p[2]) << 16) |
                        (static_cast<size_t>(p[3]) << 24);
  return stream.substr(0, at + 4 + length);
}

TEST(CollectorClientTest, PipelinedDuplicateOrdinalReturnsTheServerVerdict) {
  // OpenShard does no I/O, so a duplicate ordinal cannot be refused there:
  // the refusal arrives as the server's ERROR behind the replies of the
  // earlier shards. The caller must get that verdict, not a bare I/O
  // error, and the verdicts read before it must still be returned.
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::vector<std::string> streams = MakeShardStreams(pipeline, 2);
  auto session = pipeline.NewServer();
  ASSERT_TRUE(session.ok());
  net::ReportServerOptions options;
  options.expected_shards = 4;
  auto server =
      net::ReportServer::Start(&session.value(), pipeline.header(),
                               TestUdsEndpoint("pipelined_dup"), options);
  ASSERT_TRUE(server.ok());
  auto client = net::CollectorClient::Connect(server.value()->endpoint(),
                                              pipeline.header(),
                                              /*ordinal=*/0);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const auto stream_shard = [&](uint32_t channel, const std::string& bytes) {
    return client.value().Send(channel,
                               bytes.data() + stream::kStreamHeaderBytes,
                               bytes.size() - stream::kStreamHeaderBytes);
  };
  std::vector<uint32_t> channels = {0};
  ASSERT_TRUE(stream_shard(0, streams[0]).ok());
  ASSERT_TRUE(client.value().CloseShardBegin(0).ok());
  auto second = client.value().OpenShard(pipeline.header(), /*ordinal=*/1);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  channels.push_back(second.value());
  ASSERT_TRUE(stream_shard(second.value(), streams[1]).ok());
  ASSERT_TRUE(client.value().CloseShardBegin(second.value()).ok());
  // Ordinal 0 merged before this HELLO is read (one connection is handled
  // in order), so the server refuses it as already completed.
  auto dup = client.value().OpenShard(pipeline.header(), /*ordinal=*/0);
  ASSERT_TRUE(dup.ok()) << dup.status().ToString();
  ASSERT_TRUE(stream_shard(dup.value(), streams[0]).ok());
  const Status closing = client.value().CloseShardBegin(dup.value());
  if (!closing.ok()) {
    EXPECT_EQ(closing.code(), StatusCode::kAlreadyExists)
        << closing.ToString();
  }
  // Awaited first, the refused channel reads past both earlier verdicts.
  auto refused = client.value().AwaitShardClosed(dup.value());
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kAlreadyExists)
      << refused.status().ToString();
  for (size_t s = 0; s < channels.size(); ++s) {
    auto summary = client.value().AwaitShardClosed(channels[s]);
    ASSERT_TRUE(summary.ok()) << summary.status().ToString();
    EXPECT_TRUE(summary.value().status.ok());
    EXPECT_EQ(summary.value().stats.accepted, kCorpusReports);
  }
  // The connection stays refused.
  auto after = client.value().OpenShard(pipeline.header(), /*ordinal=*/2);
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kAlreadyExists);
  server.value()->Stop(/*drain=*/true);

  EXPECT_EQ(server.value()->stats().hello_rejected, 1u);
  EXPECT_EQ(server.value()->stats().shards_merged, 2u);
  EXPECT_EQ(session.value().Snapshot(),
            DirectSessionSnapshot(pipeline, streams));
}

TEST(CollectorClientTest, TwentyThousandTinyShardsAwaitedAtTheEndFinish) {
  // A reporter that pipelines every shard and awaits every verdict only at
  // the end: each shard is one write (HELLO + DATA + CLOSE_SHARD), and the
  // client drains arrived replies past its backlog bound so neither side
  // buffers the whole campaign. The collector reads many messages per recv.
  constexpr size_t kShards = 20000;
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  std::vector<std::string> bodies;
  for (size_t b = 0; b < 16; ++b) {
    bodies.push_back(
        FirstFrameOnly(MakeHonestStream(pipeline, /*seed=*/1300 + b)));
  }
  std::vector<std::string> streams;
  streams.reserve(kShards);
  for (size_t s = 0; s < kShards; ++s) {
    streams.push_back(bodies[s % bodies.size()]);
  }

  obs::MetricsRegistry registry;
  auto session = pipeline.NewServer();
  ASSERT_TRUE(session.ok());
  net::ReportServerOptions options;
  options.expected_shards = kShards;
  options.metrics = &registry;
  auto server =
      net::ReportServer::Start(&session.value(), pipeline.header(),
                               TestUdsEndpoint("tiny_shards"), options);
  ASSERT_TRUE(server.ok());
  auto client = net::CollectorClient::Connect(server.value()->endpoint(),
                                              pipeline.header(),
                                              /*ordinal=*/0);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  std::vector<uint32_t> channels;
  channels.reserve(kShards);
  for (size_t s = 0; s < kShards; ++s) {
    uint32_t channel = 0;
    if (s > 0) {
      auto opened = client.value().OpenShard(pipeline.header(), s);
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      channel = opened.value();
    }
    const std::string& bytes = streams[s];
    ASSERT_TRUE(client.value()
                    .Send(channel, bytes.data() + stream::kStreamHeaderBytes,
                          bytes.size() - stream::kStreamHeaderBytes)
                    .ok());
    ASSERT_TRUE(client.value().CloseShardBegin(channel).ok());
    channels.push_back(channel);
  }
  for (const uint32_t channel : channels) {
    auto summary = client.value().AwaitShardClosed(channel);
    ASSERT_TRUE(summary.ok()) << summary.status().ToString();
    ASSERT_TRUE(summary.value().status.ok());
    ASSERT_EQ(summary.value().stats.accepted, 1u);
  }
  EXPECT_EQ(client.value().open_shards(), 0u);
  server.value()->Stop(/*drain=*/true);

  EXPECT_EQ(server.value()->stats().shards_merged, kShards);
  // Three messages per shard; a recv per client write would still be a
  // third of that, and batching brings it lower.
  const uint64_t reads =
      registry.GetCounter("ldp_net_reads_total")->Value();
  EXPECT_LT(reads, 3 * kShards / 2) << reads << " reads";
  EXPECT_EQ(session.value().Snapshot(),
            DirectSessionSnapshot(pipeline, streams));
}

TEST(CollectorClientTest, BlockingReopenMatchesItsHelloOkByChannel) {
  // Two pipelined shards are opened, streamed and closed, and nothing is
  // read. Reopen's synchronous HELLO then reads past their HELLO_OKs and
  // verdicts, applies them, and takes the HELLO_OK of its own channel —
  // not the first one to arrive.
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::vector<std::string> streams = MakeShardStreams(pipeline, 4);
  auto session = pipeline.NewServer();
  ASSERT_TRUE(session.ok());
  auto server = net::ReportServer::Start(&session.value(), pipeline.header(),
                                         TestUdsEndpoint("reopen_match"), {});
  ASSERT_TRUE(server.ok());
  auto client = net::CollectorClient::Connect(server.value()->endpoint(),
                                              pipeline.header(),
                                              /*ordinal=*/0);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const auto frames = [&](size_t s) {
    return streams[s].substr(stream::kStreamHeaderBytes);
  };
  ASSERT_TRUE(client.value().Send(frames(0)).ok());
  auto first = client.value().Close();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first.value().status.ok());

  std::vector<uint32_t> pipelined;
  for (size_t s = 1; s <= 2; ++s) {
    auto channel = client.value().OpenShard(pipeline.header(), s);
    ASSERT_TRUE(channel.ok()) << channel.status().ToString();
    const std::string bytes = frames(s);
    ASSERT_TRUE(
        client.value().Send(channel.value(), bytes.data(), bytes.size()).ok());
    ASSERT_TRUE(client.value().CloseShardBegin(channel.value()).ok());
    pipelined.push_back(channel.value());
  }
  // One connection is served in order, so every pipelined reply lands
  // ahead of the Reopen's HELLO_OK.
  ASSERT_TRUE(client.value().Reopen(pipeline.header(), /*ordinal=*/3).ok());
  // Session shard ids follow HELLO order: ordinals 0..3 are shards 0..3.
  EXPECT_EQ(client.value().shard(), 3u);
  EXPECT_EQ(client.value().resume_offset(), 0u);
  ASSERT_TRUE(client.value().Send(frames(3)).ok());
  auto last = client.value().Close();
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  EXPECT_TRUE(last.value().status.ok());
  for (const uint32_t channel : pipelined) {
    auto summary = client.value().AwaitShardClosed(channel);
    ASSERT_TRUE(summary.ok()) << summary.status().ToString();
    EXPECT_TRUE(summary.value().status.ok());
    EXPECT_EQ(summary.value().stats.accepted, kCorpusReports);
  }
  server.value()->Stop(/*drain=*/true);
  EXPECT_EQ(session.value().Snapshot(),
            DirectSessionSnapshot(pipeline, streams));
}

}  // namespace
}  // namespace ldp

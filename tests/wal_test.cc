// Kill-point tests for the write-ahead frame log (relay/frame_wal.h). Each
// test drives the ShardDurabilityHook exactly the way ReportServer does
// (record first, session call second), "crashes" by abandoning the log
// mid-conversation, and then replays the directory into a fresh session.
// The contract under test: replay reconstructs the pre-crash session bit
// for bit — same Snapshot(), whatever order the live run closed shards in —
// a torn tail at EOF is truncated away, and a CRC-corrupt record poisons
// only its own shard.

#include <gtest/gtest.h>
#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "api/pipeline.h"
#include "api/server_session.h"
#include "net/client.h"
#include "net/report_server.h"
#include "net/socket.h"
#include "relay/frame_wal.h"
#include "stream/report_stream.h"
#include "stream_corpus_util.h"

namespace ldp {
namespace {

using ldp::testing::kCorpusReports;
using ldp::testing::MakeCorpusPipeline;
using ldp::testing::MakeHonestStream;

// A fresh, empty WAL directory per test.
std::string TestWalDir(const std::string& name) {
  const std::string dir =
      "/tmp/ldp_wal_test_" + std::to_string(::getpid()) + "_" + name;
  DIR* handle = ::opendir(dir.c_str());
  if (handle != nullptr) {
    while (dirent* entry = ::readdir(handle)) {
      const std::string file = entry->d_name;
      if (file == "." || file == "..") continue;
      ::unlink((dir + "/" + file).c_str());
    }
    ::closedir(handle);
  }
  return dir;
}

std::vector<std::string> ListWalFiles(const std::string& dir) {
  std::vector<std::string> files;
  DIR* handle = ::opendir(dir.c_str());
  EXPECT_NE(handle, nullptr);
  while (dirent* entry = ::readdir(handle)) {
    const std::string file = entry->d_name;
    if (file.rfind("wal-", 0) == 0) files.push_back(dir + "/" + file);
  }
  ::closedir(handle);
  std::sort(files.begin(), files.end());
  return files;
}

size_t FileSize(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  EXPECT_TRUE(in.is_open()) << path;
  return static_cast<size_t>(in.tellg());
}

// One logged shard conversation, hook-before-session like ReportServer.
void PlayShard(relay::FrameWal* wal, api::ServerSession* session,
               const std::string& stream, uint64_t ordinal,
               size_t* shard_out = nullptr) {
  const std::string header = stream.substr(0, stream::kStreamHeaderBytes);
  const size_t shard = session->OpenShard();
  wal->OnShardOpen(shard, ordinal, session->current_epoch(),
                   /*reporter_id=*/"", header);
  ASSERT_TRUE(session->Feed(shard, header).ok());
  const char* data = stream.data() + stream::kStreamHeaderBytes;
  const size_t size = stream.size() - stream::kStreamHeaderBytes;
  // Two DATA messages, splitting inside a frame: replay must reassemble.
  const size_t half = size / 2;
  wal->OnShardData(shard, data, half);
  ASSERT_TRUE(session->Feed(shard, data, half).ok());
  wal->OnShardData(shard, data + half, size - half);
  ASSERT_TRUE(session->Feed(shard, data + half, size - half).ok());
  if (shard_out != nullptr) *shard_out = shard;
}

TEST(WalTest, Crc32MatchesTheIeeeCheckValue) {
  EXPECT_EQ(relay::Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(relay::Crc32("", 0), 0u);
  // Chaining via the seed equals one pass over the concatenation.
  const uint32_t first = relay::Crc32("12345", 5);
  EXPECT_EQ(relay::Crc32("6789", 4, first), 0xCBF43926u);
}

TEST(WalTest, ReplayReproducesTheSessionExactly) {
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  std::vector<std::string> streams;
  for (uint64_t s = 0; s < 3; ++s) {
    streams.push_back(MakeHonestStream(pipeline, 900 + s));
  }
  const std::string dir = TestWalDir("replay_exact");

  auto logged = pipeline.NewServer();
  ASSERT_TRUE(logged.ok());
  relay::WalReplaySummary empty;
  auto wal = relay::FrameWal::Open(dir, &logged.value(),
                                   relay::FrameWal::Options(), &empty);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ(empty.shards_replayed, 0u);

  // Merge in NON-ordinal order (1, 0, 2): replay closes in file-name
  // order, and exact merges make that the same session.
  std::vector<size_t> shards(3);
  for (uint64_t s = 0; s < 3; ++s) {
    PlayShard(wal.value().get(), &logged.value(), streams[s], s, &shards[s]);
  }
  for (const size_t s : {1, 0, 2}) {
    wal.value()->OnShardClose(shards[s]);
    ASSERT_TRUE(logged.value().CloseShard(shards[s]).ok());
  }
  const std::string reference = logged.value().Snapshot();
  wal.value().reset();  // "crash": every record is already on disk

  auto replayed = pipeline.NewServer();
  ASSERT_TRUE(replayed.ok());
  relay::WalReplaySummary summary;
  ASSERT_TRUE(relay::ReplayWalDir(dir, &replayed.value(), nullptr, nullptr,
                                  &summary)
                  .ok());
  EXPECT_EQ(summary.shards_replayed, 3u);
  EXPECT_EQ(summary.shards_resumed, 0u);
  EXPECT_EQ(summary.shards_corrupt, 0u);
  EXPECT_EQ(summary.truncated_tails, 0u);
  EXPECT_EQ(summary.frames_replayed, 6u);  // two DATA records per shard
  EXPECT_EQ(summary.completed_ordinals.size(), 3u);
  EXPECT_TRUE(summary.resume_shards.empty());
  EXPECT_EQ(replayed.value().Snapshot(), reference);
  auto reports = replayed.value().num_reports(0);
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(reports.value(), 3 * kCorpusReports);
}

TEST(WalTest, OpenShardBecomesAResumeEntryWithExactDurableBytes) {
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::string closed_stream = MakeHonestStream(pipeline, 910);
  const std::string open_stream = MakeHonestStream(pipeline, 911);
  const std::string dir = TestWalDir("resume");

  auto logged = pipeline.NewServer();
  ASSERT_TRUE(logged.ok());
  relay::WalReplaySummary empty;
  auto wal = relay::FrameWal::Open(dir, &logged.value(),
                                   relay::FrameWal::Options(), &empty);
  ASSERT_TRUE(wal.ok());

  size_t done = 0;
  PlayShard(wal.value().get(), &logged.value(), closed_stream, 0, &done);
  wal.value()->OnShardClose(done);
  ASSERT_TRUE(logged.value().CloseShard(done).ok());

  // Ordinal 1 crashes mid-shard: header plus a partial DATA chunk that
  // ends inside a frame.
  const std::string header =
      open_stream.substr(0, stream::kStreamHeaderBytes);
  const char* data = open_stream.data() + stream::kStreamHeaderBytes;
  const size_t total = open_stream.size() - stream::kStreamHeaderBytes;
  const size_t partial = total / 3 + 1;
  const size_t open_shard = logged.value().OpenShard();
  wal.value()->OnShardOpen(open_shard, /*ordinal=*/1,
                           logged.value().current_epoch(),
                           /*reporter_id=*/"", header);
  ASSERT_TRUE(logged.value().Feed(open_shard, header).ok());
  wal.value()->OnShardData(open_shard, data, partial);
  ASSERT_TRUE(logged.value().Feed(open_shard, data, partial).ok());
  wal.value().reset();  // crash with ordinal 1 open

  auto replayed = pipeline.NewServer();
  ASSERT_TRUE(replayed.ok());
  relay::WalReplaySummary summary;
  ASSERT_TRUE(relay::ReplayWalDir(dir, &replayed.value(), nullptr, nullptr,
                                  &summary)
                  .ok());
  EXPECT_EQ(summary.shards_replayed, 1u);
  EXPECT_EQ(summary.shards_resumed, 1u);
  ASSERT_EQ(summary.resume_shards.count(1), 1u);
  EXPECT_EQ(summary.resume_shards.at(1).durable_bytes, partial);
  EXPECT_EQ(summary.completed_ordinals.count(0), 1u);
  EXPECT_EQ(summary.completed_ordinals.count(1), 0u);

  // Finishing the resumed shard from the durable offset lands exactly
  // where an uninterrupted run would have.
  const size_t resumed = summary.resume_shards.at(1).shard;
  ASSERT_TRUE(
      replayed.value().Feed(resumed, data + partial, total - partial).ok());
  ASSERT_TRUE(replayed.value().CloseShard(resumed).ok());

  auto direct = pipeline.NewServer();
  ASSERT_TRUE(direct.ok());
  for (const std::string& stream : {closed_stream, open_stream}) {
    const size_t shard = direct.value().OpenShard();
    ASSERT_TRUE(direct.value().Feed(shard, stream).ok());
    ASSERT_TRUE(direct.value().CloseShard(shard).ok());
  }
  EXPECT_EQ(replayed.value().Snapshot(), direct.value().Snapshot());
}

TEST(WalTest, TornTailIsTruncatedAndTheShardStillResumes) {
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::string stream = MakeHonestStream(pipeline, 920);
  const std::string dir = TestWalDir("torn_tail");

  auto logged = pipeline.NewServer();
  ASSERT_TRUE(logged.ok());
  relay::WalReplaySummary empty;
  auto wal = relay::FrameWal::Open(dir, &logged.value(),
                                   relay::FrameWal::Options(), &empty);
  ASSERT_TRUE(wal.ok());
  PlayShard(wal.value().get(), &logged.value(), stream, /*ordinal=*/0);
  wal.value().reset();

  // The crash interrupted a record write: a dangling record header claiming
  // payload that never made it to disk.
  const std::vector<std::string> files = ListWalFiles(dir);
  ASSERT_EQ(files.size(), 1u);
  const size_t intact = FileSize(files[0]);
  {
    std::ofstream out(files[0],
                      std::ios::binary | std::ios::app | std::ios::ate);
    const char torn[] = {0x02, 0x40, 0x00, 0x00, 0x00};  // DATA, len 64
    out.write(torn, sizeof(torn));
  }
  ASSERT_EQ(FileSize(files[0]), intact + 5);

  auto replayed = pipeline.NewServer();
  ASSERT_TRUE(replayed.ok());
  relay::WalReplaySummary summary;
  ASSERT_TRUE(relay::ReplayWalDir(dir, &replayed.value(), nullptr, nullptr,
                                  &summary)
                  .ok());
  EXPECT_EQ(summary.truncated_tails, 1u);
  EXPECT_EQ(summary.shards_corrupt, 0u);
  EXPECT_EQ(summary.shards_resumed, 1u);
  ASSERT_EQ(summary.resume_shards.count(0), 1u);
  EXPECT_EQ(summary.resume_shards.at(0).durable_bytes,
            stream.size() - stream::kStreamHeaderBytes);
  // The tail is gone from disk, so a second replay sees a clean file.
  EXPECT_EQ(FileSize(files[0]), intact);
}

TEST(WalTest, CorruptRecordPoisonsOnlyItsShard) {
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::string poisoned_stream = MakeHonestStream(pipeline, 930);
  const std::string honest_stream = MakeHonestStream(pipeline, 931);
  const std::string dir = TestWalDir("corrupt");

  auto logged = pipeline.NewServer();
  ASSERT_TRUE(logged.ok());
  relay::WalReplaySummary empty;
  auto wal = relay::FrameWal::Open(dir, &logged.value(),
                                   relay::FrameWal::Options(), &empty);
  ASSERT_TRUE(wal.ok());
  size_t shard = 0;
  PlayShard(wal.value().get(), &logged.value(), poisoned_stream, 0, &shard);
  wal.value()->OnShardClose(shard);
  ASSERT_TRUE(logged.value().CloseShard(shard).ok());
  PlayShard(wal.value().get(), &logged.value(), honest_stream, 1, &shard);
  wal.value()->OnShardClose(shard);
  ASSERT_TRUE(logged.value().CloseShard(shard).ok());
  wal.value().reset();

  // Flip one byte inside ordinal 0's logged header record payload: the
  // record is complete, so this is corruption, not a torn tail.
  const std::vector<std::string> files = ListWalFiles(dir);
  ASSERT_EQ(files.size(), 2u);  // sorted: e00000-o00000 first
  {
    const std::streamoff offset = static_cast<std::streamoff>(
        relay::kWalFileHeaderBytes + relay::kWalRecordHeaderBytes + 3);
    std::fstream out(files[0],
                     std::ios::binary | std::ios::in | std::ios::out);
    char byte = 0;
    out.seekg(offset);
    out.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0xFF);
    out.seekp(offset);
    out.write(&byte, 1);
    ASSERT_TRUE(out.good());
  }

  auto replayed = pipeline.NewServer();
  ASSERT_TRUE(replayed.ok());
  relay::WalReplaySummary summary;
  ASSERT_TRUE(relay::ReplayWalDir(dir, &replayed.value(), nullptr, nullptr,
                                  &summary)
                  .ok());
  EXPECT_EQ(summary.shards_corrupt, 1u);
  EXPECT_EQ(summary.shards_replayed, 1u);
  EXPECT_EQ(summary.truncated_tails, 0u);
  EXPECT_EQ(summary.completed_ordinals.count(0), 0u);
  EXPECT_EQ(summary.completed_ordinals.count(1), 1u);

  // The epoch holds exactly the honest shard's contribution.
  auto direct = pipeline.NewServer();
  ASSERT_TRUE(direct.ok());
  const size_t only = direct.value().OpenShard();
  ASSERT_TRUE(direct.value().Feed(only, honest_stream).ok());
  ASSERT_TRUE(direct.value().CloseShard(only).ok());
  EXPECT_EQ(replayed.value().Snapshot(), direct.value().Snapshot());
}

TEST(WalTest, AbandonedShardReplaysToNothing) {
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::string abandoned_stream = MakeHonestStream(pipeline, 940);
  const std::string kept_stream = MakeHonestStream(pipeline, 941);
  const std::string dir = TestWalDir("abandon");

  auto logged = pipeline.NewServer();
  ASSERT_TRUE(logged.ok());
  relay::WalReplaySummary empty;
  auto wal = relay::FrameWal::Open(dir, &logged.value(),
                                   relay::FrameWal::Options(), &empty);
  ASSERT_TRUE(wal.ok());
  size_t shard = 0;
  PlayShard(wal.value().get(), &logged.value(), abandoned_stream, 0, &shard);
  wal.value()->OnShardAbandon(shard);
  ASSERT_TRUE(logged.value().AbandonShard(shard).ok());
  PlayShard(wal.value().get(), &logged.value(), kept_stream, 1, &shard);
  wal.value()->OnShardClose(shard);
  ASSERT_TRUE(logged.value().CloseShard(shard).ok());
  const std::string reference = logged.value().Snapshot();
  wal.value().reset();

  auto replayed = pipeline.NewServer();
  ASSERT_TRUE(replayed.ok());
  relay::WalReplaySummary summary;
  ASSERT_TRUE(relay::ReplayWalDir(dir, &replayed.value(), nullptr, nullptr,
                                  &summary)
                  .ok());
  EXPECT_EQ(summary.shards_replayed, 1u);
  EXPECT_EQ(summary.shards_resumed, 0u);
  EXPECT_EQ(summary.shards_corrupt, 0u);
  EXPECT_EQ(replayed.value().Snapshot(), reference);
  auto reports = replayed.value().num_reports(0);
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(reports.value(), kCorpusReports);
}

TEST(WalTest, ReopeningTheLogContinuesGenerationsAndCloseOrder) {
  // A restart that keeps collecting: FrameWal::Open replays, adopts the
  // resumable shard file, and new appends land after the old records —
  // a second crash/replay must see one continuous history.
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::string stream = MakeHonestStream(pipeline, 950);
  const std::string dir = TestWalDir("reopen");
  const std::string header = stream.substr(0, stream::kStreamHeaderBytes);
  const char* data = stream.data() + stream::kStreamHeaderBytes;
  const size_t total = stream.size() - stream::kStreamHeaderBytes;
  const size_t partial = total / 2;

  {
    auto logged = pipeline.NewServer();
    ASSERT_TRUE(logged.ok());
    relay::WalReplaySummary empty;
    auto wal = relay::FrameWal::Open(dir, &logged.value(),
                                     relay::FrameWal::Options(), &empty);
    ASSERT_TRUE(wal.ok());
    const size_t shard = logged.value().OpenShard();
    wal.value()->OnShardOpen(shard, /*ordinal=*/0,
                             logged.value().current_epoch(),
                             /*reporter_id=*/"", header);
    ASSERT_TRUE(logged.value().Feed(shard, header).ok());
    wal.value()->OnShardData(shard, data, partial);
    ASSERT_TRUE(logged.value().Feed(shard, data, partial).ok());
  }  // first crash

  {
    auto restarted = pipeline.NewServer();
    ASSERT_TRUE(restarted.ok());
    relay::WalReplaySummary summary;
    auto wal = relay::FrameWal::Open(dir, &restarted.value(),
                                     relay::FrameWal::Options(), &summary);
    ASSERT_TRUE(wal.ok());
    ASSERT_EQ(summary.shards_resumed, 1u);
    const net::ResumedShard resumed = summary.resume_shards.at(0);
    EXPECT_EQ(resumed.durable_bytes, partial);
    // The reporter reconnects and ships only what was not yet durable.
    wal.value()->OnShardData(resumed.shard, data + partial, total - partial);
    ASSERT_TRUE(restarted.value()
                    .Feed(resumed.shard, data + partial, total - partial)
                    .ok());
    wal.value()->OnShardClose(resumed.shard);
    ASSERT_TRUE(restarted.value().CloseShard(resumed.shard).ok());
  }  // second crash, after the close record

  auto replayed = pipeline.NewServer();
  ASSERT_TRUE(replayed.ok());
  relay::WalReplaySummary summary;
  ASSERT_TRUE(relay::ReplayWalDir(dir, &replayed.value(), nullptr, nullptr,
                                  &summary)
                  .ok());
  EXPECT_EQ(summary.shards_replayed, 1u);
  EXPECT_EQ(summary.shards_resumed, 0u);

  auto direct = pipeline.NewServer();
  ASSERT_TRUE(direct.ok());
  const size_t shard = direct.value().OpenShard();
  ASSERT_TRUE(direct.value().Feed(shard, stream).ok());
  ASSERT_TRUE(direct.value().CloseShard(shard).ok());
  EXPECT_EQ(replayed.value().Snapshot(), direct.value().Snapshot());
}

TEST(WalTest, ServerResumeHandshakeContinuesACrashedCampaign) {
  // The full wire loop: a crashed collector's WAL is replayed behind a
  // restarted ReportServer; the reporter's HELLO re-attaches to the
  // replayed shard, HELLO_OK tells it how many bytes are already durable,
  // and shipping only the remainder completes the campaign exactly.
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::string done_stream = MakeHonestStream(pipeline, 970);
  const std::string cut_stream = MakeHonestStream(pipeline, 971);
  const std::string dir = TestWalDir("net_resume");
  const std::string header =
      cut_stream.substr(0, stream::kStreamHeaderBytes);
  const char* data = cut_stream.data() + stream::kStreamHeaderBytes;
  const size_t total = cut_stream.size() - stream::kStreamHeaderBytes;
  const size_t partial = total / 2 + 7;

  {  // The crashed run: ordinal 0 closed, ordinal 1 cut mid-stream.
    auto logged = pipeline.NewServer();
    ASSERT_TRUE(logged.ok());
    relay::WalReplaySummary empty;
    auto wal = relay::FrameWal::Open(dir, &logged.value(),
                                     relay::FrameWal::Options(), &empty);
    ASSERT_TRUE(wal.ok());
    size_t shard = 0;
    PlayShard(wal.value().get(), &logged.value(), done_stream, 0, &shard);
    wal.value()->OnShardClose(shard);
    ASSERT_TRUE(logged.value().CloseShard(shard).ok());
    const size_t cut = logged.value().OpenShard();
    wal.value()->OnShardOpen(cut, /*ordinal=*/1,
                             logged.value().current_epoch(),
                             /*reporter_id=*/"", header);
    ASSERT_TRUE(logged.value().Feed(cut, header).ok());
    wal.value()->OnShardData(cut, data, partial);
    ASSERT_TRUE(logged.value().Feed(cut, data, partial).ok());
  }

  // The restarted collector, WAL wired into the server options the way
  // ldp_serve --wal-dir does it.
  auto session = pipeline.NewServer();
  ASSERT_TRUE(session.ok());
  relay::WalReplaySummary summary;
  auto wal = relay::FrameWal::Open(dir, &session.value(),
                                   relay::FrameWal::Options(), &summary);
  ASSERT_TRUE(wal.ok());
  ASSERT_EQ(summary.shards_resumed, 1u);
  net::ReportServerOptions options;
  options.expected_shards = 2;
  options.wal = wal.value().get();
  options.resume_shards = summary.resume_shards;
  options.completed_ordinals = summary.completed_ordinals;
  net::Endpoint endpoint;
  endpoint.kind = net::Endpoint::Kind::kUnix;
  endpoint.path = dir + ".sock";
  auto server = net::ReportServer::Start(&session.value(), pipeline.header(),
                                         endpoint, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  // The pre-crash-completed ordinal is refused as a duplicate.
  auto replayed_dup = net::CollectorClient::Connect(
      server.value()->endpoint(), pipeline.header(), /*ordinal=*/0);
  EXPECT_FALSE(replayed_dup.ok());

  auto client = net::CollectorClient::Connect(server.value()->endpoint(),
                                              pipeline.header(),
                                              /*ordinal=*/1);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_EQ(client.value().resume_offset(), partial);
  // Ship only the remainder, as ldp_report's sink does with the offset.
  ASSERT_TRUE(client.value().Send(data + partial, total - partial).ok());
  auto closed = client.value().Close();
  ASSERT_TRUE(closed.ok()) << closed.status().ToString();
  EXPECT_TRUE(closed.value().status.ok());
  server.value()->Stop(/*drain=*/true);

  auto direct = pipeline.NewServer();
  ASSERT_TRUE(direct.ok());
  for (const std::string& stream : {done_stream, cut_stream}) {
    const size_t shard = direct.value().OpenShard();
    ASSERT_TRUE(direct.value().Feed(shard, stream).ok());
    ASSERT_TRUE(direct.value().CloseShard(shard).ok());
  }
  EXPECT_EQ(session.value().Snapshot(), direct.value().Snapshot());
}

TEST(WalTest, PipelinedHelloForAResumableOrdinalResendsTheWholeShard) {
  // A pipelined HELLO (OpenShard) streams before it could read HELLO_OK's
  // resume_offset, so it resends its shard from byte 0 and says so with
  // kHelloFlagFromStart. For an ordinal the replay left open, the server
  // must drop the replayed prefix (WAL abandon record included) and open
  // afresh: the durable prefix counts once, the reporter's ledger is
  // charged once, and a second replay of the log agrees.
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::string kKey = "pipelined-resume-key";
  const std::vector<std::string> streams = {MakeHonestStream(pipeline, 970),
                                            MakeHonestStream(pipeline, 971)};
  const std::string dir = TestWalDir("pipelined_resume");
  const std::string& cut_stream = streams[1];
  const std::string header = cut_stream.substr(0, stream::kStreamHeaderBytes);
  const char* data = cut_stream.data() + stream::kStreamHeaderBytes;
  const size_t total = cut_stream.size() - stream::kStreamHeaderBytes;
  const size_t partial = total / 2 + 7;

  {  // The crashed run: alice's ordinal 1 cut mid-stream.
    auto logged = pipeline.NewServer();
    ASSERT_TRUE(logged.ok());
    relay::WalReplaySummary empty;
    auto wal = relay::FrameWal::Open(dir, &logged.value(),
                                     relay::FrameWal::Options(), &empty);
    ASSERT_TRUE(wal.ok());
    auto cut = logged.value().OpenShard("alice");
    ASSERT_TRUE(cut.ok());
    wal.value()->OnShardOpen(cut.value(), /*ordinal=*/1,
                             logged.value().current_epoch(), "alice", header);
    ASSERT_TRUE(logged.value().Feed(cut.value(), header).ok());
    wal.value()->OnShardData(cut.value(), data, partial);
    ASSERT_TRUE(logged.value().Feed(cut.value(), data, partial).ok());
  }

  auto session = pipeline.NewServer();
  ASSERT_TRUE(session.ok());
  relay::WalReplaySummary summary;
  auto wal = relay::FrameWal::Open(dir, &session.value(),
                                   relay::FrameWal::Options(), &summary);
  ASSERT_TRUE(wal.ok());
  ASSERT_EQ(summary.shards_resumed, 1u);
  net::ReportServerOptions options;
  options.expected_shards = 2;
  options.campaign_key = kKey;
  options.wal = wal.value().get();
  options.resume_shards = summary.resume_shards;
  options.completed_ordinals = summary.completed_ordinals;
  net::Endpoint endpoint;
  endpoint.kind = net::Endpoint::Kind::kUnix;
  endpoint.path = dir + ".sock";
  auto server = net::ReportServer::Start(&session.value(), pipeline.header(),
                                         endpoint, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  net::CollectorClientOptions client_options;
  client_options.reporter_id = "alice";
  client_options.campaign_key = kKey;
  auto client = net::CollectorClient::Connect(server.value()->endpoint(),
                                              pipeline.header(),
                                              /*ordinal=*/0, client_options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_EQ(client.value().resume_offset(), 0u);
  ASSERT_TRUE(client.value()
                  .Send(streams[0].substr(stream::kStreamHeaderBytes))
                  .ok());
  auto first = client.value().Close();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(first.value().status.ok());
  auto channel = client.value().OpenShard(pipeline.header(), /*ordinal=*/1);
  ASSERT_TRUE(channel.ok()) << channel.status().ToString();
  ASSERT_TRUE(client.value().Send(channel.value(), data, total).ok());
  auto resent = client.value().CloseShard(channel.value());
  ASSERT_TRUE(resent.ok()) << resent.status().ToString();
  EXPECT_TRUE(resent.value().status.ok());
  EXPECT_EQ(resent.value().stats.accepted, kCorpusReports);
  server.value()->Stop(/*drain=*/true);
  EXPECT_EQ(server.value()->stats().shards_merged, 2u);
  EXPECT_EQ(server.value()->stats().shards_abandoned, 1u);
  wal.value().reset();

  auto direct = pipeline.NewServer();
  ASSERT_TRUE(direct.ok());
  for (const std::string& stream : streams) {
    auto shard = direct.value().OpenShard("alice");
    ASSERT_TRUE(shard.ok());
    ASSERT_TRUE(direct.value().Feed(shard.value(), stream).ok());
    ASSERT_TRUE(direct.value().CloseShard(shard.value()).ok());
  }
  const std::string reference = direct.value().Snapshot();
  EXPECT_EQ(session.value().accountant().Spent("alice"),
            pipeline.header().epsilon);
  EXPECT_EQ(session.value().Snapshot(), reference);

  // The abandon record retires the replayed prefix: a second crash
  // replays to the same session, with nothing left to resume.
  auto replayed = pipeline.NewServer();
  ASSERT_TRUE(replayed.ok());
  relay::WalReplaySummary again;
  ASSERT_TRUE(relay::ReplayWalDir(dir, &replayed.value(), nullptr, nullptr,
                                  &again)
                  .ok());
  EXPECT_EQ(again.shards_resumed, 0u);
  EXPECT_EQ(again.shards_replayed, 2u);
  EXPECT_EQ(replayed.value().Snapshot(), reference);
}

TEST(WalTest, HeaderMismatchAgainstExpectedPoisonsTheShard) {
  const api::Pipeline mixed = MakeCorpusPipeline(/*numeric=*/false);
  const api::Pipeline numeric = MakeCorpusPipeline(/*numeric=*/true);
  const std::string stream = MakeHonestStream(numeric, 960);
  const std::string dir = TestWalDir("expected");

  auto logged = numeric.NewServer();
  ASSERT_TRUE(logged.ok());
  relay::WalReplaySummary empty;
  auto wal = relay::FrameWal::Open(dir, &logged.value(),
                                   relay::FrameWal::Options(), &empty);
  ASSERT_TRUE(wal.ok());
  size_t shard = 0;
  PlayShard(wal.value().get(), &logged.value(), stream, 0, &shard);
  wal.value()->OnShardClose(shard);
  ASSERT_TRUE(logged.value().CloseShard(shard).ok());
  wal.value().reset();

  // Replaying under the wrong collector protocol refuses the shard rather
  // than feeding incompatible bytes.
  auto replayed = mixed.NewServer();
  ASSERT_TRUE(replayed.ok());
  const stream::StreamHeader expected = mixed.header();
  relay::WalReplaySummary summary;
  ASSERT_TRUE(relay::ReplayWalDir(dir, &replayed.value(), &expected, nullptr,
                                  &summary)
                  .ok());
  EXPECT_EQ(summary.shards_replayed, 0u);
  EXPECT_EQ(summary.shards_corrupt, 1u);
  auto reports = replayed.value().num_reports(0);
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(reports.value(), 0u);
}

TEST(WalTest, ReplayRestoresTheReporterLedgerExactly) {
  // The reporter id rides in the kHeader record so replay re-charges the
  // same (reporter, epoch) cell the live run charged. After the crash the
  // restored session must match the pre-crash one bit for bit — the
  // session snapshot embeds the ledger section, so equality pins the
  // spend.
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::string dir = TestWalDir("reporter_ledger");
  const std::vector<std::string> streams = {MakeHonestStream(pipeline, 920),
                                            MakeHonestStream(pipeline, 921)};

  auto logged = pipeline.NewServer();
  ASSERT_TRUE(logged.ok());
  relay::WalReplaySummary empty;
  auto wal = relay::FrameWal::Open(dir, &logged.value(),
                                   relay::FrameWal::Options(), &empty);
  ASSERT_TRUE(wal.ok());
  // alice ships both shards: charged once, logged twice.
  for (uint64_t s = 0; s < streams.size(); ++s) {
    const std::string header =
        streams[s].substr(0, stream::kStreamHeaderBytes);
    auto opened = logged.value().OpenShard("alice");
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    const size_t shard = opened.value();
    wal.value()->OnShardOpen(shard, s, logged.value().current_epoch(),
                             /*reporter_id=*/"alice", header);
    ASSERT_TRUE(logged.value().Feed(shard, streams[s]).ok());
    wal.value()->OnShardData(shard,
                             streams[s].data() + stream::kStreamHeaderBytes,
                             streams[s].size() - stream::kStreamHeaderBytes);
    wal.value()->OnShardClose(shard);
    ASSERT_TRUE(logged.value().CloseShard(shard).ok());
  }
  EXPECT_EQ(logged.value().accountant().Spent("alice"),
            pipeline.header().epsilon);
  const std::string reference = logged.value().Snapshot();
  wal.value().reset();  // crash

  auto replayed = pipeline.NewServer();
  ASSERT_TRUE(replayed.ok());
  relay::WalReplaySummary summary;
  ASSERT_TRUE(relay::ReplayWalDir(dir, &replayed.value(), nullptr, nullptr,
                                  &summary)
                  .ok());
  EXPECT_EQ(summary.shards_replayed, 2u);
  EXPECT_EQ(replayed.value().accountant().Spent("alice"),
            pipeline.header().epsilon);
  EXPECT_EQ(replayed.value().accountant().num_charged_reporters(), 2u);
  EXPECT_EQ(replayed.value().Snapshot(), reference);

  // Replay-after-replay is idempotent, not a double spend.
  relay::WalReplaySummary again;
  auto twice = pipeline.NewServer();
  ASSERT_TRUE(twice.ok());
  ASSERT_TRUE(
      relay::ReplayWalDir(dir, &twice.value(), nullptr, nullptr, &again)
          .ok());
  EXPECT_EQ(twice.value().accountant().Spent("alice"),
            pipeline.header().epsilon);
}

TEST(WalTest, LegacyV1LogIsRefusedAsCorrupt) {
  // Logs in the two retired formats, crafted byte by byte (framing
  // documented in relay/frame_wal.h): version 1 (kHeader payload = bare
  // stream-header bytes) and version 2 (reporter-id-prefixed kHeader, a
  // u64 close sequence in the close record). Only version 3 replays, so
  // both count as corrupt and contribute nothing.
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::string stream = MakeHonestStream(pipeline, 930);
  const std::string dir = TestWalDir("legacy_v1");
  ::mkdir(dir.c_str(), 0755);

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
  auto append_record = [&](std::string* out, uint8_t type,
                           const std::string& payload) {
    std::string head;
    head.push_back(static_cast<char>(type));
    put32(&head, static_cast<uint32_t>(payload.size()));
    uint32_t crc = relay::Crc32(head.data(), head.size());
    crc = relay::Crc32(payload.data(), payload.size(), crc);
    out->append(head);
    put32(out, crc);
    out->append(payload);
  };

  auto write_log = [&](uint16_t version, uint64_t ordinal,
                       const std::string& header_payload) {
    std::string file;
    put32(&file, relay::kWalMagic);
    put16(&file, version);
    put32(&file, 0);  // epoch
    put64(&file, ordinal);
    append_record(&file, /*kHeader=*/1, header_payload);
    append_record(&file, /*kData=*/2,
                  stream.substr(stream::kStreamHeaderBytes));
    std::string close_payload;
    put64(&close_payload, 1);  // close_seq
    append_record(&file, /*kClose=*/3, close_payload);
    const std::string name = "/wal-e00000-o0000" + std::to_string(ordinal) +
                             "-g00001.ldpw";
    std::ofstream out(dir + name, std::ios::binary);
    ASSERT_TRUE(out.is_open());
    out.write(file.data(), static_cast<std::streamsize>(file.size()));
  };
  const std::string header = stream.substr(0, stream::kStreamHeaderBytes);
  write_log(/*version=*/1, /*ordinal=*/0, header);
  std::string v2_header;
  put16(&v2_header, 0);  // empty (anonymous) reporter id
  v2_header.append(header);
  write_log(/*version=*/2, /*ordinal=*/1, v2_header);

  auto replayed = pipeline.NewServer();
  ASSERT_TRUE(replayed.ok());
  relay::WalReplaySummary summary;
  ASSERT_TRUE(relay::ReplayWalDir(dir, &replayed.value(), nullptr, nullptr,
                                  &summary)
                  .ok());
  EXPECT_EQ(summary.shards_replayed, 0u);
  EXPECT_EQ(summary.shards_corrupt, 2u);
  auto reports = replayed.value().num_reports(0);
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(reports.value(), 0u);
}

}  // namespace
}  // namespace ldp

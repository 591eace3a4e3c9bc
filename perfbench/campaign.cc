// Campaign benchmark: whole LDP collection campaigns against the unmodified
// library, one workload per invocation.
//
//   perfbench_campaign --workload NAME --seed N --seconds S --trace 0|1
//                      [--scale F] [--trace-out PATH] [--workdir DIR]
//                      [--bad-hello]
//   perfbench_campaign --selftest
//
// Workloads (closed loop: each uploader blocks on every HELLO_OK, as
// ldp_report does; 4 uploader threads, one connection each, sized for a
// 4-core machine):
//
//   bulk_ingest     4 anonymous uploaders send 24 pre-encoded 1M-report OUE
//                   shards (8 distinct bodies, each sent three times; 8
//                   attributes, 4 numeric + 4 categorical, eps 4) over UDS
//                   to a ReportServer without WAL, closes pipelined. The
//                   DATA path (net read -> api Feed -> stream
//                   decode/accumulate) does nearly all the work.
//   reporter_fanin  the same schema and transport; 20k reporters, each a
//                   tiny shard of seeded size (1-100 reports), multiplexed
//                   as channels over 4 connections under the strict
//                   expected_shards barrier, closes pipelined. HELLO
//                   admission, OpenShard, the session lock and the merge
//                   barrier dominate.
//   full_campaign   4 keyed (protocol v3) reporters perturb and encode
//                   BR-like census rows inline (16 attributes, eps 4,
//                   api::UserRng(seed, user)); the edge runs a campaign key
//                   and a FrameWal, and a RelayForwarder ships live
//                   snapshots to a root on a short cadence. Then drain,
//                   final flush, root fold and Estimate; finally the edge
//                   WAL is replayed into a fresh session.
//
// A run sets up several times (setup_s is the median; every repeat must
// rebuild the identical reference snapshot), runs one warm-up campaign,
// then repeats campaigns for --seconds and reports medians. Every campaign
// passes the correctness gate or the run fails without numbers: the final
// snapshot is bit-identical to an in-process reference that feeds the same
// bytes in ordinal order (for full_campaign keyed, ledger included, each
// reporter charged eps once), the estimate counts every report sent, and the
// replayed WAL equals the live edge.
//
// With --trace 1 campaigns alternate untraced and traced; traced ones record
// spans around the library calls (trace.h) and attach an obs registry, and
// the run prints the per-layer metrics instead of the end-to-end ones.
//
// The last stdout line is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it stamps
// the hardware, build and workload settings.

#include <dirent.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/pipeline.h"
#include "api/server_session.h"
#include "data/census.h"
#include "data/encode.h"
#include "net/client.h"
#include "net/report_server.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "relay/forwarder.h"
#include "relay/frame_wal.h"
#include "stream/report_stream.h"
#include "trace.h"
#include "util/build_info.h"
#include "util/random.h"
#include "util/threadpool.h"

namespace {

using namespace ldp;  // NOLINT: benchmark binary
namespace tr = perfbench::trace;
using Clock = std::chrono::steady_clock;

constexpr double kEpsilon = 4.0;
// Setup runs at least kMinSetups times and until kSetupBudgetS is spent
// (cheap setups get more samples), at most kMaxSetups times.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 10;
constexpr double kSetupBudgetS = 2.0;
constexpr int kMinCampaigns = 3;
constexpr unsigned kConnections = 4;  // uploader threads and connections
constexpr size_t kSendBatchBytes = 64 * 1024;
constexpr int kRelayIntervalMs = 50;
constexpr size_t kMinAdmissionSamples = 1000;
constexpr const char* kCampaignKey = "perfbench-campaign-key";
constexpr uint64_t kDataSalt = 0xd1b54a32d192ed03ULL;

// ---------------------------------------------------------------------------
// Metric vocabulary (must match BENCHMARK.json; run.py checks it).

struct MetricSpec {
  const char* name;
  const char* unit;
};

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"reports_per_s", "1/s"},
    {"server_cpu_ns_per_report", "ns"},
    {"reporter_cpu_ns_per_report", "ns"},
    {"peak_rss_mib", "MiB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"core.encode_ns_per_report", "ns"},
    {"core.report_bytes", "bytes"},
    {"core.self_s", "s"},
    {"stream.ingest_ns_per_report", "ns"},
    {"stream.frames", "count"},
    {"stream.rejected", "count"},
    {"api.shard_open_close_us", "us"},
    {"api.snapshot_us", "us"},
    {"api.estimate_us", "us"},
    {"api.close_wait_us.p99", "us"},
    {"api.backpressure_wait_us.p99", "us"},
    {"api.pool_task_us.p50", "us"},
    {"api.self_s", "s"},
    {"net.send_s", "s"},
    {"net.await_closed_s", "s"},
    {"net.drain_s", "s"},
    {"net.data_read_us.p50", "us"},
    {"net.data_read_us.p99", "us"},
    {"net.merge_barrier_wait_us.p50", "us"},
    {"net.merge_barrier_wait_us.p99", "us"},
    {"net.data_messages", "count"},
    {"net.shards_merged", "count"},
    {"net.shards_abandoned", "count"},
    {"net.hello_refused", "count"},
    {"net.self_s", "s"},
    {"relay.wal_append_s", "s"},
    {"relay.wal_append_us.p99", "us"},
    {"relay.wal_bytes_per_report", "bytes"},
    {"relay.replay_frames", "count"},
    {"relay.replay_mib", "MiB"},
    {"relay.flush_s", "s"},
    {"relay.fold_s", "s"},
    {"relay.snapshots_forwarded", "count"},
    {"relay.bytes_forwarded", "bytes"},
    {"relay.self_s", "s"},
    {"admit_p50_us", "us"},
    {"admit_p99_us", "us"},
    {"admit_samples", "count"},
    {"recover_s", "s"},
    {"fail_ratio", "ratio"},
    {"trace.coverage", "ratio"},
    {"trace.overhead_pct", "%"},
};

// ---------------------------------------------------------------------------
// Small utilities.

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

template <typename T>
T Unwrap(Result<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(result).value();
}

void Check(const Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

double Seconds(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

uint64_t RusageNs(int who) {
  rusage usage{};
  ::getrusage(who, &usage);
  const auto ns = [](const timeval& tv) {
    return static_cast<uint64_t>(tv.tv_sec) * 1000000000ULL +
           static_cast<uint64_t>(tv.tv_usec) * 1000ULL;
  };
  return ns(usage.ru_utime) + ns(usage.ru_stime);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

// Nearest-rank quantile of an unsorted sample.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

uint64_t Fnv1a(const std::string& bytes, uint64_t hash) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string ReadProcField(const char* path, const char* key) {
  FILE* file = std::fopen(path, "r");
  if (file == nullptr) return "";
  char line[512];
  std::string value;
  const size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    if (std::strncmp(line, key, key_len) != 0) continue;
    const char* colon = std::strchr(line, ':');
    if (colon == nullptr) continue;
    value = colon + 1;
    break;
  }
  std::fclose(file);
  const size_t begin = value.find_first_not_of(" \t");
  const size_t end = value.find_last_not_of(" \t\n");
  return begin == std::string::npos ? "" : value.substr(begin, end - begin + 1);
}

double StatusMiB(const char* key) {
  return std::strtod(ReadProcField("/proc/self/status", key).c_str(),
                     nullptr) /
         1024.0;
}

// Resets the resident high-water mark to the current RSS.
void ResetPeakRss() {
  FILE* file = std::fopen("/proc/self/clear_refs", "w");
  if (file == nullptr) Die("cannot open /proc/self/clear_refs");
  std::fputs("5", file);
  if (std::fclose(file) != 0) Die("cannot reset the resident high-water mark");
}

void RemoveTree(const std::string& dir) {
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) return;
  while (dirent* entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    const std::string path = dir + "/" + name;
    struct stat info{};
    if (::lstat(path.c_str(), &info) == 0 && S_ISDIR(info.st_mode)) {
      RemoveTree(path);
    } else {
      ::unlink(path.c_str());
    }
  }
  ::closedir(handle);
  ::rmdir(dir.c_str());
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// ---------------------------------------------------------------------------
// Workloads and their inputs.

enum class Kind { kBulk, kFanin, kFull };

struct Workload {
  std::string name;
  Kind kind = Kind::kBulk;
  unsigned acceptors = 1;       // ReportServerOptions::acceptors
  unsigned ingest_threads = 0;  // ServerSessionOptions::ingest_threads
  uint64_t shards = 0;          // per campaign
  uint64_t bodies = 0;          // distinct pre-encoded shard bodies; ordinal
                                // o sends body o % bodies
  bool keyed = false;           // campaign key + per-reporter ledger
  bool wal_and_relay = false;   // FrameWal at the edge, relay to a root
};

// Scales shrink only report counts (self-tests run at --scale 0.01).
std::optional<Workload> MakeWorkload(const std::string& name, double scale) {
  Workload w;
  w.name = name;
  if (name == "bulk_ingest") {
    w.kind = Kind::kBulk;
    w.acceptors = 2;
    w.ingest_threads = 2;
    w.shards = 24;
    // Three uploads of each body keep setup time and memory down; the
    // server decodes every shard in full either way.
    w.bodies = 8;
  } else if (name == "reporter_fanin") {
    w.kind = Kind::kFanin;
    w.acceptors = 2;
    w.ingest_threads = 2;
    w.shards = std::max<uint64_t>(
        kConnections, static_cast<uint64_t>(std::llround(20000 * scale)));
    w.bodies = w.shards;
  } else if (name == "full_campaign") {
    w.kind = Kind::kFull;
    w.acceptors = 2;
    w.ingest_threads = 2;
    w.shards = 16;
    w.bodies = 0;  // encoded inline by the reporters
    w.keyed = true;
    w.wal_and_relay = true;
  } else {
    return std::nullopt;
  }
  return w;
}

std::string ReporterId(unsigned connection) {
  return "reporter-" + std::to_string(connection);
}

// The 8-attribute schema of bulk_ingest and reporter_fanin.
api::Pipeline MixedPipeline() {
  api::PipelineConfig config;
  config.attributes = {
      MixedAttribute::Numeric(), MixedAttribute::Categorical(8),
      MixedAttribute::Numeric(), MixedAttribute::Categorical(16),
      MixedAttribute::Numeric(), MixedAttribute::Categorical(4),
      MixedAttribute::Numeric(), MixedAttribute::Categorical(32)};
  config.epsilon = kEpsilon;
  return Unwrap(api::Pipeline::Create(std::move(config)), "pipeline");
}

struct Inputs {
  /// bulk_ingest / reporter_fanin: frame bytes (no stream header); ordinal
  /// o sends bodies[o % bodies.size()].
  std::vector<std::string> bodies;
  /// full_campaign: the normalised census table users draw rows from
  /// (user u holds row u % rows).
  std::optional<data::Dataset> census;
  /// Each ordinal's users (ordinals sharing a body share users).
  std::vector<IndexRange> users;

  uint64_t reports = 0;
  uint64_t frame_bytes = 0;   // all frames, length prefixes included
  uint64_t fingerprint = 0;   // FNV-1a over every frame, ordinal order
  std::string reference;      // in-process reference session snapshot

  double encode_ns_per_report = 0.0;  // summed encode thread time / reports
  double ingest_ns_per_report = 0.0;  // reference Feed time / reports
  double shard_open_close_us = 0.0;   // reference open + close per shard
};

struct Setup {
  api::Pipeline pipeline;
  Inputs inputs;
};

// Encodes one user's report into `out` as a length-prefixed frame. The
// user's data is a census row (full_campaign) or drawn uniformly from the
// schema under a seed-derived generator; the perturbation draws from
// api::UserRng(seed, user), as ldp_report does.
Status AppendUser(const api::ClientSession& client,
                  const std::vector<MixedAttribute>& attributes,
                  const Workload& w, const Inputs& in, uint64_t seed,
                  uint64_t user, MixedTuple* tuple, std::string* out) {
  if (w.kind == Kind::kFull) {
    const data::Dataset& table = *in.census;
    const uint64_t row = user % table.num_rows();
    for (uint32_t col = 0; col < tuple->size(); ++col) {
      if (table.schema().column(col).type == data::ColumnType::kNumeric) {
        (*tuple)[col] = AttributeValue::Numeric(table.numeric(row, col));
      } else {
        (*tuple)[col] = AttributeValue::Categorical(table.category(row, col));
      }
    }
  } else {
    Rng data_rng = api::UserRng(seed ^ kDataSalt, user);
    for (uint32_t col = 0; col < tuple->size(); ++col) {
      const MixedAttribute& attribute = attributes[col];
      (*tuple)[col] =
          attribute.type == AttributeType::kNumeric
              ? AttributeValue::Numeric(data_rng.Uniform(-1.0, 1.0))
              : AttributeValue::Categorical(static_cast<uint32_t>(
                    data_rng.UniformInt(0, attribute.domain_size - 1)));
    }
  }
  Rng rng = api::UserRng(seed, user);
  Result<std::string> payload = client.EncodeReport(*tuple, &rng);
  if (!payload.ok()) return payload.status();
  return stream::AppendFrame(payload.value(), out);
}

// Runs fn(i) for i in [0, n) on kConnections threads.
void ParallelIndex(uint64_t n, const std::function<void(uint64_t)>& fn) {
  std::atomic<uint64_t> next{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kConnections; ++t) {
    threads.emplace_back([&] {
      for (uint64_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (std::thread& thread : threads) thread.join();
}

// Encodes the frames of ordinals [0, count). Returns the summed encode
// thread time.
double EncodeShards(const api::Pipeline& pipeline, const Workload& w,
                    const Inputs& in, uint64_t seed, uint64_t count,
                    std::vector<std::string>* shards) {
  const api::ClientSession client = Unwrap(pipeline.NewClient(), "client");
  std::vector<double> seconds(count, 0.0);
  shards->assign(count, std::string());
  ParallelIndex(count, [&](uint64_t ordinal) {
    const auto start = Clock::now();
    MixedTuple tuple(pipeline.dimension());
    std::string& out = (*shards)[ordinal];
    const IndexRange range = in.users[ordinal];
    for (uint64_t user = range.begin; user < range.end; ++user) {
      Check(AppendUser(client, pipeline.config().attributes, w, in, seed,
                       user, &tuple, &out),
            "encode");
    }
    seconds[ordinal] = Seconds(start, Clock::now());
  });
  double total = 0.0;
  for (const double s : seconds) total += s;
  return total;
}

Setup BuildSetup(const Workload& w, uint64_t seed, double scale) {
  Inputs in;
  std::optional<api::Pipeline> pipeline;
  // User ranges per ordinal: fixed-size shards, or seeded tiny shards.
  std::vector<uint64_t> sizes(w.shards);
  if (w.kind == Kind::kFanin) {
    Rng sizes_rng(seed);
    for (uint64_t& size : sizes) {
      size = static_cast<uint64_t>(sizes_rng.UniformInt(1, 100));
    }
  } else {
    const double per_shard = w.kind == Kind::kBulk ? 1000000.0 : 125000.0;
    std::fill(sizes.begin(), sizes.end(),
              std::max<uint64_t>(1, std::llround(per_shard * scale)));
  }
  uint64_t next_user = 0;
  for (uint64_t ordinal = 0; ordinal < w.shards; ++ordinal) {
    if (w.bodies == 0 || ordinal < w.bodies) {
      in.users.push_back({next_user, next_user + sizes[ordinal]});
      next_user += sizes[ordinal];
    } else {
      in.users.push_back(in.users[ordinal % w.bodies]);
    }
    in.reports += in.users.back().end - in.users.back().begin;
  }

  if (w.kind == Kind::kFull) {
    const uint64_t rows = std::min<uint64_t>(in.reports, 250000);
    data::Dataset raw = Unwrap(data::MakeBrazilCensus(rows, seed), "census");
    in.census = data::NormalizeNumeric(raw);
    pipeline = Unwrap(api::Pipeline::Create(Unwrap(
                          api::PipelineConfig::FromSchema(
                              in.census->schema(), kEpsilon),
                          "config")),
                      "pipeline");
  } else {
    pipeline = MixedPipeline();
  }

  std::vector<std::string> bodies;
  const uint64_t distinct = w.bodies == 0 ? w.shards : w.bodies;
  const double encode_s =
      EncodeShards(*pipeline, w, in, seed, distinct, &bodies);
  uint64_t encoded = 0;
  for (uint64_t o = 0; o < distinct; ++o) {
    encoded += in.users[o].end - in.users[o].begin;
  }
  in.encode_ns_per_report = encode_s * 1e9 / encoded;

  // The reference: one synchronous session fed in ordinal order.
  api::ServerSession session = Unwrap(pipeline->NewServer(), "session");
  const std::string header = stream::EncodeStreamHeader(pipeline->header());
  double feed_s = 0.0;
  double open_close_s = 0.0;
  in.fingerprint = 0xcbf29ce484222325ULL;
  for (uint64_t ordinal = 0; ordinal < w.shards; ++ordinal) {
    const std::string& bytes = bodies[ordinal % bodies.size()];
    in.frame_bytes += bytes.size();
    in.fingerprint = Fnv1a(bytes, in.fingerprint);
    auto start = Clock::now();
    const size_t shard =
        w.keyed ? Unwrap(session.OpenShard(ReporterId(ordinal % kConnections)),
                         "reference open")
                : session.OpenShard();
    Check(session.Feed(shard, header), "reference header");
    auto fed = Clock::now();
    Check(session.Feed(shard, bytes), "reference feed");
    auto closing = Clock::now();
    Check(session.CloseShard(shard), "reference close");
    auto end = Clock::now();
    feed_s += Seconds(fed, closing);
    open_close_s += Seconds(start, fed) + Seconds(closing, end);
  }
  in.ingest_ns_per_report = feed_s * 1e9 / in.reports;
  in.shard_open_close_us = open_close_s * 1e6 / w.shards;
  in.reference = session.Snapshot();
  if (w.keyed) {
    for (unsigned c = 0; c < kConnections; ++c) {
      if (session.accountant().Spent(ReporterId(c)) != kEpsilon) {
        Die("reference charged " + ReporterId(c) + " other than eps once");
      }
    }
  }
  if (w.bodies != 0) in.bodies = std::move(bodies);
  return Setup{std::move(*pipeline), std::move(in)};
}

// ---------------------------------------------------------------------------
// The correctness gate.

Status CheckSnapshot(const std::string& actual, const std::string& reference,
                     const char* what) {
  if (actual.size() != reference.size()) {
    return Status::Internal(std::string(what) + ": snapshot size " +
                            std::to_string(actual.size()) + " != reference " +
                            std::to_string(reference.size()));
  }
  const auto mismatch =
      std::mismatch(actual.begin(), actual.end(), reference.begin());
  if (mismatch.first != actual.end()) {
    return Status::Internal(
        std::string(what) + ": snapshot differs from the reference at byte " +
        std::to_string(mismatch.first - actual.begin()));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// One campaign.

// Times every durability hook call into the FrameWal (traced runs only).
class TimedWal : public net::ShardDurabilityHook {
 public:
  explicit TimedWal(relay::FrameWal* wal) : wal_(wal) {}

  void OnShardOpen(size_t shard, uint64_t ordinal, uint32_t epoch,
                   const std::string& reporter_id,
                   const std::string& header_bytes) override {
    Timed timed(this, ordinal);
    wal_->OnShardOpen(shard, ordinal, epoch, reporter_id, header_bytes);
  }
  void OnShardData(size_t shard, const char* data, size_t size) override {
    Timed timed(this, tr::kNoShard);
    wal_->OnShardData(shard, data, size);
  }
  void OnShardClose(size_t shard) override {
    Timed timed(this, tr::kNoShard);
    wal_->OnShardClose(shard);
  }
  void OnShardAbandon(size_t shard) override {
    Timed timed(this, tr::kNoShard);
    wal_->OnShardAbandon(shard);
  }

  double seconds() const { return ns_.load() * 1e-9; }

 private:
  struct Timed {
    Timed(TimedWal* owner, uint64_t shard)
        : owner(owner), span(tr::Name::kWalAppend, shard) {}
    ~Timed() {
      owner->ns_ += static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               start)
              .count());
    }
    TimedWal* owner;
    tr::Span span;
    Clock::time_point start = Clock::now();
  };

  relay::FrameWal* wal_;
  std::atomic<uint64_t> ns_{0};
};

struct Uploader {
  uint64_t cpu_ns = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t accepted = 0;
  uint64_t frames = 0;
  uint64_t rejected = 0;
  std::vector<double> admit_us;
  std::string error;
};

struct CampaignResult {
  bool traced = false;
  double window_s = 0.0;
  double reports_per_s = 0.0;
  double server_cpu_ns_per_report = 0.0;
  double reporter_cpu_ns_per_report = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> admit_us;
  double recover_s = 0.0;
  Status verdict = Status::OK();
  /// Traced campaigns: per-layer metrics.
  std::map<std::string, double> layer;
};

struct Run {
  const Workload& w;
  const Setup& setup;
  uint64_t seed = 0;
  bool bad_hello = false;
};

// Streams one shard's frames on `channel`: pre-encoded bytes, or (for
// full_campaign) users perturbed and encoded inline in kSendBatchBytes
// batches.
Status SendShard(const Run& run, const api::ClientSession& client,
                 net::CollectorClient& connection, uint32_t channel,
                 uint64_t ordinal, MixedTuple* tuple, std::string* batch) {
  const Inputs& in = run.setup.inputs;
  if (run.w.kind != Kind::kFull) {
    const std::string& bytes = in.bodies[ordinal % in.bodies.size()];
    tr::Span span(tr::Name::kSend, ordinal);
    return connection.Send(channel, bytes.data(), bytes.size());
  }
  const IndexRange range = in.users[ordinal];
  for (uint64_t user = range.begin; user < range.end;) {
    batch->clear();
    {
      tr::Span span(tr::Name::kEncode, ordinal);
      for (; user < range.end && batch->size() < kSendBatchBytes; ++user) {
        LDP_RETURN_IF_ERROR(
            AppendUser(client, run.setup.pipeline.config().attributes, run.w,
                       in, run.seed, user, tuple, batch));
      }
    }
    tr::Span span(tr::Name::kSend, ordinal);
    LDP_RETURN_IF_ERROR(connection.Send(channel, batch->data(), batch->size()));
  }
  return Status::OK();
}

// One uploader thread: a closed loop over shards on one connection — HELLO
// (blocking for HELLO_OK), stream, pipelined close — then every verdict.
// Connection c uploads ordinal c first (so every keyed reporter is charged)
// and then claims the next unclaimed ordinal from `next_ordinal`, so an
// uploader on a slow CPU does not hold back the whole campaign. Which
// connection carries an ordinal never changes the snapshot: merges follow
// ordinals, and the ledger records each reporter's charge, not its shards.
void Upload(const Run& run, const net::Endpoint& endpoint, unsigned conn,
            std::atomic<uint64_t>* next_ordinal, Uploader* out) {
  tr::ReporterScope scope;
  const uint64_t cpu_start = RusageNs(RUSAGE_THREAD);
  const api::Pipeline& pipeline = run.setup.pipeline;
  const api::ClientSession client = Unwrap(pipeline.NewClient(), "client");
  net::CollectorClientOptions options;
  if (run.w.keyed) {
    options.reporter_id = ReporterId(conn);
    options.campaign_key = kCampaignKey;
  }
  std::optional<net::CollectorClient> connection;
  std::vector<std::pair<uint32_t, uint64_t>> closing;  // channel, ordinal
  MixedTuple tuple(pipeline.dimension());
  std::string batch;
  const auto fail = [&](const Status& status) {
    ++out->failed;
    if (out->error.empty()) out->error = status.ToString();
  };
  for (uint64_t ordinal = conn; ordinal < run.w.shards;
       ordinal = next_ordinal->fetch_add(1)) {
    ++out->attempted;
    Status admitted = Status::OK();
    uint32_t channel = 0;
    const auto admit_start = Clock::now();
    {
      tr::Span span(tr::Name::kAdmit, ordinal);
      if (!connection) {
        auto connected = net::CollectorClient::Connect(
            endpoint, pipeline.header(), ordinal, options);
        if (connected.ok()) {
          connection.emplace(std::move(connected).value());
        } else {
          admitted = connected.status();
        }
      } else {
        auto opened = connection->OpenShard(pipeline.header(), ordinal);
        if (opened.ok()) {
          channel = opened.value();
        } else {
          admitted = opened.status();
        }
      }
    }
    if (!admitted.ok()) {
      fail(admitted);
      break;
    }
    out->admit_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - admit_start)
            .count());
    Status sent = SendShard(run, client, *connection, channel, ordinal,
                            &tuple, &batch);
    if (sent.ok()) {
      tr::Span span(tr::Name::kCloseBegin, ordinal);
      sent = connection->CloseShardBegin(channel);
    }
    if (!sent.ok()) {
      fail(sent);
      break;
    }
    closing.emplace_back(channel, ordinal);
  }
  for (const auto& [channel, ordinal] : closing) {
    std::optional<Result<net::ShardCloseSummary>> verdict;
    {
      tr::Span span(tr::Name::kAwaitClosed, ordinal);
      verdict.emplace(connection->AwaitShardClosed(channel));
    }
    if (!verdict->ok()) {
      fail(verdict->status());
      break;
    }
    const net::ShardCloseSummary& summary = verdict->value();
    if (!summary.status.ok()) {
      fail(summary.status);
      continue;
    }
    out->accepted += summary.stats.accepted;
    out->frames += summary.stats.frames;
    out->rejected += summary.stats.rejected;
  }
  out->cpu_ns = RusageNs(RUSAGE_THREAD) - cpu_start;
}

// A HELLO under the wrong campaign key (self-test of the failure count):
// true when the collector refused it, as it must.
bool BadHelloRefused(const Run& run, const net::Endpoint& endpoint) {
  net::CollectorClientOptions options;
  options.reporter_id = "intruder";
  options.campaign_key = "not-the-campaign-key";
  auto connected = net::CollectorClient::Connect(
      endpoint, run.setup.pipeline.header(), run.w.shards, options);
  return !connected.ok();
}

double HistogramQuantile(obs::MetricsRegistry* registry, const char* name,
                         double q) {
  return registry->GetHistogram(name)->Quantile(q);
}

double CounterValue(obs::MetricsRegistry* registry, const char* name) {
  return static_cast<double>(registry->GetCounter(name)->Value());
}

CampaignResult RunCampaign(const Run& run, bool traced, int index) {
  const Workload& w = run.w;
  const api::Pipeline& pipeline = run.setup.pipeline;
  const Inputs& in = run.setup.inputs;
  CampaignResult result;
  result.traced = traced;
  if (traced) tr::Global().Start();
  std::unique_ptr<obs::MetricsRegistry> registry;
  if (traced) registry = std::make_unique<obs::MetricsRegistry>();

  api::ServerSessionOptions session_options;
  session_options.ingest_threads = w.ingest_threads;
  session_options.metrics = registry.get();
  api::ServerSession session =
      Unwrap(pipeline.NewServer(session_options), "session");

  const std::string wal_dir = "wal-" + std::to_string(index);
  std::unique_ptr<relay::FrameWal> wal;
  std::unique_ptr<TimedWal> timed_wal;
  std::optional<api::ServerSession> root_session;
  std::unique_ptr<net::ReportServer> root;
  std::unique_ptr<relay::RelayForwarder> forwarder;
  if (w.wal_and_relay) {
    relay::FrameWal::Options wal_options;
    wal_options.expected = &pipeline.header();
    wal_options.metrics = registry.get();
    wal = Unwrap(relay::FrameWal::Open(wal_dir, &session, wal_options, nullptr),
                 "wal");
    if (traced) timed_wal = std::make_unique<TimedWal>(wal.get());
    root_session.emplace(Unwrap(pipeline.NewServer(), "root session"));
    net::ReportServerOptions root_options;
    root_options.accept_snapshots = true;
    root = Unwrap(net::ReportServer::Start(
                      &*root_session, pipeline.header(),
                      {net::Endpoint::Kind::kUnix, "", 0, "root.sock"},
                      root_options),
                  "root server");
  }
  net::ReportServerOptions server_options;
  server_options.acceptors = w.acceptors;
  server_options.expected_shards = w.shards;
  server_options.metrics = registry.get();
  if (w.keyed) server_options.campaign_key = kCampaignKey;
  server_options.wal =
      timed_wal ? static_cast<net::ShardDurabilityHook*>(timed_wal.get())
                : wal.get();
  std::unique_ptr<net::ReportServer> server =
      Unwrap(net::ReportServer::Start(
                 &session, pipeline.header(),
                 {net::Endpoint::Kind::kUnix, "", 0, "edge.sock"},
                 server_options),
             "edge server");
  const net::Endpoint endpoint = server->endpoint();
  if (w.wal_and_relay) {
    relay::RelayForwarderOptions forward_options;
    forward_options.interval_ms = kRelayIntervalMs;
    forward_options.metrics = registry.get();
    forwarder = Unwrap(relay::RelayForwarder::Start(&session, root->endpoint(),
                                                    forward_options),
                       "forwarder");
  }

  // --- timed window: first connect until the estimates are available ------
  std::vector<Uploader> uploaders(kConnections);
  const uint64_t cpu_start = RusageNs(RUSAGE_SELF);
  const auto start = Clock::now();
  if (run.bad_hello) {
    ++result.attempted;
    if (BadHelloRefused(run, endpoint)) {
      ++result.failed;
    } else {
      result.verdict = Status::Internal("a wrong-key HELLO was admitted");
    }
  }
  std::atomic<uint64_t> next_ordinal{kConnections};
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kConnections; ++c) {
    threads.emplace_back(Upload, std::cref(run), std::cref(endpoint), c,
                         &next_ordinal, &uploaders[c]);
  }
  for (std::thread& thread : threads) thread.join();
  {
    tr::Span span(tr::Name::kDrain);
    server->Stop(/*drain=*/true);
  }
  Status flushed = Status::OK();
  Status folded = Status::OK();
  std::optional<Result<api::PipelineEstimates>> estimate;
  if (w.wal_and_relay) {
    {
      tr::Span span(tr::Name::kFlush);
      flushed = forwarder->Stop(/*final_flush=*/true);
    }
    root->Stop(/*drain=*/true);
    {
      tr::Span span(tr::Name::kFold);
      folded = root->FoldRelaySnapshots();
    }
    tr::Span span(tr::Name::kEstimate);
    estimate.emplace(root_session->Estimate(0));
  } else {
    tr::Span span(tr::Name::kEstimate);
    estimate.emplace(session.Estimate(0));
  }
  result.window_s = Seconds(start, Clock::now());
  const uint64_t process_cpu_ns = RusageNs(RUSAGE_SELF) - cpu_start;
  // --- end of window ------------------------------------------------------

  uint64_t reporter_cpu_ns = 0;
  uint64_t accepted = 0;
  uint64_t frames = 0;
  uint64_t rejected = 0;
  for (Uploader& up : uploaders) {
    reporter_cpu_ns += up.cpu_ns;
    result.attempted += up.attempted;
    result.failed += up.failed;
    accepted += up.accepted;
    frames += up.frames;
    rejected += up.rejected;
    result.admit_us.insert(result.admit_us.end(), up.admit_us.begin(),
                           up.admit_us.end());
    if (!up.error.empty() && result.verdict.ok()) {
      result.verdict = Status::Internal("uploader: " + up.error);
    }
  }
  const net::ReportServerStats stats = server->stats();
  const uint64_t server_failures = stats.shards_abandoned +
                                   stats.shards_discarded +
                                   stats.hello_rejected;
  result.failed = std::max(result.failed, server_failures);
  const double reports = static_cast<double>(in.reports);
  result.reports_per_s = static_cast<double>(accepted) / result.window_s;
  result.reporter_cpu_ns_per_report = reporter_cpu_ns / reports;
  result.server_cpu_ns_per_report =
      (static_cast<double>(process_cpu_ns) - reporter_cpu_ns) / reports;

  // --- correctness gate ---------------------------------------------------
  const auto gate = [&](const Status& status) {
    if (result.verdict.ok() && !status.ok()) result.verdict = status;
  };
  gate(flushed);
  gate(folded);
  if (accepted != in.reports) {
    gate(Status::Internal("accepted " + std::to_string(accepted) +
                          " reports, sent " + std::to_string(in.reports)));
  }
  if (!estimate->ok()) {
    gate(estimate->status());
  } else if (estimate->value().num_reports != in.reports) {
    gate(Status::Internal("estimate covers " +
                          std::to_string(estimate->value().num_reports) +
                          " reports, sent " + std::to_string(in.reports)));
  }
  std::string edge_snapshot;
  {
    tr::Span span(tr::Name::kSnapshot);
    edge_snapshot = session.Snapshot();
  }
  gate(CheckSnapshot(edge_snapshot, in.reference, "edge"));
  if (w.keyed) {
    for (unsigned c = 0; c < kConnections; ++c) {
      if (session.accountant().Spent(ReporterId(c)) != kEpsilon) {
        gate(Status::Internal(ReporterId(c) + " was not charged eps once"));
      }
    }
  }

  relay::WalReplaySummary replay;
  if (w.wal_and_relay) {
    std::string root_snapshot;
    {
      tr::Span span(tr::Name::kSnapshot);
      root_snapshot = root_session->Snapshot();
    }
    gate(CheckSnapshot(root_snapshot, in.reference, "root"));
    // The edge is gone; its log must rebuild exactly what it acknowledged.
    server.reset();
    wal.reset();
    api::ServerSession recovered = Unwrap(pipeline.NewServer(), "replay");
    const auto replay_start = Clock::now();
    {
      tr::Span span(tr::Name::kReplay);
      gate(relay::ReplayWalDir(wal_dir, &recovered, &pipeline.header(),
                               nullptr, &replay));
    }
    result.recover_s = Seconds(replay_start, Clock::now());
    gate(CheckSnapshot(recovered.Snapshot(), edge_snapshot, "wal replay"));
    RemoveTree(wal_dir);
  }

  if (traced) {
    tr::Global().Stop();
    const tr::Summary summary = tr::Summarize(tr::Global());
    std::map<std::string, double>& m = result.layer;
    const auto span_s = [&](const char* name) {
      auto it = summary.seconds.find(name);
      return it == summary.seconds.end() ? 0.0 : it->second;
    };
    const auto span_mean_us = [&](const char* name) {
      auto it = summary.count.find(name);
      return it == summary.count.end() || it->second == 0
                 ? 0.0
                 : span_s(name) * 1e6 / it->second;
    };
    const auto self_s = [&](const char* layer) {
      auto it = summary.self_seconds.find(layer);
      return it == summary.self_seconds.end() ? 0.0 : it->second;
    };
    obs::MetricsRegistry* r = registry.get();
    m["core.encode_ns_per_report"] =
        w.kind == Kind::kFull ? span_s("core.encode") * 1e9 / reports
                              : in.encode_ns_per_report;
    m["core.report_bytes"] = static_cast<double>(in.frame_bytes) / reports;
    m["core.self_s"] = self_s("core");
    m["stream.ingest_ns_per_report"] = in.ingest_ns_per_report;
    m["stream.frames"] = static_cast<double>(frames);
    m["stream.rejected"] = static_cast<double>(rejected);
    m["api.shard_open_close_us"] = in.shard_open_close_us;
    m["api.snapshot_us"] = span_mean_us("api.snapshot");
    m["api.estimate_us"] = span_mean_us("api.estimate");
    m["api.close_wait_us.p99"] =
        HistogramQuantile(r, "ldp_session_close_wait_us", 0.99);
    m["api.backpressure_wait_us.p99"] =
        HistogramQuantile(r, "ldp_session_backpressure_wait_us", 0.99);
    m["api.pool_task_us.p50"] = HistogramQuantile(r, "ldp_pool_task_us", 0.5);
    m["api.self_s"] = self_s("api");
    m["net.send_s"] = span_s("net.send");
    m["net.await_closed_s"] = span_s("net.await_closed");
    m["net.drain_s"] = span_s("net.drain");
    m["net.data_read_us.p50"] =
        HistogramQuantile(r, "ldp_net_data_read_us", 0.5);
    m["net.data_read_us.p99"] =
        HistogramQuantile(r, "ldp_net_data_read_us", 0.99);
    m["net.merge_barrier_wait_us.p50"] =
        HistogramQuantile(r, "ldp_net_merge_barrier_wait_us", 0.5);
    m["net.merge_barrier_wait_us.p99"] =
        HistogramQuantile(r, "ldp_net_merge_barrier_wait_us", 0.99);
    m["net.data_messages"] = CounterValue(r, "ldp_net_data_messages_total");
    m["net.shards_merged"] = CounterValue(r, "ldp_net_shards_merged_total");
    m["net.shards_abandoned"] =
        CounterValue(r, "ldp_net_shards_abandoned_total");
    m["net.hello_refused"] = CounterValue(r, "ldp_net_hello_refused_total");
    m["net.self_s"] = self_s("net");
    m["relay.wal_append_s"] = timed_wal ? timed_wal->seconds() : 0.0;
    m["relay.wal_append_us.p99"] =
        HistogramQuantile(r, "ldp_wal_append_us", 0.99);
    m["relay.wal_bytes_per_report"] =
        CounterValue(r, "ldp_wal_bytes_total") / reports;
    m["relay.replay_frames"] = static_cast<double>(replay.frames_replayed);
    m["relay.replay_mib"] = replay.bytes_replayed / (1024.0 * 1024.0);
    m["relay.flush_s"] = span_s("relay.flush");
    m["relay.fold_s"] = span_s("relay.fold");
    const relay::RelayForwarderStats forwarded =
        forwarder ? forwarder->stats() : relay::RelayForwarderStats{};
    m["relay.snapshots_forwarded"] =
        static_cast<double>(forwarded.snapshots_forwarded);
    m["relay.bytes_forwarded"] =
        static_cast<double>(forwarded.bytes_forwarded);
    m["relay.self_s"] = self_s("relay");
    m["trace.coverage"] = summary.coverage;
  }
  return result;
}

// ---------------------------------------------------------------------------
// Entry point.

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;
  std::string trace_out;
  std::string workdir = ".";
  bool bad_hello = false;
  bool selftest = false;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value() == "1";
    } else if (flag == "--scale") {
      args.scale = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--trace-out") {
      args.trace_out = value();
    } else if (flag == "--workdir") {
      args.workdir = value();
    } else if (flag == "--bad-hello") {
      args.bad_hello = true;
    } else if (flag == "--selftest") {
      args.selftest = true;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (!args.selftest && (!have_workload || !have_seed)) {
    Die("usage: perfbench_campaign --workload NAME --seed N --seconds S "
        "--trace 0|1 [--scale F] [--trace-out PATH] [--workdir DIR] "
        "[--bad-hello] | --selftest");
  }
  if (!(args.scale > 0.0 && args.scale <= 1.0)) {
    Die("--scale must be in (0, 1]");
  }
  return args;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<MetricSpec>& specs,
                 const std::map<std::string, double>& values) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : specs) {
    if (!correct) break;
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", values.at(spec.name));
    out += first ? "" : ", ";
    out += JsonString(spec.name) + ": {\"value\": " + number +
           ", \"unit\": " + JsonString(spec.unit) + "}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int SelfTest() {
  // The gate accepts an identical snapshot and rejects any one-byte change.
  const Workload w = *MakeWorkload("bulk_ingest", 0.001);
  const Setup setup = BuildSetup(w, 7, 0.001);
  const std::string& reference = setup.inputs.reference;
  if (!CheckSnapshot(reference, reference, "self").ok()) {
    std::fprintf(stderr, "selftest: identical snapshot rejected\n");
    return 1;
  }
  for (const size_t at : {size_t{0}, reference.size() / 2,
                          reference.size() - 1}) {
    std::string mutated = reference;
    mutated[at] = static_cast<char>(mutated[at] ^ 0x01);
    if (CheckSnapshot(mutated, reference, "self").ok()) {
      std::fprintf(stderr, "selftest: byte %zu flip accepted\n", at);
      return 1;
    }
  }
  if (CheckSnapshot(reference.substr(0, reference.size() - 1), reference,
                    "self")
          .ok()) {
    std::fprintf(stderr, "selftest: truncated snapshot accepted\n");
    return 1;
  }
  std::printf("selftest: ok\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  if (args.selftest) return SelfTest();
  const std::optional<Workload> workload = MakeWorkload(args.workload,
                                                        args.scale);
  if (!workload) Die("unknown workload " + args.workload);
  const Workload& w = *workload;

  // Sockets and WAL directories live in a per-pid directory under the
  // work dir, removed at exit (run.py removes the work dir after a Die), so
  // no run sees another run's files.
  const std::string dir =
      args.workdir + "/perfbench-" + std::to_string(::getpid());
  char* absolute = ::mkdir(dir.c_str(), 0700) == 0
                       ? ::realpath(dir.c_str(), nullptr)
                       : nullptr;
  if (absolute == nullptr || ::chdir(absolute) != 0) {
    Die("cannot create " + dir);
  }
  const std::string tmp = absolute;
  std::free(absolute);
  struct Cleanup {
    std::string dir;
    ~Cleanup() { RemoveTree(dir); }
  } cleanup{tmp};

  // --- setup, repeated: setup_s is the median ------------------------------
  std::vector<double> setup_s;
  std::optional<Setup> setup;
  const auto setups_start = Clock::now();
  for (int i = 0; i < kMaxSetups; ++i) {
    if (i >= kMinSetups &&
        Seconds(setups_start, Clock::now()) >= kSetupBudgetS) {
      break;
    }
    std::string reference;
    uint64_t fingerprint = 0;
    if (setup) {
      reference = std::move(setup->inputs.reference);
      fingerprint = setup->inputs.fingerprint;
      setup.reset();
    }
    const auto start = Clock::now();
    setup.emplace(BuildSetup(w, args.seed, args.scale));
    setup_s.push_back(Seconds(start, Clock::now()));
    if (i > 0 && (setup->inputs.reference != reference ||
                  setup->inputs.fingerprint != fingerprint)) {
      Die("setup is not deterministic in the seed");
    }
  }
  const Run run{w, *setup, args.seed, args.bad_hello};

  const BuildInfo& build = GetBuildInfo();
  const bool release = std::string(build.build_type) == "Release";
  if (!release) {
    std::fprintf(stderr, "perfbench: WARNING: %s build, not Release\n",
                 build.build_type);
  }

  // The resident high-water mark is reset once setup is done: peak_rss_mib
  // is its growth over the campaigns.
  ResetPeakRss();
  const double rss_base_mib = StatusMiB("VmRSS");

  // --- campaigns ------------------------------------------------------------
  std::vector<CampaignResult> results;
  int index = 0;
  const CampaignResult warmup = RunCampaign(run, false, index++);
  uint64_t attempted = warmup.attempted;
  uint64_t failed = warmup.failed;
  Status verdict = warmup.verdict;
  const auto timed_start = Clock::now();
  while (verdict.ok()) {
    const bool traced = args.trace && index % 2 == 0;
    results.push_back(RunCampaign(run, traced, index++));
    const CampaignResult& last = results.back();
    std::fprintf(stderr,
                 "campaign %d%s: %.4f s, %.6g reports/s, server %.4g ns, "
                 "reporter %.4g ns per report, VmHWM %.1f MiB\n",
                 index - 1, traced ? " (traced)" : "", last.window_s,
                 last.reports_per_s, last.server_cpu_ns_per_report,
                 last.reporter_cpu_ns_per_report, StatusMiB("VmHWM"));
    attempted += results.back().attempted;
    failed += results.back().failed;
    if (!results.back().verdict.ok()) verdict = results.back().verdict;
    size_t counted = 0;
    for (const CampaignResult& r : results) {
      counted += (!args.trace || r.traced) ? 1 : 0;
    }
    if (Seconds(timed_start, Clock::now()) >= args.seconds &&
        counted >= static_cast<size_t>(kMinCampaigns) &&
        (!args.trace || results.size() >= 2 * counted)) {
      break;
    }
  }

  std::printf(
      "stamp {\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
      "\"scale\": %g, \"nproc\": %u, \"cpu_model\": %s, \"build\": %s, "
      "\"release_build\": %s, \"connections\": %u, \"uploader_threads\": %u, "
      "\"acceptors\": %u, \"ingest_threads\": %u, \"shards\": %llu, "
      "\"reports_per_campaign\": %llu, \"setups\": %zu, \"campaigns\": %zu, "
      "\"input_fingerprint\": \"%016llx\"}\n",
      JsonString(w.name).c_str(), static_cast<unsigned long long>(args.seed),
      args.trace ? 1 : 0, args.scale, std::thread::hardware_concurrency(),
      JsonString(ReadProcField("/proc/cpuinfo", "model name")).c_str(),
      BuildInfoJson().c_str(), release ? "true" : "false", kConnections,
      kConnections, w.acceptors, w.ingest_threads,
      static_cast<unsigned long long>(w.shards),
      static_cast<unsigned long long>(setup->inputs.reports), setup_s.size(),
      results.size(),
      static_cast<unsigned long long>(setup->inputs.fingerprint));

  if (!verdict.ok()) {
    std::fprintf(stderr, "perfbench: correctness gate failed: %s\n",
                 verdict.ToString().c_str());
    PrintResult(false, attempted, failed, {}, {});
    return 1;
  }

  std::map<std::string, double> values;
  const auto median_of = [&](bool traced,
                             const std::function<double(const CampaignResult&)>&
                                 get) {
    std::vector<double> sample;
    for (const CampaignResult& r : results) {
      if (r.traced == traced) sample.push_back(get(r));
    }
    return Median(sample);
  };
  if (!args.trace) {
    values["setup_s"] = Median(setup_s);
    values["reports_per_s"] = median_of(
        false, [](const CampaignResult& r) { return r.reports_per_s; });
    values["server_cpu_ns_per_report"] = median_of(
        false,
        [](const CampaignResult& r) { return r.server_cpu_ns_per_report; });
    values["reporter_cpu_ns_per_report"] = median_of(
        false,
        [](const CampaignResult& r) { return r.reporter_cpu_ns_per_report; });
    values["peak_rss_mib"] = StatusMiB("VmHWM") - rss_base_mib;
    PrintResult(true, attempted, failed, kEndToEnd, values);
    return 0;
  }

  for (const MetricSpec& spec : kPerLayer) {
    std::vector<double> sample;
    for (const CampaignResult& r : results) {
      auto it = r.layer.find(spec.name);
      if (r.traced && it != r.layer.end()) sample.push_back(it->second);
    }
    values[spec.name] = Median(sample);
  }
  // Admission latency and recovery time come from the untraced campaigns.
  std::vector<double> admit_us;
  for (const CampaignResult& r : results) {
    if (!r.traced) admit_us.insert(admit_us.end(), r.admit_us.begin(),
                                   r.admit_us.end());
  }
  const bool admissions = admit_us.size() >= kMinAdmissionSamples;
  values["admit_p50_us"] = admissions ? Quantile(admit_us, 0.5) : 0.0;
  values["admit_p99_us"] = admissions ? Quantile(admit_us, 0.99) : 0.0;
  values["admit_samples"] = static_cast<double>(admit_us.size());
  values["recover_s"] =
      median_of(false, [](const CampaignResult& r) { return r.recover_s; });
  values["fail_ratio"] =
      static_cast<double>(failed) / static_cast<double>(attempted);
  const double untraced_rps =
      median_of(false, [](const CampaignResult& r) { return r.reports_per_s; });
  const double traced_rps =
      median_of(true, [](const CampaignResult& r) { return r.reports_per_s; });
  values["trace.overhead_pct"] =
      (untraced_rps - traced_rps) / untraced_rps * 100.0;
  if (!args.trace_out.empty() &&
      !tr::WriteJsonLines(tr::Global(), args.trace_out)) {
    Die("cannot write spans to " + args.trace_out);
  }
  PrintResult(true, attempted, failed, kPerLayer, values);
  return 0;
}

// Streaming-ingestion throughput: how fast the server half decodes framed
// shard streams and folds reports into the aggregator. This is the paper's
// deployment story at scale — millions of users send one wire report each;
// the aggregator must keep up at line rate.
//
// Sweeps both stream kinds the server speaks: mixed streams across oracle
// kinds (GRR / SUE / OUE / OLH / HE — the payload encodings differ by
// orders of magnitude in bytes/report) and the Algorithm-4 numeric stream
// kind, × shard counts (1 shard = the single-core hot loop; more shards
// exercise concurrent decode and the shard merges). Every row drives
// api::ServerSession, the one ingest engine under ldp_aggregate and every
// transport, and measures its full path (chunk feed → frame scan →
// zero-copy wire decode → validation → aggregator accumulation → shard
// merge) over pre-encoded in-memory shards, so client-side
// perturbation cost is excluded.
//
//   LDP_BENCH_USERS   total reports across shards (default 1000000)
//   LDP_BENCH_FAST=1  shrink for smoke runs (100000)
//
// Emits one BENCH_stream_ingest.json next to the binary for trend tracking.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/pipeline.h"
#include "api/server_session.h"
#include "bench_util.h"
#include "core/sampled_numeric.h"
#include "obs/metrics.h"
#include "stream/report_stream.h"
#include "util/build_info.h"
#include "util/random.h"
#include "util/threadpool.h"

namespace {

using namespace ldp;  // NOLINT: benchmark binary

constexpr size_t kChunkBytes = 256 * 1024;

api::Pipeline MakePipeline(std::vector<MixedAttribute> attributes,
                           FrequencyOracleKind oracle) {
  api::PipelineConfig config;
  config.attributes = std::move(attributes);
  config.epsilon = 4.0;
  config.mechanism = MechanismKind::kHybrid;
  config.oracle = oracle;
  auto pipeline = api::Pipeline::Create(std::move(config));
  if (!pipeline.ok()) {
    std::fprintf(stderr, "%s\n", pipeline.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(pipeline).value();
}

// A census-like 8-attribute mixed schema; `oracle` picks the categorical
// frequency oracle under sweep.
api::Pipeline MakeMixedPipeline(FrequencyOracleKind oracle) {
  return MakePipeline(
      {MixedAttribute::Numeric(), MixedAttribute::Categorical(8),
       MixedAttribute::Numeric(), MixedAttribute::Categorical(16),
       MixedAttribute::Numeric(), MixedAttribute::Categorical(4),
       MixedAttribute::Numeric(), MixedAttribute::Categorical(32)},
      oracle);
}

// Times `shards` through a fresh session built with `options`, the way a
// network frontend delivers them: every shard opened up front, fed in
// kChunkBytes pieces round-robin across shards, then closed (merged) in
// shard order. Session construction (pool start-up) is outside the clock.
// Returns the seconds taken, or a negative value when the session refused
// anything or lost reports.
double TimeSessionIngest(const api::Pipeline& pipeline,
                         const std::vector<std::string>& shards,
                         uint64_t reports,
                         const api::ServerSessionOptions& options) {
  auto server = pipeline.NewServer(options);
  if (!server.ok()) {
    std::fprintf(stderr, "%s\n", server.status().ToString().c_str());
    return -1.0;
  }
  api::ServerSession& session = server.value();

  const auto started = std::chrono::steady_clock::now();
  std::vector<size_t> ids;
  std::vector<size_t> offsets(shards.size(), 0);
  ids.reserve(shards.size());
  for (size_t s = 0; s < shards.size(); ++s) {
    ids.push_back(session.OpenShard());
  }
  for (bool fed = true; fed;) {
    fed = false;
    for (size_t s = 0; s < shards.size(); ++s) {
      const size_t left = shards[s].size() - offsets[s];
      if (left == 0) continue;
      const size_t take = std::min(kChunkBytes, left);
      if (!session.Feed(ids[s], shards[s].data() + offsets[s], take).ok()) {
        std::fprintf(stderr, "session feed failed\n");
        return -1.0;
      }
      offsets[s] += take;
      fed = true;
    }
  }
  for (const size_t id : ids) {
    const Status closed = session.CloseShard(id);
    if (!closed.ok()) {
      std::fprintf(stderr, "session close failed: %s\n",
                   closed.ToString().c_str());
      return -1.0;
    }
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();
  auto ingested = session.num_reports(0);
  if (!ingested.ok() || ingested.value() != reports) {
    std::fprintf(stderr, "session ingest dropped reports: expected %llu\n",
                 static_cast<unsigned long long>(reports));
    return -1.0;
  }
  return seconds;
}

std::vector<std::string> EncodeShards(const MixedTupleCollector& collector,
                                      uint64_t reports, size_t num_shards) {
  MixedTuple tuple(collector.dimension());
  for (uint32_t j = 0; j < collector.dimension(); ++j) {
    if (collector.schema()[j].type == AttributeType::kNumeric) {
      tuple[j] = AttributeValue::Numeric(0.25);
    } else {
      tuple[j] =
          AttributeValue::Categorical(j % collector.schema()[j].domain_size);
    }
  }
  std::vector<std::string> shards;
  const std::vector<IndexRange> ranges = SplitRange(reports, num_shards);
  for (size_t s = 0; s < ranges.size(); ++s) {
    std::ostringstream out;
    stream::ReportStreamWriter writer(
        &out, stream::MakeMixedStreamHeader(collector));
    Rng rng(1000 + s);
    for (uint64_t i = ranges[s].begin; i < ranges[s].end; ++i) {
      if (!writer.WriteMixedReport(collector.Perturb(tuple, &rng), collector)
               .ok()) {
        std::fprintf(stderr, "encode failed\n");
        std::exit(1);
      }
    }
    shards.push_back(out.str());
  }
  return shards;
}

// An 8-attribute all-numeric schema at the same ε, exercising the
// Algorithm-4 numeric stream kind end to end.
std::vector<std::string> EncodeNumericShards(
    const SampledNumericMechanism& mechanism, uint64_t reports,
    size_t num_shards) {
  std::vector<double> tuple(mechanism.dimension());
  for (uint32_t j = 0; j < mechanism.dimension(); ++j) {
    tuple[j] = (j % 2 == 0) ? 0.25 : -0.5;
  }
  std::vector<std::string> shards;
  const std::vector<IndexRange> ranges = SplitRange(reports, num_shards);
  for (size_t s = 0; s < ranges.size(); ++s) {
    std::ostringstream out;
    stream::ReportStreamWriter writer(
        &out,
        stream::MakeNumericStreamHeader(mechanism, MechanismKind::kHybrid));
    Rng rng(1000 + s);
    for (uint64_t i = ranges[s].begin; i < ranges[s].end; ++i) {
      if (!writer.WriteNumericReport(mechanism.Perturb(tuple, &rng)).ok()) {
        std::fprintf(stderr, "encode failed\n");
        std::exit(1);
      }
    }
    shards.push_back(out.str());
  }
  return shards;
}

struct SweepResult {
  const char* kind = "mixed";
  const char* oracle = "";
  size_t shards = 0;
  unsigned threads = 0;
  double bytes_per_report = 0.0;
  double seconds = 0.0;
  double reports_per_sec = 0.0;
  double mib_per_sec = 0.0;
  /// Telemetry sweep only: metrics-on slowdown vs the metrics-off row, in
  /// percent (0 everywhere else).
  double overhead_pct = 0.0;
};

// Fills `row`'s size and speed columns from `shards` and `seconds`, prints
// it under `label`, and appends it to `results`.
void Record(const char* label, const std::vector<std::string>& shards,
            uint64_t reports, double seconds, SweepResult row,
            std::vector<SweepResult>* results) {
  uint64_t total_bytes = 0;
  for (const std::string& shard : shards) total_bytes += shard.size();
  row.bytes_per_report =
      static_cast<double>(total_bytes) / static_cast<double>(reports);
  row.seconds = seconds;
  row.reports_per_sec = static_cast<double>(reports) / seconds;
  row.mib_per_sec =
      static_cast<double>(total_bytes) / seconds / (1024.0 * 1024.0);
  results->push_back(row);
  std::printf("%-8s %8zu %8u %10.1f %10.3f %14.0f %10.1f\n", label, row.shards,
              row.threads, row.bytes_per_report, row.seconds,
              row.reports_per_sec, row.mib_per_sec);
}

}  // namespace

int main() {
  bench::BenchConfig config = bench::ResolveConfig();
  // This harness defaults to paper scale: 1M reports even without
  // LDP_BENCH_USERS (the figure harnesses default to 50k).
  uint64_t reports = 1000000;
  if (std::getenv("LDP_BENCH_USERS") != nullptr) reports = config.users;
  if (const char* fast = std::getenv("LDP_BENCH_FAST");
      fast != nullptr && std::string(fast) == "1" &&
      std::getenv("LDP_BENCH_USERS") == nullptr) {
    reports = 100000;
  }

  const unsigned hardware = std::thread::hardware_concurrency();
  std::vector<size_t> shard_counts = {1, 4};
  if (hardware > 4) shard_counts.push_back(hardware);

  const struct {
    FrequencyOracleKind kind;
    const char* name;
  } kOracles[] = {
      {FrequencyOracleKind::kOue, "OUE"}, {FrequencyOracleKind::kGrr, "GRR"},
      {FrequencyOracleKind::kSue, "SUE"}, {FrequencyOracleKind::kOlh, "OLH"},
      {FrequencyOracleKind::kHe, "HE"},
  };

  std::printf("=== Streaming shard ingestion: oracle x shard sweep ===\n");
  std::printf("(reports: %llu, schema: 8 attributes, eps = 4)\n\n",
              static_cast<unsigned long long>(reports));
  std::printf("%-8s %8s %8s %10s %10s %14s %10s\n", "oracle", "shards",
              "threads", "B/report", "seconds", "reports/s", "MiB/s");

  std::vector<SweepResult> results;
  for (const auto& oracle : kOracles) {
    const api::Pipeline pipeline = MakeMixedPipeline(oracle.kind);
    for (const size_t num_shards : shard_counts) {
      const std::vector<std::string> shards =
          EncodeShards(pipeline.mixed_collector(), reports, num_shards);

      const unsigned threads = std::min(static_cast<unsigned>(num_shards),
                                        std::max(hardware, 1u));
      api::ServerSessionOptions options;
      options.ingest_threads = threads;
      const double seconds =
          TimeSessionIngest(pipeline, shards, reports, options);
      if (seconds < 0.0) return 1;

      SweepResult row;
      row.oracle = oracle.name;
      row.shards = num_shards;
      row.threads = threads;
      Record(oracle.name, shards, reports, seconds, row, &results);
    }
  }

  // Algorithm-4 numeric stream kind over the same shard sweep.
  const api::Pipeline numeric_pipeline = MakePipeline(
      std::vector<MixedAttribute>(8, MixedAttribute::Numeric()),
      FrequencyOracleKind::kOue);
  for (const size_t num_shards : shard_counts) {
    const std::vector<std::string> shards = EncodeNumericShards(
        *numeric_pipeline.numeric_mechanism(), reports, num_shards);

    const unsigned threads = std::min(static_cast<unsigned>(num_shards),
                                      std::max(hardware, 1u));
    api::ServerSessionOptions options;
    options.ingest_threads = threads;
    const double seconds =
        TimeSessionIngest(numeric_pipeline, shards, reports, options);
    if (seconds < 0.0) return 1;

    SweepResult row;
    row.kind = "numeric";
    row.oracle = "-";
    row.shards = num_shards;
    row.threads = threads;
    Record("NUMERIC", shards, reports, seconds, row, &results);
  }

  // Concurrent ServerSession sweep: a fixed 8 mixed shards as
  // session_threads grows (enqueue -> strand decode -> drain -> ordered
  // merge).
  {
    const api::Pipeline pipeline =
        MakeMixedPipeline(FrequencyOracleKind::kOue);
    constexpr size_t kSessionShards = 8;
    const std::vector<std::string> shards =
        EncodeShards(pipeline.mixed_collector(), reports, kSessionShards);

    std::vector<unsigned> thread_sweep = {1, 2, 4};
    if (hardware >= 8) thread_sweep.push_back(8);
    for (const unsigned session_threads : thread_sweep) {
      api::ServerSessionOptions options;
      options.ingest_threads = session_threads;
      const double seconds =
          TimeSessionIngest(pipeline, shards, reports, options);
      if (seconds < 0.0) return 1;

      SweepResult row;
      row.kind = "session";
      row.oracle = "OUE";
      row.shards = kSessionShards;
      row.threads = session_threads;
      Record("SESSION", shards, reports, seconds, row, &results);
    }
  }

  // Telemetry overhead: the single-shard OUE hot loop on a synchronous
  // session with telemetry off vs on over the same pre-encoded buffer, min
  // of repeats. The per-thread-sharded counters are flushed as deltas once
  // per Feed chunk, so the on-row should track the off-row closely.
  {
    const api::Pipeline pipeline =
        MakeMixedPipeline(FrequencyOracleKind::kOue);
    const std::vector<std::string> shards =
        EncodeShards(pipeline.mixed_collector(), reports, 1);

    constexpr int kRepeats = 3;
    auto best_of = [&](obs::MetricsRegistry* registry,
                       double* out_seconds) -> bool {
      api::ServerSessionOptions options;
      options.metrics = registry;
      double best = 0.0;
      for (int r = 0; r < kRepeats; ++r) {
        const double seconds =
            TimeSessionIngest(pipeline, shards, reports, options);
        if (seconds < 0.0) return false;
        if (r == 0 || seconds < best) best = seconds;
      }
      *out_seconds = best;
      return true;
    };

    double off_seconds = 0.0, on_seconds = 0.0;
    if (!best_of(nullptr, &off_seconds)) return 1;
    obs::MetricsRegistry registry;
    if (!best_of(&registry, &on_seconds)) return 1;
    const obs::Counter* accepted =
        obs::IngestMetrics::ForRegistry(&registry).accepted;
    if (accepted->Value() != reports * static_cast<uint64_t>(kRepeats)) {
      std::fprintf(stderr, "metrics lost reports: counter %llu\n",
                   static_cast<unsigned long long>(accepted->Value()));
      return 1;
    }
    const double overhead_pct =
        off_seconds > 0.0 ? (on_seconds - off_seconds) / off_seconds * 100.0
                          : 0.0;

    for (const bool metrics_on : {false, true}) {
      SweepResult row;
      row.kind = metrics_on ? "metrics_on" : "metrics_off";
      row.oracle = "OUE";
      row.shards = 1;
      row.threads = 1;
      if (metrics_on) row.overhead_pct = overhead_pct;
      Record(metrics_on ? "OBS-ON" : "OBS-OFF", shards, reports,
             metrics_on ? on_seconds : off_seconds, row, &results);
    }
    std::printf("telemetry overhead: %+.2f%% (min of %d runs)\n",
                overhead_pct, kRepeats);
  }

  // Machine-readable trend line.
  FILE* json = std::fopen("BENCH_stream_ingest.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n  \"benchmark\": \"stream_ingest\",\n"
                 "  \"build\": %s,\n"
                 "  \"reports\": %llu,\n  \"runs\": [\n",
                 BuildInfoJson().c_str(),
                 static_cast<unsigned long long>(reports));
    for (size_t i = 0; i < results.size(); ++i) {
      std::fprintf(
          json,
          "    {\"kind\": \"%s\", \"oracle\": \"%s\", \"shards\": %zu, "
          "\"threads\": %u, \"bytes_per_report\": %.1f, \"seconds\": %.6f, "
          "\"reports_per_sec\": %.0f, \"mib_per_sec\": %.1f, "
          "\"overhead_pct\": %.2f}%s\n",
          results[i].kind, results[i].oracle, results[i].shards,
          results[i].threads, results[i].bytes_per_report, results[i].seconds,
          results[i].reports_per_sec, results[i].mib_per_sec,
          results[i].overhead_pct, i + 1 < results.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("\nwrote BENCH_stream_ingest.json\n");
  }
  return 0;
}

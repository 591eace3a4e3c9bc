#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench::trace {
namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

const char* NameString(Name name) {
  switch (name) {
    case Name::kEncode: return "core.encode";
    case Name::kAdmit: return "net.admit";
    case Name::kSend: return "net.send";
    case Name::kCloseBegin: return "net.close_begin";
    case Name::kAwaitClosed: return "net.await_closed";
    case Name::kDrain: return "net.drain";
    case Name::kSnapshot: return "api.snapshot";
    case Name::kEstimate: return "api.estimate";
    case Name::kWalAppend: return "relay.wal_append";
    case Name::kFlush: return "relay.flush";
    case Name::kFold: return "relay.fold";
    case Name::kReplay: return "relay.replay";
    case Name::kCount: break;
  }
  return "unknown";
}

std::string LayerOf(Name name) {
  const std::string full = NameString(name);
  return full.substr(0, full.find('.'));
}

void Recorder::Start() {
  std::lock_guard<std::mutex> lock(mutex_);
  logs_.clear();
  generation_.fetch_add(1, std::memory_order_acq_rel);
  enabled_.store(true, std::memory_order_relaxed);
}

ThreadLog* Recorder::Local() {
  thread_local ThreadLog* cached = nullptr;
  thread_local uint64_t cached_generation = 0;
  const uint64_t generation = generation_.load(std::memory_order_acquire);
  if (cached_generation != generation) {
    std::lock_guard<std::mutex> lock(mutex_);
    logs_.push_back(std::make_unique<ThreadLog>());
    logs_.back()->thread = static_cast<uint32_t>(logs_.size() - 1);
    cached = logs_.back().get();
    cached_generation = generation;
  }
  return cached;
}

std::vector<const ThreadLog*> Recorder::Logs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<const ThreadLog*> logs;
  for (const auto& log : logs_) logs.push_back(log.get());
  return logs;
}

Recorder& Global() {
  static Recorder recorder;
  return recorder;
}

Span::Span(Name name, uint64_t shard) {
  Recorder& recorder = Global();
  if (!recorder.enabled()) return;
  log_ = recorder.Local();
  SpanRecord record;
  record.name = name;
  record.parent = log_->open.empty() ? -1 : log_->open.back();
  record.shard = shard;
  index_ = static_cast<int32_t>(log_->spans.size());
  log_->open.push_back(index_);
  record.start_ns = NowNs();
  log_->spans.push_back(record);
}

Span::~Span() {
  if (log_ == nullptr) return;
  log_->spans[static_cast<size_t>(index_)].end_ns = NowNs();
  log_->open.pop_back();
}

ReporterScope::ReporterScope() {
  Recorder& recorder = Global();
  if (!recorder.enabled()) return;
  log_ = recorder.Local();
  log_->role = "reporter";
  log_->begin_ns = NowNs();
}

ReporterScope::~ReporterScope() {
  if (log_ != nullptr) log_->end_ns = NowNs();
}

Summary Summarize(const Recorder& recorder) {
  Summary summary;
  double coverage_sum = 0.0;
  size_t reporters = 0;
  for (const ThreadLog* log : recorder.Logs()) {
    std::vector<uint64_t> child_ns(log->spans.size(), 0);
    uint64_t top_level_ns = 0;
    for (const SpanRecord& span : log->spans) {
      const uint64_t duration = span.end_ns - span.start_ns;
      if (span.parent >= 0) {
        child_ns[static_cast<size_t>(span.parent)] += duration;
      } else {
        top_level_ns += duration;
      }
    }
    for (size_t i = 0; i < log->spans.size(); ++i) {
      const SpanRecord& span = log->spans[i];
      const uint64_t duration = span.end_ns - span.start_ns;
      summary.seconds[NameString(span.name)] += duration * 1e-9;
      ++summary.count[NameString(span.name)];
      summary.self_seconds[LayerOf(span.name)] +=
          (duration - std::min(duration, child_ns[i])) * 1e-9;
    }
    if (log->role == "reporter" && log->end_ns > log->begin_ns) {
      coverage_sum += static_cast<double>(top_level_ns) /
                      static_cast<double>(log->end_ns - log->begin_ns);
      ++reporters;
    }
  }
  summary.coverage = reporters == 0 ? 0.0 : coverage_sum / reporters;
  return summary;
}

bool WriteJsonLines(const Recorder& recorder, const std::string& path) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const ThreadLog* log : recorder.Logs()) {
    for (const SpanRecord& span : log->spans) {
      std::fprintf(out,
                   "{\"name\":\"%s\",\"thread\":%u,\"role\":\"%s\","
                   "\"start_ns\":%llu,\"end_ns\":%llu,\"parent\":%d",
                   NameString(span.name), log->thread, log->role.c_str(),
                   static_cast<unsigned long long>(span.start_ns),
                   static_cast<unsigned long long>(span.end_ns), span.parent);
      if (span.shard != kNoShard) {
        std::fprintf(out, ",\"shard\":%llu",
                     static_cast<unsigned long long>(span.shard));
      }
      std::fprintf(out, "}\n");
    }
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench::trace

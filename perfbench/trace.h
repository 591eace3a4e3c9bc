// In-memory span recorder for the traced benchmark run.
//
// Spans wrap only the library's public calls, from the benchmark's own code:
// nothing inside src/ is instrumented. Each span records its name, the thread
// it ran on, start and end on the steady clock, its parent (the span open on
// the same thread when it began) and the shard ordinal it belongs to, so the
// spans of one shard share an id. Spans stay in per-thread buffers until the
// run ends and are then summarised and written out.
//
// When the recorder is disabled a Span costs one relaxed atomic load, which
// is what lets the untraced run keep the span sites compiled in.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench::trace {

/// The wrapped calls. The prefix before the first '.' of each name is the
/// repository module (layer) the call belongs to.
enum class Name : uint8_t {
  kEncode,       ///< core: ClientSession::EncodeReport + stream::AppendFrame
  kAdmit,        ///< net: CollectorClient::Connect / OpenShard (HELLO RTT)
  kSend,         ///< net: CollectorClient::Send
  kCloseBegin,   ///< net: CollectorClient::CloseShardBegin
  kAwaitClosed,  ///< net: CollectorClient::AwaitShardClosed
  kDrain,        ///< net: ReportServer::Stop(drain)
  kSnapshot,     ///< api: ServerSession::Snapshot
  kEstimate,     ///< api: ServerSession::Estimate
  kWalAppend,    ///< relay: one FrameWal hook call
  kFlush,        ///< relay: RelayForwarder::Stop(final_flush)
  kFold,         ///< relay: ReportServer::FoldRelaySnapshots
  kReplay,       ///< relay: relay::ReplayWalDir
  kCount,
};

const char* NameString(Name name);

/// "core", "net", "api" or "relay".
std::string LayerOf(Name name);

inline constexpr uint64_t kNoShard = ~uint64_t{0};

struct SpanRecord {
  Name name = Name::kCount;
  int32_t parent = -1;  ///< Index in the same thread's log, -1 at top level.
  uint64_t shard = kNoShard;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// One thread's spans. `role` is "reporter" for generator threads (their
/// begin/end bound the coverage check) and "server" otherwise.
struct ThreadLog {
  uint32_t thread = 0;
  std::string role = "server";
  uint64_t begin_ns = 0;
  uint64_t end_ns = 0;
  std::vector<SpanRecord> spans;
  std::vector<int32_t> open;  ///< Stack of open span indices.
};

class Recorder {
 public:
  /// Drops every recorded span and starts recording. Call only while no
  /// span is open on any thread (between campaigns).
  void Start();

  /// Stops recording; the spans recorded so far stay readable.
  void Stop() { enabled_.store(false, std::memory_order_relaxed); }

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// The calling thread's log for the current recording (created on first
  /// use after a Start).
  ThreadLog* Local();

  /// Every log of the current recording. Call only once the threads that
  /// wrote them have been joined.
  std::vector<const ThreadLog*> Logs() const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> generation_{1};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

Recorder& Global();

/// RAII span; a no-op while the recorder is disabled.
class Span {
 public:
  explicit Span(Name name, uint64_t shard = kNoShard);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  ThreadLog* log_ = nullptr;
  int32_t index_ = -1;
};

/// Marks the calling thread as a reporter for the scope's lifetime.
class ReporterScope {
 public:
  ReporterScope();
  ~ReporterScope();
  ReporterScope(const ReporterScope&) = delete;
  ReporterScope& operator=(const ReporterScope&) = delete;

 private:
  ThreadLog* log_ = nullptr;
};

/// What one recording adds up to.
struct Summary {
  /// Per span name: summed duration (s) and count.
  std::map<std::string, double> seconds;
  std::map<std::string, uint64_t> count;
  /// Per layer: summed self time (s) — a span's duration minus the part its
  /// children cover.
  std::map<std::string, double> self_seconds;
  /// Mean over reporter threads of the share of the thread's wall time that
  /// its top-level spans cover.
  double coverage = 0.0;
};

Summary Summarize(const Recorder& recorder);

/// Writes every span as one JSON object per line; false on I/O failure.
bool WriteJsonLines(const Recorder& recorder, const std::string& path);

}  // namespace perfbench::trace

#endif  // PERFBENCH_TRACE_H_

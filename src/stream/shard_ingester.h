// ShardIngester: the server-side consumer of one framed report stream
// (stream/report_stream.h). Bytes are fed incrementally — network-buffer
// style — and reports are folded into an AggregatorHandle as soon as their
// frame completes, so memory stays O(schema + one frame) no matter how many
// reports the shard carries. The handle abstracts the stream kind: the same
// framing state machine serves Section IV-C mixed streams (MixedAggregator)
// and Algorithm-4 numeric streams (NumericAggregator).
//
// Hot-path design: the header and every whole frame are decoded IN PLACE
// from the caller's buffer — their bytes are never copied anywhere. Each
// Feed hands the run of whole frames it carries to the handle in one
// AggregatorHandle::AcceptFrames call, which validates every frame on its
// wire bytes and adds it straight into the aggregate's integer arrays (no
// per-frame virtual call, payload copy or Status; see aggregator_handle.h).
// The run stops at a rejected frame only so the ingester can apply the
// policy below at exactly that frame. Only the partial item straddling a
// Feed boundary is staged, length prefix included, in a power-of-two ring
// buffer (util/ringbuf.h) whose read head advances without memmoving
// retained bytes; once whole, a staged frame goes through AcceptFrames like
// any other. The steady-state accept path performs zero heap allocations.
//
// Failure policy: violations of the *framing* layer (bad magic or version,
// header/collector mismatch, oversized frame length, bytes missing at
// Finish) are unrecoverable — the frame boundaries themselves can no longer
// be trusted — and poison the ingester. A frame whose *payload* fails report
// validation (core/wire.h rejects it) only increments the rejected counter
// and is skipped, unless Options::strict is set or the rejection budget
// Options::max_rejected is exhausted; a malicious client can therefore not
// abort a shard shared with honest reports.

#ifndef LDP_STREAM_SHARD_INGESTER_H_
#define LDP_STREAM_SHARD_INGESTER_H_

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "core/mixed_collector.h"
#include "core/sampled_numeric.h"
#include "core/wire.h"
#include "obs/metrics.h"
#include "stream/aggregator_handle.h"
#include "stream/report_stream.h"
#include "util/ringbuf.h"
#include "util/status.h"

namespace ldp::stream {

/// Decodes one report stream into an AggregatorHandle, incrementally.
class ShardIngester {
 public:
  struct Options {
    /// Fail the stream on the first undecodable report payload instead of
    /// skipping it.
    bool strict = false;
    /// Maximum number of undecodable payloads tolerated before the stream
    /// fails anyway (guards against shards that are mostly garbage).
    uint64_t max_rejected = std::numeric_limits<uint64_t>::max();
    /// Optional registry-backed telemetry (obs/metrics.h), typically shared
    /// by every shard of a session. Stats *deltas* are flushed once per
    /// Feed/Finish call — chunk granularity — so the per-frame accept loop
    /// touches no atomics and stays allocation-free. All-null = off.
    obs::IngestMetrics metrics;
  };

  struct Stats {
    uint64_t bytes = 0;     ///< Total bytes consumed, header included.
    uint64_t frames = 0;    ///< Completed frames seen.
    uint64_t accepted = 0;  ///< Reports folded into the aggregator.
    uint64_t rejected = 0;  ///< Frames whose payload failed validation.
  };

  /// Mixed-stream ingester. `collector` must outlive the ingester; the
  /// stream header is validated against it before any report is accepted.
  explicit ShardIngester(const MixedTupleCollector* collector)
      : ShardIngester(collector, Options()) {}
  ShardIngester(const MixedTupleCollector* collector, Options options);

  /// Algorithm-4 numeric-stream ingester. `mechanism` must outlive the
  /// ingester; `kind` names the scalar mechanism it was created with.
  ShardIngester(const SampledNumericMechanism* mechanism, MechanismKind kind)
      : ShardIngester(mechanism, kind, Options()) {}
  ShardIngester(const SampledNumericMechanism* mechanism, MechanismKind kind,
                Options options);

  /// Generic form over any aggregation handle (the Pipeline sessions use
  /// this to hand every shard its own accumulator).
  explicit ShardIngester(std::unique_ptr<AggregatorHandle> handle)
      : ShardIngester(std::move(handle), Options()) {}
  ShardIngester(std::unique_ptr<AggregatorHandle> handle, Options options);

  /// Consumes `size` bytes of the stream. May be called with arbitrarily
  /// small or large chunks; returns the sticky stream status. Complete
  /// frames inside `data` are decoded in place without copying.
  Status Feed(const char* data, size_t size);
  Status Feed(const std::string& bytes) {
    return Feed(bytes.data(), bytes.size());
  }

  /// Declares end-of-stream: fails if the stream is already poisoned, ended
  /// mid-frame, or never carried a full header.
  Status Finish();

  /// Convenience loop: feeds `in` to completion in fixed-size chunks and
  /// calls Finish.
  Status IngestStream(std::istream& in);

  /// True once the header has been parsed and validated.
  bool header_seen() const { return state_ != State::kHeader; }

  /// The stream header; only meaningful once header_seen().
  const StreamHeader& header() const { return header_; }

  /// The accumulated aggregate of a mixed-stream ingester (checked). Valid
  /// at any point during ingestion (it reflects every report accepted so
  /// far). Numeric-stream callers use handle() / numeric_aggregator().
  const MixedAggregator& aggregator() const;

  /// The accumulated aggregate of a numeric-stream ingester (checked).
  const NumericAggregator& numeric_aggregator() const;

  /// The kind-agnostic aggregate.
  const AggregatorHandle& handle() const { return *handle_; }

  /// Transfers the aggregate out of the ingester (for shard drivers that
  /// reduce handles themselves). The ingester must not be fed afterwards.
  std::unique_ptr<AggregatorHandle> ReleaseHandle() {
    return std::move(handle_);
  }

  const Stats& stats() const { return stats_; }

 private:
  // kFrame: a frame of 4 + frame_length_ bytes (prefix included) is being
  // staged across Feed calls.
  enum class State { kHeader, kFrameLength, kFrame };

  /// Bytes the current staged item needs before it can be consumed.
  size_t NeedBytes() const;

  /// Parses and validates the kStreamHeaderBytes header at `data`.
  Status ConsumeHeader(const char* data);

  /// Reads the length prefix at `data`, poisoning on an oversized frame;
  /// enters kFrame.
  Status ReadFrameLength(const char* data);

  /// Hands the whole frames at `data` to the handle, run by run, applying
  /// the rejection policy to each rejected frame; sets `*consumed` to the
  /// bytes of whole frames taken.
  Status AcceptFrames(const char* data, size_t size, size_t* consumed);

  /// Counts one rejected frame and applies the strict/max_rejected policy.
  Status Reject(const char* reason);

  /// The pre-telemetry Feed body; Feed wraps it with a metrics flush.
  Status FeedChunk(const char* data, size_t size);

  /// Flushes stats_ − published_ to the Options::metrics counters.
  void PublishMetrics();

  Status Poison(Status status);

  Options options_;
  std::unique_ptr<AggregatorHandle> handle_;
  StreamHeader header_;
  Stats stats_;
  Stats published_;  // the prefix of stats_ already flushed to metrics
  Status failed_ = Status::OK();  // sticky framing-layer error
  State state_ = State::kHeader;
  RingBuffer staged_;         // the partial item straddling Feed boundaries
  std::string wrap_scratch_;  // reused backing for wrapped ring reads
  uint32_t frame_length_ = 0;
};

}  // namespace ldp::stream

#endif  // LDP_STREAM_SHARD_INGESTER_H_

// AggregatorHandle: the polymorphic server-side aggregation surface that
// lets one stream stack (ShardIngester and the Pipeline sessions) serve
// every report-stream kind the wire header can carry. A handle owns one
// shard-or-epoch's worth of accumulated state and knows how to validate a
// stream header against its protocol, decode-and-fold a run of whole frames,
// merge a compatible handle or encoded snapshot, and answer estimate
// queries.
//
// Frames are accepted a chunk at a time: AcceptFrames is the only virtual
// call on the ingest path, made once per run of whole frames. Inside it the
// mixed handle switches on the collector's oracle kind once and then runs
// the wire decoder (core/wire.h) over the concrete oracle class with the
// aggregator as its sink, so each frame is validated on its wire bytes and
// added straight into the aggregate's integer arrays — no per-frame virtual
// call, payload copy or Status.
//
// Two implementations exist, mirroring the paper's two collection paths:
// MixedAggregatorHandle (Section IV-C mixed tuples over MixedAggregator) and
// NumericAggregatorHandle (Algorithm-4 numeric tuples over
// NumericAggregator). Both are thin: the arithmetic lives in the wrapped
// aggregators, so folding frames through a handle is bit-identical to using
// the aggregator directly.

#ifndef LDP_STREAM_AGGREGATOR_HANDLE_H_
#define LDP_STREAM_AGGREGATOR_HANDLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/mixed_collector.h"
#include "core/numeric_aggregator.h"
#include "core/sampled_numeric.h"
#include "core/wire.h"
#include "stream/report_stream.h"
#include "util/result.h"

namespace ldp::stream {

class MixedAggregatorHandle;
class NumericAggregatorHandle;

/// What one AcceptFrames call did with a run of frames.
struct FrameRun {
  /// Bytes of whole frames taken, length prefixes and a rejected frame
  /// included.
  size_t consumed = 0;
  /// Frames folded into the aggregate.
  uint64_t accepted = 0;
  /// Null, or the static reason the run's last frame was rejected (the
  /// run stops right after it; nothing of that frame was folded in).
  const char* rejection = nullptr;
};

/// One shard's (or epoch's) aggregation state, behind the stream kind.
///
/// Thread-compatibility: not internally synchronised; one handle per
/// shard/thread, merged by a single reducer.
class AggregatorHandle {
 public:
  virtual ~AggregatorHandle() = default;

  /// The stream kind this handle aggregates.
  virtual ReportStreamKind kind() const = 0;

  /// Validates a decoded stream header against this handle's protocol
  /// (kind, ε, dimension, k, mechanism/oracle kinds, schema hash).
  virtual Status ValidateHeader(const StreamHeader& header) const = 0;

  /// Decodes the whole frames (`u32 length` + payload) at the start of
  /// `data` in place and folds each valid report in. Stops before the first
  /// frame that is cut short by `size` or whose length exceeds
  /// kMaxFrameBytes (the caller owns framing), and right after the first
  /// rejected frame, which changes no state (all-or-nothing). Zero heap
  /// allocations.
  virtual FrameRun AcceptFrames(const char* data, size_t size) = 0;

  /// Merges another handle of the same kind built from a compatible
  /// protocol; FailedPrecondition otherwise.
  virtual Status Merge(const AggregatorHandle& other) = 0;

  /// A fresh, empty handle sharing this handle's protocol objects — the
  /// factory ServerSession uses to give every shard and input its own
  /// accumulator.
  virtual std::unique_ptr<AggregatorHandle> CloneEmpty() const = 0;

  /// Serialises the accumulated state (stream/snapshot.h formats).
  virtual std::string EncodeSnapshot() const = 0;

  /// Decodes `bytes` as a snapshot of this handle's kind and merges it in.
  virtual Status MergeEncodedSnapshot(const std::string& bytes) = 0;

  /// Number of reports accumulated.
  virtual uint64_t num_reports() const = 0;

  /// Unbiased mean estimate of numeric attribute `attribute`.
  virtual Result<double> EstimateMean(uint32_t attribute) const = 0;

  /// Unbiased frequency estimates of categorical attribute `attribute`;
  /// InvalidArgument on numeric streams (they carry no categorical state).
  virtual Result<std::vector<double>> EstimateFrequencies(
      uint32_t attribute) const = 0;

  /// Checked downcasts (null when the handle is of the other kind).
  virtual const MixedAggregatorHandle* AsMixed() const { return nullptr; }
  virtual const NumericAggregatorHandle* AsNumeric() const { return nullptr; }
};

/// Section IV-C mixed streams: MixedFrameDecoder::Decode<Oracle> →
/// MixedAggregator.
class MixedAggregatorHandle final : public AggregatorHandle {
 public:
  /// `collector` must outlive the handle.
  explicit MixedAggregatorHandle(const MixedTupleCollector* collector);

  ReportStreamKind kind() const override { return ReportStreamKind::kMixed; }
  Status ValidateHeader(const StreamHeader& header) const override;
  FrameRun AcceptFrames(const char* data, size_t size) override;
  Status Merge(const AggregatorHandle& other) override;
  std::unique_ptr<AggregatorHandle> CloneEmpty() const override;
  std::string EncodeSnapshot() const override;
  Status MergeEncodedSnapshot(const std::string& bytes) override;
  uint64_t num_reports() const override { return aggregator_.num_reports(); }
  Result<double> EstimateMean(uint32_t attribute) const override;
  Result<std::vector<double>> EstimateFrequencies(
      uint32_t attribute) const override;
  const MixedAggregatorHandle* AsMixed() const override { return this; }

  const MixedAggregator& aggregator() const { return aggregator_; }
  MixedAggregator& aggregator() { return aggregator_; }

 private:
  MixedAggregator aggregator_;
  MixedFrameDecoder decoder_;
};

/// Algorithm-4 numeric streams: NumericFrameDecoder::Decode →
/// NumericAggregator.
class NumericAggregatorHandle final : public AggregatorHandle {
 public:
  /// `mechanism` must outlive the handle; `kind` names the scalar mechanism
  /// it was created with (carried in headers and snapshots).
  NumericAggregatorHandle(const SampledNumericMechanism* mechanism,
                          MechanismKind mechanism_kind);

  ReportStreamKind kind() const override {
    return ReportStreamKind::kSampledNumeric;
  }
  Status ValidateHeader(const StreamHeader& header) const override;
  FrameRun AcceptFrames(const char* data, size_t size) override;
  Status Merge(const AggregatorHandle& other) override;
  std::unique_ptr<AggregatorHandle> CloneEmpty() const override;
  std::string EncodeSnapshot() const override;
  Status MergeEncodedSnapshot(const std::string& bytes) override;
  uint64_t num_reports() const override { return aggregator_.num_reports(); }
  Result<double> EstimateMean(uint32_t attribute) const override;
  Result<std::vector<double>> EstimateFrequencies(
      uint32_t attribute) const override;
  const NumericAggregatorHandle* AsNumeric() const override { return this; }

  const NumericAggregator& aggregator() const { return aggregator_; }
  NumericAggregator& aggregator() { return aggregator_; }
  MechanismKind mechanism_kind() const { return mechanism_kind_; }

 private:
  NumericAggregator aggregator_;
  NumericFrameDecoder decoder_;
  MechanismKind mechanism_kind_;
};

}  // namespace ldp::stream

#endif  // LDP_STREAM_AGGREGATOR_HANDLE_H_

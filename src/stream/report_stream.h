// Framed report-stream format: the on-the-wire representation of a shard of
// privatized reports, written by client devices (tools/ldp_report) and
// ingested by the aggregation server (stream/shard_ingester.h,
// tools/ldp_aggregate).
//
// A stream is a fixed-size validated header followed by length-prefixed
// frames, each carrying one wire-encoded report (core/wire.h). The header
// pins down the protocol configuration — report kind, mechanism and oracle
// kinds, ε, dimension, sample count k, and a hash of the full collection
// schema — so a server can reject a mismatched client before decoding a
// single report.
//
// Layout (all integers little-endian):
//   header: u32 magic 'LDPS', u16 version, u8 kind, u8 mechanism, u8 oracle,
//           f64 epsilon, u32 dimension, u32 k, u64 schema_hash
//   frame:  u32 payload_length (<= kMaxFrameBytes), payload bytes
// The stream ends at EOF on a frame boundary; a partial trailing frame is a
// framing error.

#ifndef LDP_STREAM_REPORT_STREAM_H_
#define LDP_STREAM_REPORT_STREAM_H_

#include <cstdint>
#include <iosfwd>
#include <string>

#include "core/mixed_collector.h"
#include "core/sampled_numeric.h"
#include "util/result.h"

namespace ldp::stream {

/// What kind of reports a stream carries.
enum class ReportStreamKind : uint8_t {
  kMixed = 0,           ///< Section IV-C MixedReports.
  kSampledNumeric = 1,  ///< Algorithm-4 SampledNumericReports.
};

/// Human-readable stream kind ("mixed", "numeric").
const char* ReportStreamKindToString(ReportStreamKind kind);

/// 'LDPS' little-endian.
inline constexpr uint32_t kStreamMagic = 0x5350444cu;
inline constexpr uint16_t kStreamVersion = 1;

/// Serialized size of a stream header in bytes.
inline constexpr size_t kStreamHeaderBytes = 4 + 2 + 1 + 1 + 1 + 8 + 4 + 4 + 8;

/// Upper bound on a single frame's payload; anything larger is treated as a
/// framing attack / corruption rather than buffered.
inline constexpr uint32_t kMaxFrameBytes = 1u << 20;

/// The validated preamble of a report stream.
struct StreamHeader {
  ReportStreamKind kind = ReportStreamKind::kMixed;
  MechanismKind mechanism = MechanismKind::kHybrid;
  /// Meaningful for mixed streams only; kOue on numeric streams.
  FrequencyOracleKind oracle = FrequencyOracleKind::kOue;
  double epsilon = 0.0;
  uint32_t dimension = 0;
  uint32_t k = 0;
  uint64_t schema_hash = 0;
};

/// FNV-1a hash of a mixed collector's full protocol configuration (ε, d, k,
/// mechanism/oracle kinds, and every attribute's type and domain). Two
/// collectors hash equal iff they are CompatibleWith each other.
uint64_t CollectorSchemaHash(const MixedTupleCollector& collector);

/// FNV-1a hash of an Algorithm-4 configuration (all-numeric schema).
uint64_t NumericSchemaHash(const SampledNumericMechanism& mechanism,
                           MechanismKind kind);

/// Builds the header describing streams produced by `collector`.
StreamHeader MakeMixedStreamHeader(const MixedTupleCollector& collector);

/// Builds the header describing Algorithm-4 streams from `mechanism`;
/// `kind` names the scalar mechanism it was created with.
StreamHeader MakeNumericStreamHeader(const SampledNumericMechanism& mechanism,
                                     MechanismKind kind);

/// Serialises a header to its kStreamHeaderBytes wire form.
std::string EncodeStreamHeader(const StreamHeader& header);

/// Parses and validates a serialised header (magic, version, finite ε,
/// non-zero dimension, k in [1, dimension], known enum values). Requires
/// exactly kStreamHeaderBytes.
Result<StreamHeader> DecodeStreamHeader(const char* data, size_t size);
Result<StreamHeader> DecodeStreamHeader(const std::string& bytes);

/// Checks that a decoded header matches the server's collector: mixed kind,
/// equal ε / dimension / k / mechanism / oracle, and equal schema hash.
/// Returns FailedPrecondition naming the first mismatch.
Status ValidateMixedStreamHeader(const StreamHeader& header,
                                 const MixedTupleCollector& collector);

/// Checks that a decoded header matches the server's Algorithm-4 mechanism:
/// numeric kind, equal ε / dimension / k / mechanism kind, and equal schema
/// hash. Returns FailedPrecondition naming the first mismatch.
Status ValidateNumericStreamHeader(const StreamHeader& header,
                                   const SampledNumericMechanism& mechanism,
                                   MechanismKind kind);

/// Checks that a peer's header names exactly the protocol `expected` does
/// (kind, mechanism, oracle, ε, dimension, k, schema hash), returning
/// FailedPrecondition naming the first mismatch. The transport edge uses
/// this to refuse a mismatched reporter at HELLO time, before any report
/// bytes are decoded.
Status CheckHeadersCompatible(const StreamHeader& expected,
                              const StreamHeader& actual);

/// Appends one length-prefixed frame to `out`. Fails on payloads above
/// kMaxFrameBytes.
Status AppendFrame(const std::string& payload, std::string* out);

/// In-place framing, for payloads written straight into `out`: BeginFrame
/// appends a placeholder length prefix and returns the frame's offset, the
/// caller appends the payload, and EndFrame patches the length in. A
/// payload above kMaxFrameBytes truncates `out` back to the frame's offset
/// and fails with AppendFrame's InvalidArgument.
size_t BeginFrame(std::string* out);
Status EndFrame(size_t frame_at, std::string* out);

/// Client-side stream producer over any std::ostream. Writes the header on
/// construction; one Write* call per user report.
class ReportStreamWriter {
 public:
  /// Writes `header` to `out` immediately. `out` must outlive the writer.
  ReportStreamWriter(std::ostream* out, const StreamHeader& header);

  /// Encodes and frames one mixed report; `collector` supplies the schema.
  Status WriteMixedReport(const MixedReport& report,
                          const MixedTupleCollector& collector);

  /// Encodes and frames one Algorithm-4 numeric report.
  Status WriteNumericReport(const SampledNumericReport& report);

  /// Frames an already-encoded payload: the length prefix, then the
  /// payload, written to the stream without an intermediate copy.
  Status WriteFrame(const std::string& payload);

  /// Frames written so far (excluding the header).
  uint64_t frames_written() const { return frames_written_; }

  /// Total bytes written, header included.
  uint64_t bytes_written() const { return bytes_written_; }

 private:
  std::ostream* out_;
  uint64_t frames_written_ = 0;
  uint64_t bytes_written_ = 0;
};

/// Pull-based stream consumer over any std::istream; the counterpart of
/// ReportStreamWriter for callers that want raw frames (the push-based
/// ShardIngester is the usual server entry point).
class ReportStreamReader {
 public:
  /// `in` must outlive the reader.
  explicit ReportStreamReader(std::istream* in);

  /// Reads and validates the stream header; must be called first.
  Result<StreamHeader> ReadHeader();

  /// Reads the next frame into `payload`. Returns true on a frame, false on
  /// clean EOF, and an error on a framing violation (oversized length,
  /// partial trailing frame).
  Result<bool> NextFrame(std::string* payload);

 private:
  std::istream* in_;
  bool header_read_ = false;
};

}  // namespace ldp::stream

#endif  // LDP_STREAM_REPORT_STREAM_H_

// Wire format for privatized reports: a compact, validated byte encoding so
// the client half (user devices) and the server half (aggregator) of the
// protocols can actually be deployed across a network. Encoding is
// little-endian with explicit lengths; decoding validates every length and
// range against the collector's schema and returns Status on malformed or
// truncated input (never trusting the payload).
//
// Layout (all integers little-endian):
//   SampledNumericReport: u16 entry_count, then per entry
//     u32 attribute, f64 value.
//   MixedReport: u16 entry_count, then per entry
//     u32 attribute, u8 kind (0 numeric / 1 categorical),
//     numeric:     f64 value
//     categorical: u16 payload_count, u32 payload[...]
//
// Mixed reports have one validator, MixedFrameDecoder::Decode, templated
// over the oracle class and the sink. The server's ingest path instantiates
// it with the aggregator as the sink, validating and accumulating straight
// from the frame's bytes; the materializing DecodeMixedReport (tools and
// tests) instantiates it with a sink that rebuilds a MixedReport. The two
// can therefore never diverge on what they accept.
//
// Clients write reports in place (MixedTupleCollector::PerturbInto and
// SampledNumericMechanism::PerturbInto, behind api::ClientSession). The
// Encode* functions below serialise a materialized report instead; they are
// the reference the in-place writers are tested against.

#ifndef LDP_CORE_WIRE_H_
#define LDP_CORE_WIRE_H_

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/mixed_collector.h"
#include "core/numeric_aggregator.h"
#include "core/sampled_numeric.h"
#include "frequency/frequency_oracle.h"
#include "util/little_endian.h"
#include "util/result.h"

namespace ldp {

namespace internal_wire {

// The little-endian writers (util/little_endian.h) are shared by the report
// codecs here and the stream framing layer (stream/). The reader tracks a
// cursor and fails closed on truncation.

class Reader {
 public:
  Reader(const char* data, size_t size) : data_(data), size_(size) {}
  explicit Reader(const std::string& bytes)
      : Reader(bytes.data(), bytes.size()) {}

  Result<uint8_t> U8() {
    if (cursor_ + 1 > size_) return Truncated();
    return static_cast<uint8_t>(data_[cursor_++]);
  }

  Result<uint16_t> U16() {
    if (cursor_ + 2 > size_) return Truncated();
    const uint16_t value = LoadLittleEndian<uint16_t>(data_ + cursor_);
    cursor_ += 2;
    return value;
  }

  Result<uint32_t> U32() {
    if (cursor_ + 4 > size_) return Truncated();
    const uint32_t value = LoadLittleEndian<uint32_t>(data_ + cursor_);
    cursor_ += 4;
    return value;
  }

  Result<uint64_t> U64() {
    if (cursor_ + 8 > size_) return Truncated();
    const uint64_t value = LoadLittleEndian<uint64_t>(data_ + cursor_);
    cursor_ += 8;
    return value;
  }

  Result<double> F64() {
    uint64_t bits = 0;
    LDP_ASSIGN_OR_RETURN(bits, U64());
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
  }

  // Status-free variants for hot decode loops: a Result<T> carries a Status
  // (with a std::string member) per read, which is measurable overhead at
  // tens of millions of reads per second. These return false on truncation
  // and leave `out` untouched; callers surface one Status for the whole
  // frame instead of one per primitive.

  bool TryU8(uint8_t* out) {
    if (cursor_ + 1 > size_) return false;
    *out = static_cast<uint8_t>(data_[cursor_++]);
    return true;
  }

  bool TryU16(uint16_t* out) {
    if (cursor_ + 2 > size_) return false;
    *out = LoadLittleEndian<uint16_t>(data_ + cursor_);
    cursor_ += 2;
    return true;
  }

  bool TryU32(uint32_t* out) {
    if (cursor_ + 4 > size_) return false;
    *out = LoadLittleEndian<uint32_t>(data_ + cursor_);
    cursor_ += 4;
    return true;
  }

  bool TryF64(double* out) {
    if (cursor_ + 8 > size_) return false;
    const uint64_t bits = LoadLittleEndian<uint64_t>(data_ + cursor_);
    cursor_ += 8;
    std::memcpy(out, &bits, sizeof(*out));
    return true;
  }

  /// Returns a pointer to the next `count` raw bytes and advances past them,
  /// or nullptr when fewer remain.
  const char* TakeBytes(size_t count) {
    if (cursor_ + count > size_) return nullptr;
    const char* bytes = data_ + cursor_;
    cursor_ += count;
    return bytes;
  }

  bool AtEnd() const { return cursor_ == size_; }
  size_t cursor() const { return cursor_; }

 private:
  static Status Truncated() {
    return Status::InvalidArgument("truncated report");
  }

  const char* data_;
  size_t size_;
  size_t cursor_ = 0;
};

/// Entry-kind tags of the mixed-report layout above.
constexpr uint8_t kNumericEntry = 0;
constexpr uint8_t kCategoricalEntry = 1;

}  // namespace internal_wire

/// Serialises an Algorithm-4 numeric report.
std::string EncodeSampledNumericReport(const SampledNumericReport& report);

/// Numeric-report decoder, the Algorithm-4 counterpart of MixedFrameDecoder:
/// validates one wire frame end to end (entry count == k, attribute
/// indices, scaled value bounds, duplicate attributes) and only then replays
/// the entries into a sink — a sink never observes a partially valid report.
/// Scratch is pre-reserved for k entries, so steady-state decoding performs
/// zero heap allocations. One decoder per stream/thread; not thread-safe.
class NumericFrameDecoder {
 public:
  /// `mechanism` must outlive the decoder.
  explicit NumericFrameDecoder(const SampledNumericMechanism* mechanism);

  /// Validates `data` as one encoded numeric report and, only if it is
  /// valid, streams it into `sink`: sink->OnReportBegin(k), then one
  /// sink->OnEntry(attribute, value) per entry (NumericAggregator is such a
  /// sink). Returns null on success, else the static rejection message.
  template <typename Sink>
  const char* Decode(const char* data, size_t size, Sink* sink);

  /// Decode, with a rejection returned as InvalidArgument(message).
  template <typename Sink>
  Status DecodeInto(const char* data, size_t size, Sink* sink) {
    const char* rejection = Decode(data, size, sink);
    if (rejection != nullptr) return Status::InvalidArgument(rejection);
    return Status::OK();
  }

 private:
  const SampledNumericMechanism* mechanism_;
  double value_bound_;                 // ScaledValueBound of the mechanism
  std::vector<SampledValue> entries_;  // staged entries, <= k
};

/// Parses a serialised numeric report, validating attribute indices against
/// `mechanism`'s dimension, the entry count against its k, and every value
/// against the mechanism's scaled output bound (a thin materializing wrapper
/// over NumericFrameDecoder, so the two can never diverge on what they
/// accept). The (data, size) overload parses in place.
Result<SampledNumericReport> DecodeSampledNumericReport(
    const char* data, size_t size, const SampledNumericMechanism& mechanism);
Result<SampledNumericReport> DecodeSampledNumericReport(
    const std::string& bytes, const SampledNumericMechanism& mechanism);

/// Serialises a Section IV-C mixed report; `collector` supplies the schema
/// that tags each entry as numeric or categorical (an empty categorical
/// oracle report is legal and indistinguishable from a numeric entry without
/// the schema). The output buffer is reserved to the exact encoded size.
std::string EncodeMixedReport(const MixedReport& report,
                              const MixedTupleCollector& collector);

/// The one mixed-report validator. Decode checks a whole frame on its wire
/// bytes — entry count == k, attribute indices, entry kinds, numeric bounds,
/// oracle payload shapes (FrequencyOracle::ValidateView on the frame's own
/// little-endian words), duplicate attributes, trailing bytes — and only
/// then replays it into a sink, so a sink never observes a partially valid
/// report. Nothing is copied: a categorical entry is kept as a ReportView
/// into the frame. The only scratch is the k staged entries, reserved up
/// front, so decoding performs zero heap allocations. The server's ingest
/// path (stream/aggregator_handle.h) runs Decode with MixedAggregator as the
/// sink; DecodeInto and DecodeMixedReport run the same Decode over a
/// MixedReportSink. One decoder per stream/thread; not thread-safe.
class MixedFrameDecoder {
 public:
  /// `collector` must outlive the decoder.
  explicit MixedFrameDecoder(const MixedTupleCollector* collector);

  /// Validates `data` as one encoded mixed report under the rules of
  /// `Oracle`: FrequencyOracle (virtual calls), or the concrete class of
  /// every categorical oracle of the collector, so that its checks inline.
  /// Only if every entry is valid, streams it into `sink`:
  /// sink->OnReportBegin(k), then per entry
  /// sink->OnNumericEntry(attribute, value) or
  /// sink->OnCategoricalEntry(attribute, const Oracle&, ReportView) (the
  /// view aliases `data`). Returns null on success, else the static
  /// rejection message; on rejection the sink receives no callbacks.
  template <typename Oracle, typename Sink>
  const char* Decode(const char* data, size_t size, Sink* sink);

  /// Decode<FrequencyOracle> over a MixedReportSink (the categorical payload
  /// is materialized for it), with a rejection returned as
  /// InvalidArgument(message).
  Status DecodeInto(const char* data, size_t size, MixedReportSink* sink);

 private:
  // One entry vetted by pass 1, staged until the whole frame is valid.
  struct PendingEntry {
    uint32_t attribute = 0;
    bool numeric = false;
    uint16_t payload_count = 0;     // categorical: words at `payload`
    double numeric_value = 0.0;     // numeric
    const char* payload = nullptr;  // categorical: into the frame
    const FrequencyOracle* oracle = nullptr;  // categorical
  };

  const MixedTupleCollector* collector_;
  double value_bound_;                 // ScaledValueBound of the mechanism
  std::vector<PendingEntry> entries_;  // staged entries, <= k
};

/// Convenience one-shot wrapper over MixedFrameDecoder for callers without a
/// persistent decoder.
Status DecodeMixedReportInto(const char* data, size_t size,
                             const MixedTupleCollector& collector,
                             MixedReportSink* sink);

/// Parses a serialised mixed report, validating entry kinds, attribute
/// indices and oracle payloads against `collector`'s schema and the entry
/// count against its k (a thin materializing wrapper over MixedFrameDecoder,
/// the reference the ingest path is tested against). The (data, size)
/// overload parses in place.
Result<MixedReport> DecodeMixedReport(const char* data, size_t size,
                                      const MixedTupleCollector& collector);
Result<MixedReport> DecodeMixedReport(const std::string& bytes,
                                      const MixedTupleCollector& collector);

template <typename Sink>
const char* NumericFrameDecoder::Decode(const char* data, size_t size,
                                        Sink* sink) {
  // Pass 1: parse and validate the whole frame into reused scratch; nothing
  // reaches the sink until every entry has been vetted.
  constexpr const char* kTruncated = "truncated report";
  entries_.clear();
  internal_wire::Reader reader(data, size);
  uint16_t count = 0;
  if (!reader.TryU16(&count)) return kTruncated;
  if (count != mechanism_->k()) return "report must carry exactly k entries";
  for (uint16_t i = 0; i < count; ++i) {
    SampledValue entry;
    if (!reader.TryU32(&entry.attribute)) return kTruncated;
    if (!reader.TryF64(&entry.value)) return kTruncated;
    if (entry.attribute >= mechanism_->dimension()) {
      return "attribute index out of range";
    }
    if (!std::isfinite(entry.value) || std::abs(entry.value) > value_bound_) {
      return "value outside the mechanism's range";
    }
    for (const SampledValue& previous : entries_) {
      if (previous.attribute == entry.attribute) {
        return "duplicate attribute in report";
      }
    }
    entries_.push_back(entry);
  }
  if (!reader.AtEnd()) return "trailing bytes after report";

  // Pass 2: the frame is valid; replay it into the sink.
  sink->OnReportBegin(count);
  for (const SampledValue& entry : entries_) {
    sink->OnEntry(entry.attribute, entry.value);
  }
  return nullptr;
}

template <typename Oracle, typename Sink>
const char* MixedFrameDecoder::Decode(const char* data, size_t size,
                                      Sink* sink) {
  // Pass 1: validate every entry on the frame's own bytes. Nothing reaches
  // the sink until all of them are vetted, preserving the all-or-nothing
  // rejection rule.
  constexpr const char* kTruncated = "truncated report";
  entries_.clear();
  internal_wire::Reader reader(data, size);
  uint16_t count = 0;
  if (!reader.TryU16(&count)) return kTruncated;
  if (count != collector_->k()) return "report must carry exactly k entries";
  for (uint16_t i = 0; i < count; ++i) {
    PendingEntry entry;
    if (!reader.TryU32(&entry.attribute)) return kTruncated;
    if (entry.attribute >= collector_->dimension()) {
      return "attribute index out of range";
    }
    const MixedAttribute& spec = collector_->schema()[entry.attribute];
    uint8_t kind = 0;
    if (!reader.TryU8(&kind)) return kTruncated;
    if (kind == internal_wire::kNumericEntry) {
      if (spec.type != AttributeType::kNumeric) {
        return "numeric entry for categorical attribute";
      }
      entry.numeric = true;
      if (!reader.TryF64(&entry.numeric_value)) return kTruncated;
      if (!std::isfinite(entry.numeric_value) ||
          std::abs(entry.numeric_value) > value_bound_) {
        return "value outside the mechanism's range";
      }
    } else if (kind == internal_wire::kCategoricalEntry) {
      if (spec.type != AttributeType::kCategorical) {
        return "categorical entry for numeric attribute";
      }
      entry.oracle = collector_->oracle_for(entry.attribute);
      const Oracle& oracle = static_cast<const Oracle&>(*entry.oracle);
      if (!reader.TryU16(&entry.payload_count)) return kTruncated;
      // Shape bound before reading a single element: a hostile length costs
      // no parse work beyond the oracle's own maximum.
      if (entry.payload_count > oracle.MaxReportSize()) {
        return "oracle payload longer than the oracle can emit";
      }
      entry.payload =
          reader.TakeBytes(4 * static_cast<size_t>(entry.payload_count));
      if (entry.payload == nullptr) return kTruncated;
      // Oracle-specific shape/range validation: without it a hostile
      // payload could make AccumulateView index out of bounds.
      const char* rejection =
          oracle.ValidateView(ReportView(entry.payload, entry.payload_count));
      if (rejection != nullptr) return rejection;
    } else {
      return "unknown entry kind";
    }
    for (const PendingEntry& previous : entries_) {
      if (previous.attribute == entry.attribute) {
        return "duplicate attribute in report";
      }
    }
    entries_.push_back(entry);
  }
  if (!reader.AtEnd()) return "trailing bytes after report";

  // Pass 2: the frame is valid; replay it into the sink.
  sink->OnReportBegin(count);
  for (const PendingEntry& entry : entries_) {
    if (entry.numeric) {
      sink->OnNumericEntry(entry.attribute, entry.numeric_value);
    } else {
      sink->OnCategoricalEntry(
          entry.attribute, static_cast<const Oracle&>(*entry.oracle),
          ReportView(entry.payload, entry.payload_count));
    }
  }
  return nullptr;
}

}  // namespace ldp

#endif  // LDP_CORE_WIRE_H_

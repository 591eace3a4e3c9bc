#include "core/wire.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "core/fixed_point.h"

namespace ldp {

namespace {

using internal_wire::kCategoricalEntry;
using internal_wire::kNumericEntry;
using internal_wire::PutF64;
using internal_wire::PutU16;
using internal_wire::PutU32;
using internal_wire::PutU8;

}  // namespace

std::string EncodeSampledNumericReport(const SampledNumericReport& report) {
  std::string out;
  out.reserve(2 + report.size() * 12);
  PutU16(&out, static_cast<uint16_t>(report.size()));
  for (const SampledValue& entry : report) {
    PutU32(&out, entry.attribute);
    PutF64(&out, entry.value);
  }
  return out;
}

NumericFrameDecoder::NumericFrameDecoder(
    const SampledNumericMechanism* mechanism)
    : mechanism_(mechanism),
      value_bound_(
          ScaledValueBound(mechanism->dimension(), mechanism->k(),
                           mechanism->scalar_mechanism().OutputBound())) {
  entries_.reserve(mechanism_->k());
}

namespace {

// Sink that rebuilds the heap-allocated SampledNumericReport representation;
// the backing store of the classic DecodeSampledNumericReport API.
class MaterializingNumericSink {
 public:
  void OnReportBegin(uint32_t entry_count) { report_.reserve(entry_count); }
  void OnEntry(uint32_t attribute, double value) {
    report_.push_back(SampledValue{attribute, value});
  }

  SampledNumericReport Take() { return std::move(report_); }

 private:
  SampledNumericReport report_;
};

}  // namespace

Result<SampledNumericReport> DecodeSampledNumericReport(
    const std::string& bytes, const SampledNumericMechanism& mechanism) {
  return DecodeSampledNumericReport(bytes.data(), bytes.size(), mechanism);
}

Result<SampledNumericReport> DecodeSampledNumericReport(
    const char* data, size_t size, const SampledNumericMechanism& mechanism) {
  NumericFrameDecoder decoder(&mechanism);
  MaterializingNumericSink sink;
  LDP_RETURN_IF_ERROR(decoder.DecodeInto(data, size, &sink));
  return sink.Take();
}

std::string EncodeMixedReport(const MixedReport& report,
                              const MixedTupleCollector& collector) {
  // Exact encoded size, so serialization never reallocates mid-report.
  size_t encoded_size = 2;
  for (const MixedReportEntry& entry : report) {
    const bool numeric =
        entry.attribute < collector.dimension() &&
        collector.schema()[entry.attribute].type == AttributeType::kNumeric;
    encoded_size += 4 + 1;
    encoded_size += numeric ? 8 : 2 + 4 * entry.categorical_report.size();
  }
  std::string out;
  out.reserve(encoded_size);
  PutU16(&out, static_cast<uint16_t>(report.size()));
  for (const MixedReportEntry& entry : report) {
    PutU32(&out, entry.attribute);
    const bool numeric =
        entry.attribute < collector.dimension() &&
        collector.schema()[entry.attribute].type == AttributeType::kNumeric;
    if (numeric) {
      PutU8(&out, kNumericEntry);
      PutF64(&out, entry.numeric_value);
    } else {
      PutU8(&out, kCategoricalEntry);
      PutU16(&out, static_cast<uint16_t>(entry.categorical_report.size()));
      for (const uint32_t payload : entry.categorical_report) {
        PutU32(&out, payload);
      }
    }
  }
  return out;
}

MixedFrameDecoder::MixedFrameDecoder(const MixedTupleCollector* collector)
    : collector_(collector),
      value_bound_(
          ScaledValueBound(collector->dimension(), collector->k(),
                           collector->scalar_mechanism().OutputBound())) {
  entries_.reserve(collector_->k());
}

namespace {

// Presents a MixedReportSink as a Decode sink: the categorical payload view
// is copied into a reused Report for the sink's const Report& callback.
class ReportSinkAdapter {
 public:
  explicit ReportSinkAdapter(MixedReportSink* sink) : sink_(sink) {}

  void OnReportBegin(uint32_t entry_count) {
    sink_->OnReportBegin(entry_count);
  }
  void OnNumericEntry(uint32_t attribute, double value) {
    sink_->OnNumericEntry(attribute, value);
  }
  void OnCategoricalEntry(uint32_t attribute, const FrequencyOracle& /*oracle*/,
                          ReportView payload) {
    payload_.resize(payload.size());
    for (size_t i = 0; i < payload.size(); ++i) payload_[i] = payload[i];
    sink_->OnCategoricalEntry(attribute, payload_);
  }

 private:
  MixedReportSink* sink_;
  FrequencyOracle::Report payload_;
};

}  // namespace

Status MixedFrameDecoder::DecodeInto(const char* data, size_t size,
                                     MixedReportSink* sink) {
  ReportSinkAdapter adapter(sink);
  const char* rejection = Decode<FrequencyOracle>(data, size, &adapter);
  if (rejection != nullptr) return Status::InvalidArgument(rejection);
  return Status::OK();
}

Status DecodeMixedReportInto(const char* data, size_t size,
                             const MixedTupleCollector& collector,
                             MixedReportSink* sink) {
  MixedFrameDecoder decoder(&collector);
  return decoder.DecodeInto(data, size, sink);
}

namespace {

// Sink that rebuilds the heap-allocated MixedReport representation; the
// backing store of the classic DecodeMixedReport API.
class MaterializingSink final : public MixedReportSink {
 public:
  void OnReportBegin(uint32_t entry_count) override {
    report_.reserve(entry_count);
  }
  void OnNumericEntry(uint32_t attribute, double value) override {
    MixedReportEntry entry;
    entry.attribute = attribute;
    entry.numeric_value = value;
    report_.push_back(std::move(entry));
  }
  void OnCategoricalEntry(uint32_t attribute,
                          const FrequencyOracle::Report& payload) override {
    MixedReportEntry entry;
    entry.attribute = attribute;
    entry.categorical_report = payload;
    report_.push_back(std::move(entry));
  }

  MixedReport Take() { return std::move(report_); }

 private:
  MixedReport report_;
};

}  // namespace

Result<MixedReport> DecodeMixedReport(const std::string& bytes,
                                      const MixedTupleCollector& collector) {
  return DecodeMixedReport(bytes.data(), bytes.size(), collector);
}

Result<MixedReport> DecodeMixedReport(const char* data, size_t size,
                                      const MixedTupleCollector& collector) {
  MaterializingSink sink;
  LDP_RETURN_IF_ERROR(DecodeMixedReportInto(data, size, collector, &sink));
  return sink.Take();
}

}  // namespace ldp

#include "stream/aggregator_handle.h"

#include <utility>

#include "frequency/grr.h"
#include "frequency/histogram_encoding.h"
#include "frequency/olh.h"
#include "frequency/unary_encoding.h"
#include "stream/snapshot.h"

namespace ldp::stream {

namespace {

// The frame walk shared by both handles: `decode(payload, length)` returns
// null when it folded the frame in, else the rejection reason.
template <typename Decode>
FrameRun AcceptWholeFrames(const char* data, size_t size, Decode decode) {
  FrameRun run;
  for (;;) {
    const size_t available = size - run.consumed;
    if (available < 4) return run;
    const char* frame = data + run.consumed;
    const uint32_t length = internal_wire::LoadLittleEndian<uint32_t>(frame);
    if (length > kMaxFrameBytes || available - 4 < length) return run;
    run.consumed += 4 + static_cast<size_t>(length);
    const char* rejection = decode(frame + 4, length);
    if (rejection != nullptr) {
      run.rejection = rejection;
      return run;
    }
    ++run.accepted;
  }
}

// A run of mixed frames decoded under the rules of `Oracle`, the concrete
// class of the collector's categorical oracles, so its checks and adds
// inline.
template <typename Oracle>
FrameRun AcceptMixedFrames(const char* data, size_t size,
                           MixedFrameDecoder* decoder,
                           MixedAggregator* aggregator) {
  return AcceptWholeFrames(
      data, size, [&](const char* payload, uint32_t length) {
        return decoder->Decode<Oracle>(payload, length, aggregator);
      });
}

}  // namespace

MixedAggregatorHandle::MixedAggregatorHandle(
    const MixedTupleCollector* collector)
    : aggregator_(collector), decoder_(collector) {}

Status MixedAggregatorHandle::ValidateHeader(
    const StreamHeader& header) const {
  return ValidateMixedStreamHeader(header, *aggregator_.collector());
}

FrameRun MixedAggregatorHandle::AcceptFrames(const char* data, size_t size) {
  // One switch on the oracle kind per run; the aggregator is the decoder's
  // sink, so entries go straight from the wire bytes into its arrays.
  switch (aggregator_.collector()->categorical_kind()) {
    case FrequencyOracleKind::kGrr:
      return AcceptMixedFrames<GrrOracle>(data, size, &decoder_, &aggregator_);
    case FrequencyOracleKind::kSue:
    case FrequencyOracleKind::kOue:  // OUE and SUE share the unary rules
      return AcceptMixedFrames<UnaryEncodingOracle>(data, size, &decoder_,
                                                    &aggregator_);
    case FrequencyOracleKind::kOlh:
      return AcceptMixedFrames<OlhOracle>(data, size, &decoder_, &aggregator_);
    case FrequencyOracleKind::kHe:
      return AcceptMixedFrames<HeOracle>(data, size, &decoder_, &aggregator_);
    case FrequencyOracleKind::kThe:
      return AcceptMixedFrames<TheOracle>(data, size, &decoder_, &aggregator_);
  }
  return AcceptMixedFrames<FrequencyOracle>(data, size, &decoder_,
                                            &aggregator_);
}

Status MixedAggregatorHandle::Merge(const AggregatorHandle& other) {
  const MixedAggregatorHandle* mixed = other.AsMixed();
  if (mixed == nullptr) {
    return Status::FailedPrecondition(
        "cannot merge aggregators of different stream kinds");
  }
  return aggregator_.Merge(mixed->aggregator_);
}

std::unique_ptr<AggregatorHandle> MixedAggregatorHandle::CloneEmpty() const {
  return std::make_unique<MixedAggregatorHandle>(aggregator_.collector());
}

std::string MixedAggregatorHandle::EncodeSnapshot() const {
  return EncodeAggregatorSnapshot(aggregator_);
}

Status MixedAggregatorHandle::MergeEncodedSnapshot(const std::string& bytes) {
  Result<MixedAggregator> decoded =
      DecodeAggregatorSnapshot(bytes, aggregator_.collector());
  if (!decoded.ok()) return decoded.status();
  return aggregator_.Merge(decoded.value());
}

Result<double> MixedAggregatorHandle::EstimateMean(uint32_t attribute) const {
  return aggregator_.EstimateMean(attribute);
}

Result<std::vector<double>> MixedAggregatorHandle::EstimateFrequencies(
    uint32_t attribute) const {
  return aggregator_.EstimateFrequencies(attribute);
}

NumericAggregatorHandle::NumericAggregatorHandle(
    const SampledNumericMechanism* mechanism, MechanismKind mechanism_kind)
    : aggregator_(mechanism),
      decoder_(mechanism),
      mechanism_kind_(mechanism_kind) {}

Status NumericAggregatorHandle::ValidateHeader(
    const StreamHeader& header) const {
  return ValidateNumericStreamHeader(header, *aggregator_.mechanism(),
                                     mechanism_kind_);
}

FrameRun NumericAggregatorHandle::AcceptFrames(const char* data,
                                               size_t size) {
  return AcceptWholeFrames(
      data, size, [this](const char* payload, uint32_t length) {
        return decoder_.Decode(payload, length, &aggregator_);
      });
}

Status NumericAggregatorHandle::Merge(const AggregatorHandle& other) {
  const NumericAggregatorHandle* numeric = other.AsNumeric();
  if (numeric == nullptr) {
    return Status::FailedPrecondition(
        "cannot merge aggregators of different stream kinds");
  }
  if (numeric->mechanism_kind_ != mechanism_kind_) {
    return Status::FailedPrecondition(
        "cannot merge aggregators built from different mechanism kinds");
  }
  return aggregator_.Merge(numeric->aggregator_);
}

std::unique_ptr<AggregatorHandle> NumericAggregatorHandle::CloneEmpty() const {
  return std::make_unique<NumericAggregatorHandle>(aggregator_.mechanism(),
                                                   mechanism_kind_);
}

std::string NumericAggregatorHandle::EncodeSnapshot() const {
  return EncodeNumericAggregatorSnapshot(aggregator_, mechanism_kind_);
}

Status NumericAggregatorHandle::MergeEncodedSnapshot(
    const std::string& bytes) {
  Result<NumericAggregator> decoded = DecodeNumericAggregatorSnapshot(
      bytes, aggregator_.mechanism(), mechanism_kind_);
  if (!decoded.ok()) return decoded.status();
  return aggregator_.Merge(decoded.value());
}

Result<double> NumericAggregatorHandle::EstimateMean(
    uint32_t attribute) const {
  return aggregator_.EstimateMean(attribute);
}

Result<std::vector<double>> NumericAggregatorHandle::EstimateFrequencies(
    uint32_t /*attribute*/) const {
  return Status::InvalidArgument(
      "numeric streams carry no categorical state");
}

}  // namespace ldp::stream

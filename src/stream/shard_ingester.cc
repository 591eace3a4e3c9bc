#include "stream/shard_ingester.h"

#include <algorithm>
#include <istream>
#include <memory>
#include <utility>

#include "core/wire.h"
#include "util/check.h"

namespace ldp::stream {

namespace {

constexpr size_t kIngestChunkBytes = 64 * 1024;

}  // namespace

ShardIngester::ShardIngester(const MixedTupleCollector* collector,
                             Options options)
    : ShardIngester(std::make_unique<MixedAggregatorHandle>(collector),
                    options) {}

ShardIngester::ShardIngester(const SampledNumericMechanism* mechanism,
                             MechanismKind kind, Options options)
    : ShardIngester(std::make_unique<NumericAggregatorHandle>(mechanism, kind),
                    options) {}

ShardIngester::ShardIngester(std::unique_ptr<AggregatorHandle> handle,
                             Options options)
    : options_(options), handle_(std::move(handle)) {
  LDP_CHECK(handle_ != nullptr);
}

const MixedAggregator& ShardIngester::aggregator() const {
  const MixedAggregatorHandle* mixed = handle_->AsMixed();
  LDP_CHECK_MSG(mixed != nullptr, "ingester does not aggregate mixed reports");
  return mixed->aggregator();
}

const NumericAggregator& ShardIngester::numeric_aggregator() const {
  const NumericAggregatorHandle* numeric = handle_->AsNumeric();
  LDP_CHECK_MSG(numeric != nullptr,
                "ingester does not aggregate numeric reports");
  return numeric->aggregator();
}

Status ShardIngester::Poison(Status status) {
  LDP_CHECK(!status.ok());
  failed_ = std::move(status);
  staged_.Clear();
  return failed_;
}

size_t ShardIngester::NeedBytes() const {
  switch (state_) {
    case State::kHeader:
      return kStreamHeaderBytes;
    case State::kFrameLength:
      return 4;
    case State::kFrame:
      return 4 + static_cast<size_t>(frame_length_);
  }
  return 0;  // unreachable
}

Status ShardIngester::Reject(const char* reason) {
  ++stats_.frames;
  ++stats_.rejected;
  if (options_.strict) {
    return Poison(Status::InvalidArgument(
        std::string("undecodable report in strict mode: ") + reason));
  }
  if (stats_.rejected > options_.max_rejected) {
    return Poison(Status::InvalidArgument(
        "rejected report budget exhausted"));
  }
  return Status::OK();
}

Status ShardIngester::AcceptFrames(const char* data, size_t size,
                                   size_t* consumed) {
  *consumed = 0;
  for (;;) {
    const FrameRun run =
        handle_->AcceptFrames(data + *consumed, size - *consumed);
    *consumed += run.consumed;
    stats_.frames += run.accepted;
    stats_.accepted += run.accepted;
    if (run.rejection == nullptr) return Status::OK();
    LDP_RETURN_IF_ERROR(Reject(run.rejection));
  }
}

Status ShardIngester::ConsumeHeader(const char* data) {
  Result<StreamHeader> header = DecodeStreamHeader(data, kStreamHeaderBytes);
  if (!header.ok()) return Poison(header.status());
  const Status match = handle_->ValidateHeader(header.value());
  if (!match.ok()) return Poison(match);
  header_ = header.value();
  state_ = State::kFrameLength;
  return Status::OK();
}

Status ShardIngester::ReadFrameLength(const char* data) {
  const uint32_t length = internal_wire::LoadLittleEndian<uint32_t>(data);
  if (length > kMaxFrameBytes) {
    return Poison(Status::InvalidArgument(
        "frame length exceeds kMaxFrameBytes"));
  }
  frame_length_ = length;
  state_ = State::kFrame;
  return Status::OK();
}

void ShardIngester::PublishMetrics() {
  // Feed/Finish granularity: one relaxed fetch_add per live counter per
  // chunk, nothing per frame. No allocation, so instrumented ingestion
  // still satisfies tests/ingest_allocation_test.cc.
  const obs::IngestMetrics& metrics = options_.metrics;
  metrics.bytes->Add(stats_.bytes - published_.bytes);
  metrics.frames->Add(stats_.frames - published_.frames);
  metrics.accepted->Add(stats_.accepted - published_.accepted);
  metrics.rejected->Add(stats_.rejected - published_.rejected);
  published_ = stats_;
}

Status ShardIngester::Feed(const char* data, size_t size) {
  const Status status = FeedChunk(data, size);
  if (options_.metrics.enabled()) PublishMetrics();
  return status;
}

Status ShardIngester::FeedChunk(const char* data, size_t size) {
  if (!failed_.ok()) return failed_;
  stats_.bytes += size;
  const char* cursor = data;
  const char* const end = data + size;

  // Complete the item left straddling the previous Feed boundary, if any.
  // A staged frame keeps its length prefix, so once whole it goes through
  // AcceptFrames like any in-place frame.
  while (!staged_.empty()) {
    const size_t need = NeedBytes();
    LDP_DCHECK(staged_.size() <= need);
    const size_t take = std::min(need - staged_.size(),
                                 static_cast<size_t>(end - cursor));
    staged_.Append(cursor, take);
    cursor += take;
    if (staged_.size() < need) return Status::OK();  // still incomplete
    const char* item = staged_.Contiguous(need, &wrap_scratch_);
    if (state_ == State::kHeader) {
      LDP_RETURN_IF_ERROR(ConsumeHeader(item));
    } else if (state_ == State::kFrameLength) {
      LDP_RETURN_IF_ERROR(ReadFrameLength(item));
      continue;  // the prefix stays staged with its payload
    } else {  // kFrame
      size_t consumed = 0;
      LDP_RETURN_IF_ERROR(AcceptFrames(item, need, &consumed));
      LDP_DCHECK(consumed == need);
      state_ = State::kFrameLength;
    }
    staged_.Consume(need);
  }

  if (state_ == State::kHeader) {
    if (static_cast<size_t>(end - cursor) < kStreamHeaderBytes) {
      staged_.Append(cursor, static_cast<size_t>(end - cursor));
      return Status::OK();
    }
    LDP_RETURN_IF_ERROR(ConsumeHeader(cursor));
    cursor += kStreamHeaderBytes;
  }

  // Hot path: every whole frame in the caller's buffer is decoded in place,
  // in one handle call per run.
  size_t consumed = 0;
  LDP_RETURN_IF_ERROR(
      AcceptFrames(cursor, static_cast<size_t>(end - cursor), &consumed));
  cursor += consumed;

  // Less than one whole frame is left: vet its length prefix if present,
  // then stage it for the next Feed.
  const size_t available = static_cast<size_t>(end - cursor);
  if (available >= 4) LDP_RETURN_IF_ERROR(ReadFrameLength(cursor));
  staged_.Append(cursor, available);
  return Status::OK();
}

Status ShardIngester::Finish() {
  if (options_.metrics.enabled()) PublishMetrics();
  if (!failed_.ok()) return failed_;
  if (state_ == State::kHeader) {
    return Poison(Status::InvalidArgument(
        "stream ended before a complete header"));
  }
  if (state_ == State::kFrame || !staged_.empty()) {
    return Poison(Status::InvalidArgument(
        "stream ended inside a frame"));
  }
  return Status::OK();
}

Status ShardIngester::IngestStream(std::istream& in) {
  std::string chunk(kIngestChunkBytes, '\0');
  while (in.good()) {
    in.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
    const auto got = static_cast<size_t>(in.gcount());
    if (got == 0) break;
    LDP_RETURN_IF_ERROR(Feed(chunk.data(), got));
  }
  if (in.bad()) {
    return Poison(Status::IoError("read error on report stream"));
  }
  return Finish();
}

}  // namespace ldp::stream

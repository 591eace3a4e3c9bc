#include "net/client.h"

#include <algorithm>
#include <utility>

namespace ldp::net {

namespace {

// What one socket read asks for. Replies are small, so one read usually
// brings every reply the server sent for one event — a HELLO_OK and the
// SHARD_CLOSED verdicts queued ahead of it.
constexpr size_t kReadChunkBytes = 16u << 10;

}  // namespace

Result<CollectorClient> CollectorClient::Connect(
    const Endpoint& endpoint, const stream::StreamHeader& header,
    uint64_t ordinal, CollectorClientOptions options) {
  // A zero flush threshold would stage zero bytes per iteration and spin
  // forever in Send; the smallest meaningful buffer is one byte.
  options.flush_bytes = std::max<size_t>(options.flush_bytes, 1);
  Result<Socket> socket = ConnectSocket(endpoint);
  if (!socket.ok()) return socket.status();
  CollectorClient client(std::move(socket).value(), options);
  if (options.window_bytes > 0) {
    // The server batches acks up to kDataAckFlushBytes: a window smaller
    // than one batch plus one flush could block for an ack that is still
    // accumulating server-side.
    client.effective_window_ = std::max<uint64_t>(
        options.window_bytes, kDataAckFlushBytes + options.flush_bytes);
  }
  if (options.idle_timeout_ms > 0) {
    LDP_RETURN_IF_ERROR(client.socket_.SetIdleTimeout(options.idle_timeout_ms));
  }
  client.epoch_ = options.epoch;
  const uint32_t channel = client.next_channel_++;
  LDP_RETURN_IF_ERROR(client.Negotiate(header, ordinal, channel));
  client.primary_ = channel;
  return client;
}

Status CollectorClient::Negotiate(const stream::StreamHeader& header,
                                  uint64_t ordinal, uint32_t channel) {
  HelloMessage hello;
  hello.channel = channel;
  hello.ordinal = ordinal;
  if (effective_window_ > 0) hello.flags |= kHelloFlagDataAcks;
  hello.header_bytes = stream::EncodeStreamHeader(header);
  if (!options_.campaign_key.empty()) {
    if (options_.reporter_id.empty()) {
      return Status::InvalidArgument(
          "authenticated campaigns require a non-empty reporter id");
    }
    if (options_.reporter_id.size() > kMaxReporterIdBytes) {
      return Status::InvalidArgument("reporter id exceeds the protocol bound");
    }
    hello.reporter_id = options_.reporter_id;
    hello.auth_tag =
        ComputeHelloTag(options_.campaign_key, options_.reporter_id, channel,
                        epoch_, hello.header_bytes);
  }
  wire_.clear();
  LDP_RETURN_IF_ERROR(
      AppendMessage(MessageType::kHello, EncodeHello(hello), &wire_));
  LDP_RETURN_IF_ERROR(socket_.SendAll(wire_));
  std::string payload;
  LDP_ASSIGN_OR_RETURN(payload, AwaitReply(MessageType::kHelloOk, channel));
  HelloOkMessage ok;
  LDP_ASSIGN_OR_RETURN(ok, DecodeHelloOk(payload));
  if (ok.channel != channel) {
    return Status::Internal("collector acknowledged the wrong channel");
  }
  ShardChannel state;
  state.shard = ok.shard;
  state.resume_offset = ok.resume_offset;
  channels_[channel] = std::move(state);
  epoch_ = ok.epoch;
  if (channel == primary_ || channels_.size() == 1) {
    shard_ = ok.shard;
    resume_offset_ = ok.resume_offset;
  }
  return Status::OK();
}

Result<uint32_t> CollectorClient::OpenShard(const stream::StreamHeader& header,
                                            uint64_t ordinal) {
  const uint32_t channel = next_channel_++;
  LDP_RETURN_IF_ERROR(Negotiate(header, ordinal, channel));
  return channel;
}

Status CollectorClient::Reopen(const stream::StreamHeader& header,
                               uint64_t ordinal) {
  if (shard_open()) {
    return Status::FailedPrecondition("close the current shard first");
  }
  const uint32_t channel = next_channel_++;
  LDP_RETURN_IF_ERROR(Negotiate(header, ordinal, channel));
  primary_ = channel;
  shard_ = channels_[channel].shard;
  resume_offset_ = channels_[channel].resume_offset;
  return Status::OK();
}

uint64_t CollectorClient::resume_offset(uint32_t channel) const {
  auto found = channels_.find(channel);
  return found == channels_.end() ? 0 : found->second.resume_offset;
}

Result<std::pair<MessageType, std::string>> CollectorClient::ReadMessage() {
  while (true) {
    size_t need = kMessageHeaderBytes;
    if (inbuf_.size() >= kMessageHeaderBytes) {
      Result<MessageHeader> header =
          DecodeMessageHeader(inbuf_.data(), kMessageHeaderBytes);
      if (!header.ok()) return header.status();
      need += header.value().payload_length;
      if (inbuf_.size() >= need) {
        std::string payload(inbuf_.data() + kMessageHeaderBytes,
                            header.value().payload_length);
        inbuf_.Consume(need);
        return std::make_pair(header.value().type, std::move(payload));
      }
    }
    const size_t want = std::max(kReadChunkBytes, need - inbuf_.size());
    bool eof = false;
    Result<size_t> got = socket_.RecvSome(inbuf_.Reserve(want), want, &eof);
    if (!got.ok()) return got.status();
    if (eof) {
      return Status::IoError(inbuf_.empty()
                                 ? "collector closed the connection"
                                 : "collector closed the connection mid-reply");
    }
    // A blocking socket reads nothing only when its idle timeout expired.
    if (got.value() == 0) return Status::DeadlineExceeded("recv timed out");
    inbuf_.Commit(got.value());
  }
}

Status CollectorClient::ProcessAck(const std::string& payload) {
  DataAckMessage ack;
  LDP_ASSIGN_OR_RETURN(ack, DecodeDataAck(payload));
  for (const DataAckMessage::Entry& entry : ack.entries) {
    auto found = channels_.find(entry.channel);
    if (found == channels_.end()) continue;  // already awaited and erased
    found->second.acked_bytes =
        std::max(found->second.acked_bytes, entry.bytes);
  }
  return Status::OK();
}

Status CollectorClient::PumpMessage() {
  std::pair<MessageType, std::string> message;
  LDP_ASSIGN_OR_RETURN(message, ReadMessage());
  switch (message.first) {
    case MessageType::kDataAck:
      return ProcessAck(message.second);
    case MessageType::kShardClosed: {
      // A pipelined close's verdict landed while this thread was waiting
      // for window room. Stash it for AwaitShardClosed.
      ShardClosedMessage closed;
      LDP_ASSIGN_OR_RETURN(closed, DecodeShardClosed(message.second));
      closed_payloads_[closed.channel] = std::move(message.second);
      return Status::OK();
    }
    case MessageType::kError: {
      ErrorMessage error;
      LDP_ASSIGN_OR_RETURN(error, DecodeErrorMessage(message.second));
      return StatusFromWire(error.code, error.message);
    }
    default:
      return Status::InvalidArgument("unexpected reply type from collector");
  }
}

Result<std::string> CollectorClient::AwaitReply(MessageType expected,
                                                uint32_t want_channel) {
  while (true) {
    std::pair<MessageType, std::string> message;
    LDP_ASSIGN_OR_RETURN(message, ReadMessage());
    if (message.first == MessageType::kDataAck) {
      LDP_RETURN_IF_ERROR(ProcessAck(message.second));
      continue;
    }
    if (message.first == MessageType::kError) {
      ErrorMessage error;
      LDP_ASSIGN_OR_RETURN(error, DecodeErrorMessage(message.second));
      return StatusFromWire(error.code, error.message);
    }
    if (message.first == MessageType::kShardClosed) {
      ShardClosedMessage closed;
      LDP_ASSIGN_OR_RETURN(closed, DecodeShardClosed(message.second));
      if (expected == MessageType::kShardClosed &&
          closed.channel == want_channel) {
        return std::move(message.second);
      }
      closed_payloads_[closed.channel] = std::move(message.second);
      continue;
    }
    if (message.first != expected) {
      return Status::InvalidArgument("unexpected reply type from collector");
    }
    return std::move(message.second);
  }
}

uint64_t CollectorClient::TotalInFlight() const {
  uint64_t in_flight = 0;
  for (const auto& [channel, state] : channels_) {
    in_flight += state.sent_bytes - state.acked_bytes;
  }
  return in_flight;
}

Status CollectorClient::AppendStaged(uint32_t channel, ShardChannel& state) {
  if (state.staged.empty()) return Status::OK();
  if (effective_window_ > 0) {
    // Window full: the next DATA would overrun the bound, so block on the
    // reply stream until acks release room (early verdicts are stashed).
    while (TotalInFlight() + state.staged.size() > effective_window_) {
      LDP_RETURN_IF_ERROR(PumpMessage());
    }
  }
  LDP_RETURN_IF_ERROR(AppendData(channel, state.staged, &wire_));
  state.sent_bytes += state.staged.size();
  state.staged.clear();
  return Status::OK();
}

Status CollectorClient::SendWire() {
  const Status sent = socket_.SendAll(wire_);
  if (sent.ok()) return sent;
  // A send failure usually means the server poisoned the shard and closed
  // the connection; its pending ERROR names the real cause. With acks
  // enabled a DATA_ACK (or an early verdict) may sit ahead of the ERROR in
  // the reply stream, so pump until a verdict surfaces or the read side
  // dies too.
  while (true) {
    Status pending = PumpMessage();
    if (pending.ok()) continue;
    return pending.code() == StatusCode::kIoError ? sent : pending;
  }
}

Status CollectorClient::Flush(uint32_t channel, ShardChannel& state) {
  wire_.clear();
  LDP_RETURN_IF_ERROR(AppendStaged(channel, state));
  return wire_.empty() ? Status::OK() : SendWire();
}

Status CollectorClient::Send(uint32_t channel, const char* data, size_t size) {
  auto found = channels_.find(channel);
  if (found == channels_.end() || found->second.closing) {
    return Status::FailedPrecondition("no open shard on this connection");
  }
  ShardChannel& state = found->second;
  size_t offset = 0;
  while (offset < size) {
    if (state.staged.size() >= options_.flush_bytes) {
      LDP_RETURN_IF_ERROR(Flush(channel, state));
    }
    const size_t take =
        std::min(size - offset, options_.flush_bytes - state.staged.size());
    state.staged.append(data + offset, take);
    offset += take;
  }
  if (state.staged.size() >= options_.flush_bytes) {
    LDP_RETURN_IF_ERROR(Flush(channel, state));
  }
  return Status::OK();
}

Status CollectorClient::CloseShardBegin(uint32_t channel) {
  auto found = channels_.find(channel);
  if (found == channels_.end()) {
    return Status::FailedPrecondition("no open shard on this connection");
  }
  if (found->second.closing) {
    return Status::FailedPrecondition("shard close already in flight");
  }
  // The staged DATA and the CLOSE_SHARD leave in one write.
  wire_.clear();
  LDP_RETURN_IF_ERROR(AppendStaged(channel, found->second));
  CloseShardMessage close;
  close.channel = channel;
  LDP_RETURN_IF_ERROR(
      AppendMessage(MessageType::kCloseShard, EncodeCloseShard(close), &wire_));
  LDP_RETURN_IF_ERROR(SendWire());
  found->second.closing = true;
  return Status::OK();
}

Result<ShardCloseSummary> CollectorClient::AwaitShardClosed(uint32_t channel) {
  auto found = channels_.find(channel);
  if (found == channels_.end()) {
    return Status::FailedPrecondition("no open shard on this connection");
  }
  if (!found->second.closing) {
    return Status::FailedPrecondition("CloseShardBegin this channel first");
  }
  std::string payload;
  auto stashed = closed_payloads_.find(channel);
  if (stashed != closed_payloads_.end()) {
    payload = std::move(stashed->second);
    closed_payloads_.erase(stashed);
  } else {
    LDP_ASSIGN_OR_RETURN(payload,
                         AwaitReply(MessageType::kShardClosed, channel));
  }
  ShardClosedMessage closed;
  LDP_ASSIGN_OR_RETURN(closed, DecodeShardClosed(payload));
  channels_.erase(channel);
  ShardCloseSummary summary;
  summary.status = StatusFromWire(closed.code, closed.message);
  summary.stats = closed.stats;
  return summary;
}

Result<ShardCloseSummary> CollectorClient::CloseShard(uint32_t channel) {
  LDP_RETURN_IF_ERROR(CloseShardBegin(channel));
  return AwaitShardClosed(channel);
}

Result<uint32_t> CollectorClient::AdvanceEpoch() {
  if (!channels_.empty()) {
    return Status::FailedPrecondition(
        "close the current shard before advancing the epoch");
  }
  wire_.clear();
  LDP_RETURN_IF_ERROR(AppendMessage(MessageType::kAdvanceEpoch, "", &wire_));
  LDP_RETURN_IF_ERROR(socket_.SendAll(wire_));
  std::string payload;
  LDP_ASSIGN_OR_RETURN(payload,
                       AwaitReply(MessageType::kEpochAdvanced, 0));
  EpochAdvancedMessage advanced;
  LDP_ASSIGN_OR_RETURN(advanced, DecodeEpochAdvanced(payload));
  LDP_RETURN_IF_ERROR(StatusFromWire(advanced.code, advanced.message));
  epoch_ = advanced.epoch;
  return advanced.epoch;
}

}  // namespace ldp::net

#include "net/client.h"

#include <algorithm>
#include <utility>

namespace ldp::net {

namespace {

// What one socket read asks for. Replies are small, so one read usually
// brings every reply the server sent for one event — HELLO_OKs and the
// SHARD_CLOSED verdicts queued with them.
constexpr size_t kReadChunkBytes = 16u << 10;

// Owed replies a write may leave unread before it drains the arrived ones
// (non-blocking). Bounds what the collector buffers for a reporter that
// awaits its verdicts only at the end, at one extra recv per this many
// replies.
constexpr uint64_t kReplyBacklog = 256;

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
  client.drain_at_ = kReplyBacklog;
  LDP_RETURN_IF_ERROR(client.Negotiate(header, ordinal));
  return client;
}

Status CollectorClient::StageHello(const stream::StreamHeader& header,
                                   uint64_t ordinal, uint32_t channel,
                                   uint32_t flags) {
  HelloMessage hello;
  hello.channel = channel;
  hello.ordinal = ordinal;
  hello.flags = flags;
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
    // The tag binds the epoch of the latest HELLO_OK / EPOCH_ADVANCED.
    hello.auth_tag =
        ComputeHelloTag(options_.campaign_key, options_.reporter_id, channel,
                        epoch_, hello.header_bytes);
  }
  LDP_RETURN_IF_ERROR(
      AppendMessage(MessageType::kHello, EncodeHello(hello), &wire_));
  channels_[channel] = ShardChannel();
  ++owed_replies_;
  return Status::OK();
}

Status CollectorClient::Negotiate(const stream::StreamHeader& header,
                                  uint64_t ordinal) {
  if (!refusal_.ok()) return refusal_;
  const uint32_t channel = next_channel_++;
  LDP_RETURN_IF_ERROR(StageHello(header, ordinal, channel, /*flags=*/0));
  primary_ = channel;
  Status admitted = SendWire();
  // Replies for other channels (pipelined HELLO_OKs, early verdicts) are
  // applied on the way to this channel's HELLO_OK.
  while (admitted.ok() && !channels_[channel].admitted) {
    admitted = PumpMessage();
  }
  if (!admitted.ok()) {
    channels_.erase(channel);
    return admitted;
  }
  return Status::OK();
}

Result<uint32_t> CollectorClient::OpenShard(const stream::StreamHeader& header,
                                            uint64_t ordinal) {
  if (!refusal_.ok()) return refusal_;
  const uint32_t channel = next_channel_;
  LDP_RETURN_IF_ERROR(
      StageHello(header, ordinal, channel, kHelloFlagFromStart));
  ++next_channel_;
  return channel;
}

Status CollectorClient::Reopen(const stream::StreamHeader& header,
                               uint64_t ordinal) {
  if (shard_open()) {
    return Status::FailedPrecondition("close the current shard first");
  }
  return Negotiate(header, ordinal);
}

Result<bool> CollectorClient::TakeBuffered(Reply* reply) {
  if (inbuf_.size() < kMessageHeaderBytes) return false;
  MessageHeader header;
  LDP_ASSIGN_OR_RETURN(header,
                       DecodeMessageHeader(inbuf_.data(), kMessageHeaderBytes));
  const size_t total = kMessageHeaderBytes + header.payload_length;
  if (inbuf_.size() < total) return false;
  reply->type = header.type;
  reply->payload = std::string_view(inbuf_.data() + kMessageHeaderBytes,
                                    header.payload_length);
  // Consume only advances the read position: the bytes stay put until the
  // next Fill, which is what keeps the view valid until the next read.
  inbuf_.Consume(total);
  return true;
}

Result<bool> CollectorClient::Fill(bool wait) {
  size_t need = kMessageHeaderBytes;
  if (inbuf_.size() >= kMessageHeaderBytes) {
    MessageHeader header;
    LDP_ASSIGN_OR_RETURN(
        header, DecodeMessageHeader(inbuf_.data(), kMessageHeaderBytes));
    need += header.payload_length;
  }
  const size_t want = std::max(kReadChunkBytes, need - inbuf_.size());
  bool eof = false;
  char* into = inbuf_.Reserve(want);
  Result<size_t> got = wait ? socket_.RecvSome(into, want, &eof)
                            : socket_.RecvAvailable(into, want, &eof);
  if (!got.ok()) return got.status();
  if (eof) {
    return Status::IoError(inbuf_.empty()
                               ? "collector closed the connection"
                               : "collector closed the connection mid-reply");
  }
  // A blocking socket reads nothing only when its idle timeout expired.
  if (wait && got.value() == 0) {
    return Status::DeadlineExceeded("recv timed out");
  }
  inbuf_.Commit(got.value());
  return got.value() == want;
}

Result<CollectorClient::Reply> CollectorClient::ReadMessage() {
  if (!refusal_.ok()) return refusal_;
  Reply reply;
  while (true) {
    bool taken = false;
    LDP_ASSIGN_OR_RETURN(taken, TakeBuffered(&reply));
    if (taken) return reply;
    LDP_RETURN_IF_ERROR(Fill(/*wait=*/true).status());
  }
}

Status CollectorClient::ProcessAck(std::string_view payload) {
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

Status CollectorClient::ApplyReply(const Reply& reply) {
  switch (reply.type) {
    case MessageType::kDataAck:
      return ProcessAck(reply.payload);
    case MessageType::kHelloOk: {
      HelloOkMessage ok;
      LDP_ASSIGN_OR_RETURN(ok, DecodeHelloOk(reply.payload));
      auto found = channels_.find(ok.channel);
      if (found == channels_.end() || found->second.admitted) {
        return Status::Internal("collector acknowledged an unknown channel");
      }
      found->second.admitted = true;
      epoch_ = ok.epoch;
      --owed_replies_;
      if (ok.channel == primary_) {
        shard_ = ok.shard;
        resume_offset_ = ok.resume_offset;
      } else if (ok.resume_offset != 0) {
        return Status::Internal(
            "collector resumed a shard that streams from its start");
      }
      return Status::OK();
    }
    case MessageType::kShardClosed: {
      ShardClosedMessage closed;
      LDP_ASSIGN_OR_RETURN(closed, DecodeShardClosed(reply.payload));
      auto found = channels_.find(closed.channel);
      if (found == channels_.end() || !found->second.closing ||
          found->second.closed) {
        return Status::Internal("collector closed an unknown channel");
      }
      found->second.closed = true;
      found->second.code = closed.code;
      found->second.stats = closed.stats;
      if (closed.code != 0) {
        verdict_messages_[closed.channel] = std::move(closed.message);
      }
      --owed_replies_;
      return Status::OK();
    }
    case MessageType::kError: {
      ErrorMessage error;
      LDP_ASSIGN_OR_RETURN(error, DecodeErrorMessage(reply.payload));
      refusal_ = StatusFromWire(error.code, error.message);
      return refusal_;
    }
    default:
      return Status::InvalidArgument("unexpected reply type from collector");
  }
}

Status CollectorClient::PumpMessage() {
  Reply reply;
  LDP_ASSIGN_OR_RETURN(reply, ReadMessage());
  return ApplyReply(reply);
}

Status CollectorClient::DrainReplies() {
  bool more = true;
  while (true) {
    Reply reply;
    bool taken = false;
    LDP_ASSIGN_OR_RETURN(taken, TakeBuffered(&reply));
    if (taken) {
      LDP_RETURN_IF_ERROR(ApplyReply(reply));
      continue;
    }
    // A short read emptied the socket: no recv that would only block.
    if (!more) return Status::OK();
    LDP_ASSIGN_OR_RETURN(more, Fill(/*wait=*/false));
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
  if (effective_window_ > 0 &&
      TotalInFlight() + state.staged.size() > effective_window_) {
    // Window full: the next DATA would overrun the bound, so block on the
    // reply stream until acks release room. Staged HELLOs go out first;
    // replies never add or erase channels, so `state` stays valid.
    if (!wire_.empty()) LDP_RETURN_IF_ERROR(SendWire());
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
  if (!refusal_.ok()) return refusal_;
  const Status sent = socket_.SendAll(wire_);
  wire_.clear();
  if (!sent.ok()) {
    // A send failure usually means the server refused a HELLO or poisoned
    // a shard and closed the connection; its pending ERROR names the real
    // cause. Replies (acks, HELLO_OKs, verdicts) may sit ahead of the
    // ERROR, so pump until a verdict surfaces or the read side dies too.
    while (true) {
      Status pending = PumpMessage();
      if (pending.ok()) continue;
      return pending.code() == StatusCode::kIoError ? sent : pending;
    }
  }
  if (owed_replies_ >= drain_at_) {
    LDP_RETURN_IF_ERROR(DrainReplies());
    drain_at_ = owed_replies_ + kReplyBacklog;
  }
  return Status::OK();
}

Status CollectorClient::Flush(uint32_t channel, ShardChannel& state) {
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
  ShardChannel& state = found->second;
  if (state.closing) {
    return Status::FailedPrecondition("shard close already in flight");
  }
  // Staged HELLOs, the staged DATA and the CLOSE_SHARD leave in one write.
  LDP_RETURN_IF_ERROR(AppendStaged(channel, state));
  // The record lives until its verdict is awaited, maybe long after:
  // release the staging buffer now.
  std::string().swap(state.staged);
  CloseShardMessage close;
  close.channel = channel;
  LDP_RETURN_IF_ERROR(
      AppendMessage(MessageType::kCloseShard, EncodeCloseShard(close), &wire_));
  state.closing = true;
  ++owed_replies_;
  return SendWire();
}

Result<ShardCloseSummary> CollectorClient::AwaitShardClosed(uint32_t channel) {
  auto found = channels_.find(channel);
  if (found == channels_.end()) {
    return Status::FailedPrecondition("no open shard on this connection");
  }
  if (!found->second.closing) {
    return Status::FailedPrecondition("CloseShardBegin this channel first");
  }
  while (!found->second.closed) {
    LDP_RETURN_IF_ERROR(PumpMessage());
    found = channels_.find(channel);
  }
  ShardCloseSummary summary;
  summary.stats = found->second.stats;
  if (found->second.code == 0) {
    summary.status = Status::OK();
  } else {
    auto message = verdict_messages_.find(channel);
    summary.status = StatusFromWire(found->second.code, message->second);
    verdict_messages_.erase(message);
  }
  channels_.erase(found);
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
  LDP_RETURN_IF_ERROR(AppendMessage(MessageType::kAdvanceEpoch, "", &wire_));
  LDP_RETURN_IF_ERROR(SendWire());
  Reply reply;
  while (true) {
    LDP_ASSIGN_OR_RETURN(reply, ReadMessage());
    if (reply.type == MessageType::kEpochAdvanced) break;
    LDP_RETURN_IF_ERROR(ApplyReply(reply));
  }
  EpochAdvancedMessage advanced;
  LDP_ASSIGN_OR_RETURN(advanced, DecodeEpochAdvanced(reply.payload));
  LDP_RETURN_IF_ERROR(StatusFromWire(advanced.code, advanced.message));
  epoch_ = advanced.epoch;
  return advanced.epoch;
}

}  // namespace ldp::net

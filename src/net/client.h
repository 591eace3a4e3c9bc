// CollectorClient: the reporter's side of the collector protocol
// (net/protocol.h). One connection now multiplexes many logical shards:
// OpenShard performs the HELLO/schema negotiation for one channel, Send
// ships raw report-stream frame bytes in bounded DATA messages, and
// CloseShard declares end-of-stream and returns the server's merge verdict
// with exact ingest statistics. Closes can be pipelined and their
// SHARD_CLOSED replies interleave with traffic on other channels — the
// client matches replies by channel and stashes early arrivals, so callers
// may await verdicts in any order.
//
// The legacy single-shard surface (Connect negotiating one shard, then
// Send/Close/Reopen) is preserved as wrappers over one "primary" channel;
// existing reporters compile and behave unchanged.
//
// Flow control: with CollectorClientOptions::window_bytes set, the HELLO
// opts in to batched DATA_ACK watermarks and Send blocks once
// (sent - acked) bytes across all channels exceed the window — a reporter
// on a fast link cannot buffer the collector into the ground. The window
// is clamped to at least kDataAckFlushBytes + flush_bytes, because the
// server batches acks and a smaller window could wait for an ack the
// server is still accumulating.
//
// Blocking I/O with an optional idle timeout; thread-compatible (one
// client per thread, like ClientSession's Rng discipline).

#ifndef LDP_NET_CLIENT_H_
#define LDP_NET_CLIENT_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "net/protocol.h"
#include "net/socket.h"
#include "stream/report_stream.h"
#include "stream/shard_ingester.h"
#include "util/result.h"

namespace ldp::net {

struct CollectorClientOptions {
  /// Bound on every socket send/recv (0 = wait forever).
  int idle_timeout_ms = 30000;
  /// Send buffer high-water mark: Send flushes a DATA message whenever the
  /// staged bytes reach this size (and CloseShard flushes the remainder).
  /// Clamped to at least 1 at Connect.
  size_t flush_bytes = 256 * 1024;
  /// When nonzero, bound on unacknowledged in-flight bytes across all of
  /// the connection's channels (see the file comment). 0 disables acks.
  uint64_t window_bytes = 0;
  /// Reporter identity for authenticated (protocol v3) campaigns. When
  /// `campaign_key` is non-empty every HELLO carries `reporter_id` plus an
  /// HMAC-SHA256 tag binding (key, id, channel, epoch, stream header); a
  /// keyed collector refuses anything else. When empty the client speaks
  /// the legacy v2 HELLO and a keyless collector accepts it unchanged.
  std::string reporter_id;
  std::string campaign_key;
  /// The epoch this connection's first HELLO folds into. Authenticated
  /// tags are epoch-bound, so a reporter joining (or reconnecting) after
  /// the campaign advanced past epoch 0 must pass the current epoch here;
  /// later HELLOs on the same connection track HELLO_OK / EPOCH_ADVANCED
  /// replies automatically. Ignored for unauthenticated campaigns.
  uint32_t epoch = 0;
};

/// The server's verdict on one closed shard.
struct ShardCloseSummary {
  /// OK when the shard merged into the epoch; otherwise why it was
  /// discarded (framing poison, rejection budget, shutdown).
  Status status;
  /// Exact server-side ingest statistics for the shard.
  stream::ShardIngester::Stats stats;
};

class CollectorClient {
 public:
  /// Connects to `endpoint` and negotiates shard `ordinal` on the primary
  /// channel, speaking `header`'s protocol. Fails with the server's
  /// refusal (schema hash / ε / kind mismatch) before any report is sent.
  static Result<CollectorClient> Connect(const Endpoint& endpoint,
                                         const stream::StreamHeader& header,
                                         uint64_t ordinal,
                                         CollectorClientOptions options = {});

  // --- multi-shard surface -------------------------------------------------

  /// Negotiates one more shard over this connection and returns its
  /// channel id. Any number of shards may be open concurrently.
  Result<uint32_t> OpenShard(const stream::StreamHeader& header,
                             uint64_t ordinal);

  /// Stages raw frame bytes (api::ClientSession::AppendReport output) for
  /// `channel`'s shard, flushing full DATA messages as its buffer fills.
  /// On failure the returned status carries the server's ERROR verdict
  /// when one is pending (e.g. this client's stream poisoned its shard).
  Status Send(uint32_t channel, const char* data, size_t size);

  /// Flushes `channel` and declares end-of-stream, without waiting for the
  /// verdict — several closes can be pipelined, then awaited in any order.
  Status CloseShardBegin(uint32_t channel);

  /// Waits for `channel`'s merge verdict (CloseShardBegin first). The
  /// channel id is free for reuse afterwards.
  Result<ShardCloseSummary> AwaitShardClosed(uint32_t channel);

  /// CloseShardBegin + AwaitShardClosed.
  Result<ShardCloseSummary> CloseShard(uint32_t channel);

  /// Post-header bytes already durable server-side for `channel`'s shard
  /// (WAL resume handshake); 0 for a fresh shard.
  uint64_t resume_offset(uint32_t channel) const;

  /// Channels currently open (closing ones included until awaited).
  size_t open_shards() const { return channels_.size(); }

  // --- legacy single-shard surface (primary channel) -----------------------

  /// Stages frame bytes for the primary shard.
  Status Send(const char* data, size_t size) {
    return Send(primary_, data, size);
  }
  Status Send(const std::string& bytes) {
    return Send(bytes.data(), bytes.size());
  }

  /// Flushes, declares end-of-stream, and waits for the server's merge
  /// verdict. The shard is gone afterwards; Reopen starts the next one.
  Result<ShardCloseSummary> Close() { return CloseShard(primary_); }

  /// Negotiates another primary shard on the same connection (after
  /// Close).
  Status Reopen(const stream::StreamHeader& header, uint64_t ordinal);

  /// Asks the server to close the current collection epoch and open the
  /// next (all server-side shards must be closed). Returns the session's
  /// current epoch on success.
  Result<uint32_t> AdvanceEpoch();

  /// Server-side shard id of the primary shard (diagnostic).
  uint64_t shard() const { return shard_; }

  /// The epoch the most recently opened shard folds into.
  uint32_t epoch() const { return epoch_; }

  /// resume_offset of the primary shard.
  uint64_t resume_offset() const { return resume_offset_; }

  bool shard_open() const { return channels_.count(primary_) != 0; }

 private:
  /// One open (or closing) shard multiplexed over the connection.
  struct ShardChannel {
    uint64_t shard = 0;
    uint64_t resume_offset = 0;
    std::string staged;
    uint64_t sent_bytes = 0;   ///< Post-header bytes shipped in DATA.
    uint64_t acked_bytes = 0;  ///< Server's cumulative DATA_ACK watermark.
    bool closing = false;      ///< CLOSE_SHARD sent, verdict not yet read.
  };

  explicit CollectorClient(Socket socket, CollectorClientOptions options)
      : socket_(std::move(socket)), options_(options) {}

  /// Sends HELLO for (`channel`, `ordinal`) and consumes the HELLO_OK /
  /// ERROR reply, registering the channel on success.
  Status Negotiate(const stream::StreamHeader& header, uint64_t ordinal,
                   uint32_t channel);

  /// Ships `channel`'s staged buffer as one DATA message, blocking for
  /// acks first when the window is full.
  Status Flush(uint32_t channel, ShardChannel& state);

  /// Reads one message off the socket (prefix + payload).
  Result<std::pair<MessageType, std::string>> ReadMessage();

  /// Applies one DATA_ACK's cumulative watermarks to the channel windows.
  Status ProcessAck(const std::string& payload);

  /// Reads and processes exactly one message: DATA_ACKs update windows,
  /// early SHARD_CLOSEDs are stashed, ERROR becomes the returned status.
  Status PumpMessage();

  /// Pumps until a message of `expected` type arrives (for kShardClosed,
  /// one whose channel is `want_channel`); returns its payload.
  Result<std::string> AwaitReply(MessageType expected, uint32_t want_channel);

  uint64_t TotalInFlight() const;

  Socket socket_;
  CollectorClientOptions options_;
  /// 0 when acks are off; otherwise the clamped in-flight bound.
  uint64_t effective_window_ = 0;
  std::map<uint32_t, ShardChannel> channels_;
  /// SHARD_CLOSED payloads that arrived while awaiting something else.
  std::map<uint32_t, std::string> closed_payloads_;
  uint32_t next_channel_ = 0;
  uint32_t primary_ = 0;
  uint64_t shard_ = 0;
  uint32_t epoch_ = 0;
  uint64_t resume_offset_ = 0;
};

}  // namespace ldp::net

#endif  // LDP_NET_CLIENT_H_

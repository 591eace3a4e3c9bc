// CollectorClient: the reporter's side of the collector protocol
// (net/protocol.h). One connection multiplexes many logical shards:
// OpenShard opens one more channel, Send ships raw report-stream frame
// bytes in bounded DATA messages, and CloseShard declares end-of-stream and
// returns the server's merge verdict with exact ingest statistics.
//
// Pipelined HELLOs: OpenShard does no I/O. It stages the channel's HELLO,
// which leaves ahead of the DATA and CLOSE_SHARD of the connection's next
// write, so a small shard costs one write and no round trip. HELLO_OK is
// then a reply read later, like SHARD_CLOSED: the client matches replies
// by channel and keeps verdicts that arrive early, decoded, so callers may
// await them in any order. A pipelined HELLO cannot learn a resume offset
// before it streams, so it sets kHelloFlagFromStart and always resends the
// whole shard. A refused HELLO closes the connection; the server's ERROR
// then surfaces from the next call that writes or reads, while verdicts
// read before it are still returned.
//
// Connect and Reopen still negotiate synchronously: they return only once
// HELLO_OK (or the refusal) for their channel is read, so a schema/ε
// mismatch fails before any report is sent and resume_offset() is known.
// This legacy single-shard surface (Connect, then Send/Close/Reopen) wraps
// one "primary" channel; existing reporters compile and behave unchanged.
//
// Flow control: with CollectorClientOptions::window_bytes set, the HELLO
// opts in to batched DATA_ACK watermarks and Send blocks once
// (sent - acked) bytes across all channels exceed the window — a reporter
// on a fast link cannot buffer the collector into the ground. The window
// is clamped to at least kDataAckFlushBytes + flush_bytes, because the
// server batches acks and a smaller window could wait for an ack the
// server is still accumulating. Independently, once more than a fixed
// number of replies are owed, a write is followed by a non-blocking read
// of whatever replies have arrived, so a reporter that awaits its verdicts
// only at the end does not make the collector buffer every reply.
//
// Batched I/O: replies are read through a buffer (net/read_buffer.h), so
// one recv brings every reply the server sent for one event. CloseShardBegin
// sends the staged HELLOs, the channel's staged DATA and its CLOSE_SHARD in
// one write. A write the collector refused still surfaces its pending ERROR
// verdict, not a bare send error.
//
// Blocking I/O with an optional idle timeout (a read that idles past it
// fails with kDeadlineExceeded); thread-compatible (one client per thread,
// like ClientSession's Rng discipline).

#ifndef LDP_NET_CLIENT_H_
#define LDP_NET_CLIENT_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "net/protocol.h"
#include "net/read_buffer.h"
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

  /// Opens one more shard over this connection and returns its channel
  /// id, without I/O: the HELLO leaves with the next write (see the file
  /// comment). Any number of shards may be open concurrently.
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
  /// Close), synchronously like Connect.
  Status Reopen(const stream::StreamHeader& header, uint64_t ordinal);

  /// Asks the server to close the current collection epoch and open the
  /// next (all server-side shards must be closed). Returns the session's
  /// current epoch on success.
  Result<uint32_t> AdvanceEpoch();

  /// Server-side shard id of the primary shard (diagnostic).
  uint64_t shard() const { return shard_; }

  /// The epoch named by the latest HELLO_OK or EPOCH_ADVANCED read; the
  /// next HELLO's authentication tag binds it.
  uint32_t epoch() const { return epoch_; }

  /// Post-header bytes already durable server-side for the primary shard
  /// (WAL resume handshake); 0 for a fresh shard.
  uint64_t resume_offset() const { return resume_offset_; }

  bool shard_open() const { return channels_.count(primary_) != 0; }

 private:
  /// One open (or closing) shard multiplexed over the connection. Kept
  /// small: a reporter that awaits its verdicts late holds one per shard.
  struct ShardChannel {
    std::string staged;
    uint64_t sent_bytes = 0;   ///< Post-header bytes shipped in DATA.
    uint64_t acked_bytes = 0;  ///< Server's cumulative DATA_ACK watermark.
    /// The SHARD_CLOSED verdict once read (its message, only present on
    /// error, is in verdict_messages_).
    stream::ShardIngester::Stats stats;
    uint8_t code = 0;
    bool admitted = false;  ///< HELLO_OK read.
    bool closing = false;   ///< CLOSE_SHARD sent.
    bool closed = false;    ///< SHARD_CLOSED read; the verdict is above.
  };

  /// One reply: a view into inbuf_, valid until the next read.
  struct Reply {
    MessageType type = MessageType::kError;
    std::string_view payload;
  };

  explicit CollectorClient(Socket socket, CollectorClientOptions options)
      : socket_(std::move(socket)), options_(options) {}

  /// Appends a HELLO for (`channel`, `ordinal`) to wire_ and registers the
  /// channel, not yet admitted.
  Status StageHello(const stream::StreamHeader& header, uint64_t ordinal,
                    uint32_t channel, uint32_t flags);

  /// The synchronous HELLO of Connect/Reopen: stages it on the primary
  /// channel, sends wire_ and reads replies until the channel's HELLO_OK
  /// (or the refusal) arrives.
  Status Negotiate(const stream::StreamHeader& header, uint64_t ordinal);

  /// Appends `channel`'s staged bytes to wire_ as one DATA message (none
  /// when nothing is staged), blocking for acks first when the window is
  /// full.
  Status AppendStaged(uint32_t channel, ShardChannel& state);

  /// Sends wire_ in one write and clears it; past the reply backlog, then
  /// reads whatever replies have arrived. On a send failure, returns the
  /// server's pending ERROR verdict when one arrives, else the send error.
  Status SendWire();

  /// Ships `channel`'s staged buffer as one DATA message.
  Status Flush(uint32_t channel, ShardChannel& state);

  /// Takes the next whole message out of inbuf_; false when none is
  /// buffered.
  Result<bool> TakeBuffered(Reply* reply);

  /// One recv into inbuf_ (blocking, or only what has already arrived).
  /// Returns whether the read filled its whole request, i.e. whether the
  /// socket may hold more.
  Result<bool> Fill(bool wait);

  /// Returns the next message, reading the socket only when inbuf_ holds
  /// no whole one.
  Result<Reply> ReadMessage();

  /// Applies one reply: DATA_ACKs update windows, HELLO_OK admits its
  /// channel, SHARD_CLOSED stores its channel's verdict, ERROR becomes the
  /// connection's sticky verdict and the returned status.
  Status ApplyReply(const Reply& reply);

  /// Reads and applies exactly one message.
  Status PumpMessage();

  /// Reads and applies every reply that has already arrived, without
  /// blocking.
  Status DrainReplies();

  /// Applies one DATA_ACK's cumulative watermarks to the channel windows.
  Status ProcessAck(std::string_view payload);

  uint64_t TotalInFlight() const;

  Socket socket_;
  ReadBuffer inbuf_;   ///< Received bytes not yet returned by ReadMessage.
  /// Outgoing messages: staged HELLOs, then whatever the next write adds.
  /// Reused across writes.
  std::string wire_;
  CollectorClientOptions options_;
  /// 0 when acks are off; otherwise the clamped in-flight bound.
  uint64_t effective_window_ = 0;
  std::unordered_map<uint32_t, ShardChannel> channels_;
  /// Messages of failed verdicts, by channel (a clean verdict has none).
  std::map<uint32_t, std::string> verdict_messages_;
  /// The server's ERROR once read: the connection is closed, and every
  /// later call that needs the wire returns it.
  Status refusal_ = Status::OK();
  /// HELLO_OK and SHARD_CLOSED replies owed for messages staged or sent,
  /// and the count at which the next write drains the arrived ones.
  uint64_t owed_replies_ = 0;
  uint64_t drain_at_ = 0;
  uint32_t next_channel_ = 0;
  uint32_t primary_ = 0;
  uint64_t shard_ = 0;
  uint32_t epoch_ = 0;
  uint64_t resume_offset_ = 0;
};

}  // namespace ldp::net

#endif  // LDP_NET_CLIENT_H_

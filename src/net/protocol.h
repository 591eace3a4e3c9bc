// The collector's connection protocol: a tiny length-prefixed control
// channel multiplexed with raw report-stream bytes, many logical shards
// per connection.
//
// Every message on the wire is
//
//   u8 type, u32 payload_length (little-endian), payload
//
// and a conversation is:
//
//   client                              server
//   ------                              ------
//   HELLO {version, channel, flags,  -> validate header, open shard
//          ordinal, header}          <- HELLO_OK {channel, shard, epoch}
//                                       | ERROR
//   DATA {channel, raw frame bytes}  (any chunking; fed straight into
//                            ServerSession::Feed — the report-stream
//                            framing below is untouched)      [repeated]
//                                    <- DATA_ACK {channel -> bytes}*
//                                       (batched; only if the HELLO set
//                                        kHelloFlagDataAcks)
//   CLOSE_SHARD {channel}            -> drain, merge
//                                    <- SHARD_CLOSED {channel, status,
//                                                     stats}
//   ... another HELLO (a new channel/shard), or ADVANCE_EPOCH, or EOF.
//
// A `channel` is the client-chosen id multiplexing several concurrently
// open shards over one connection; ids are free for reuse once their
// SHARD_CLOSED arrives. A client may pipeline several CLOSE_SHARDs and
// await them in any order, and DATA_ACKs interleave with the verdicts —
// clients must match replies by channel, not by order. A client may also
// pipeline HELLOs: DATA and CLOSE_SHARD may follow a HELLO in the same
// write, before its HELLO_OK arrives (a refused HELLO closes the
// connection, so nothing behind it is ever read).
//
// The HELLO payload carries the exact report-stream header
// (stream/report_stream.h) the subsequent DATA bytes would have started
// with on disk, so the server rejects a mismatched client (schema hash, ε,
// kinds) before a single report is decoded, and the ingester still consumes
// a byte-identical stream. `ordinal` is the client's shard index in its
// campaign: the server refuses a duplicate of an ordinal that is streaming
// or already merged this epoch, and a WAL replay resumes shards by it.
// Merges are exact integer sums, so a networked run is bit-identical to
// the file-based `ldp_aggregate shard-0 shard-1 ...` run no matter which
// connection arrives or finishes first.
//
// This header is transport-agnostic (pure encode/decode over strings) so
// the framing is unit-testable without sockets.

#ifndef LDP_NET_PROTOCOL_H_
#define LDP_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "stream/shard_ingester.h"
#include "util/result.h"
#include "util/status.h"

namespace ldp::net {

/// Current protocol version. v3 added the authenticated HELLO: a reporter
/// id plus an HMAC-SHA256 tag binding the id to the campaign key, stream
/// header, channel, and epoch.
inline constexpr uint16_t kProtocolVersion = 3;

/// The pre-identity version. Keyless servers still accept it (and
/// unauthenticated clients still emit it) so a v2 fleet keeps working
/// unchanged; keyed servers refuse it.
inline constexpr uint16_t kLegacyProtocolVersion = 2;

/// Upper bound on a reporter id carried in a v3 HELLO. Ids are opaque
/// client-chosen bytes; the bound keeps a hostile HELLO from smuggling a
/// huge allocation through the id length field.
inline constexpr size_t kMaxReporterIdBytes = 128;

/// Size of the raw HMAC-SHA256 tag in a v3 HELLO.
inline constexpr size_t kHelloAuthTagBytes = 32;

/// HELLO flag bit: the client wants batched DATA_ACK messages (cumulative
/// per-channel byte watermarks) so it can bound its in-flight window.
inline constexpr uint32_t kHelloFlagDataAcks = 1u << 0;

/// HELLO flag bit: the client streams this shard from its first byte. A
/// pipelined HELLO (CollectorClient::OpenShard) sends DATA before it could
/// read HELLO_OK's resume_offset, so when the ordinal has a WAL resume
/// entry the server abandons the replayed partial shard and opens a fresh
/// one (HELLO_OK then carries resume_offset 0) instead of re-attaching,
/// which would count the durable prefix twice.
inline constexpr uint32_t kHelloFlagFromStart = 1u << 1;

/// Every DATA payload starts with the u32 channel id of the shard the
/// frame bytes belong to.
inline constexpr size_t kDataChannelPrefixBytes = 4;

/// The server batches DATA_ACK watermarks until this many unacked bytes
/// have accumulated across an opted-in connection's channels (a close or
/// poison flushes early). Clients sizing a send window must leave at least
/// this much headroom or the window can deadlock waiting for an ack the
/// server is still batching.
inline constexpr uint64_t kDataAckFlushBytes = 256u << 10;

/// u8 type + u32 payload length.
inline constexpr size_t kMessageHeaderBytes = 5;

/// Upper bound on one message payload. DATA chunking keeps payloads small;
/// anything above this is a framing attack (e.g. a hostile length prefix
/// trying to make the server buffer 4 GiB) and poisons the connection.
inline constexpr uint32_t kMaxMessagePayload = 4u << 20;

enum class MessageType : uint8_t {
  // client -> server
  kHello = 0x01,
  kData = 0x02,
  kCloseShard = 0x03,
  kAdvanceEpoch = 0x04,
  kSnapshot = 0x05,
  // server -> client
  kHelloOk = 0x10,
  kShardClosed = 0x11,
  kEpochAdvanced = 0x12,
  kError = 0x13,
  kSnapshotOk = 0x14,
  kDataAck = 0x15,
};

/// True for the message types defined above.
bool IsKnownMessageType(uint8_t type);

/// The fixed message prefix.
struct MessageHeader {
  MessageType type = MessageType::kError;
  uint32_t payload_length = 0;
};

/// Serialises one message (header + payload) onto `out`. Fails on payloads
/// above kMaxMessagePayload.
Status AppendMessage(MessageType type, std::string_view payload,
                     std::string* out);

/// Serialises one DATA message for `channel` carrying `frames` onto `out`,
/// with no intermediate payload copy. Fails like AppendMessage when the
/// payload (channel prefix + frames) exceeds kMaxMessagePayload.
Status AppendData(uint32_t channel, std::string_view frames, std::string* out);

/// Parses and validates a message prefix: known type, length within bound.
/// Requires exactly kMessageHeaderBytes.
Result<MessageHeader> DecodeMessageHeader(const char* data, size_t size);

// --- payloads --------------------------------------------------------------

/// HELLO: the client introduces one shard-to-be on a fresh channel.
///
/// Two wire layouts share the message type. An unauthenticated HELLO
/// (empty reporter_id and auth_tag) encodes the v2 layout, byte-identical
/// to the previous release. An authenticated HELLO encodes v3: the fixed
/// fields, then u16 id length, the id bytes, the raw 32-byte tag, then the
/// stream header. DecodeHello dispatches on the leading version and fills
/// `version` with what was actually on the wire.
struct HelloMessage {
  uint16_t version = kProtocolVersion;
  /// Client-chosen id multiplexing this shard over the connection; must not
  /// collide with a channel still open on the same connection. Single-shard
  /// clients use 0.
  uint32_t channel = 0;
  /// kHelloFlag* bits. Zero keeps the server reply-only (no DATA_ACKs).
  uint32_t flags = 0;
  /// The shard's index in its campaign (see file comment). Clients
  /// streaming a single ad-hoc shard use 0.
  uint64_t ordinal = 0;
  /// v3 only: the authenticated reporter identity (1..kMaxReporterIdBytes
  /// opaque bytes) the server keys this shard's privacy ledger by.
  std::string reporter_id;
  /// v3 only: ComputeHelloTag(campaign key, ...) — raw kHelloAuthTagBytes.
  std::string auth_tag;
  /// The serialized stream::StreamHeader the shard's bytes start with.
  std::string header_bytes;
};

std::string EncodeHello(const HelloMessage& hello);
Result<HelloMessage> DecodeHello(std::string_view payload);

/// The v3 HELLO authentication tag: HMAC-SHA256 over a canonical encoding
/// of (reporter id, channel, epoch, stream header) under the campaign key.
/// Binding the channel and the server's current epoch means a captured tag
/// cannot be replayed onto another channel or into a later epoch; binding
/// the header means the tag vouches for the exact schema/ε the reporter
/// streams under.
std::string ComputeHelloTag(const std::string& campaign_key,
                            const std::string& reporter_id, uint32_t channel,
                            uint32_t epoch, const std::string& header_bytes);

/// HELLO_OK: the server accepted the shard.
struct HelloOkMessage {
  uint32_t channel = 0;  ///< Echo of the HELLO's channel id.
  uint64_t shard = 0;    ///< Server-side shard id (diagnostic).
  uint32_t epoch = 0;    ///< Epoch the shard will fold into.
  /// Resumable-shard handshake: post-header stream bytes of this ordinal
  /// already durable server-side (WAL replay after a crash). The reporter
  /// skips that many bytes instead of re-sending them; 0 for a fresh shard.
  uint64_t resume_offset = 0;
};

std::string EncodeHelloOk(const HelloOkMessage& ok);
Result<HelloOkMessage> DecodeHelloOk(std::string_view payload);

/// CLOSE_SHARD: the client is done streaming one channel's shard.
struct CloseShardMessage {
  uint32_t channel = 0;
};

std::string EncodeCloseShard(const CloseShardMessage& close);
Result<CloseShardMessage> DecodeCloseShard(std::string_view payload);

/// DATA_ACK: batched cumulative receipt watermarks, one entry per channel
/// with new progress since the last ack. `bytes` counts post-header stream
/// bytes the server has fed for that channel, so a client windowing its
/// sends can release (bytes - previously acked) from its in-flight budget.
struct DataAckMessage {
  struct Entry {
    uint32_t channel = 0;
    uint64_t bytes = 0;
  };
  std::vector<Entry> entries;
};

std::string EncodeDataAck(const DataAckMessage& ack);
Result<DataAckMessage> DecodeDataAck(std::string_view payload);

/// SNAPSHOT: a relay node ships its whole session snapshot upstream. The
/// snapshot is cumulative (every epoch, all reports so far), so a node may
/// re-send at any cadence: the upstream keeps only the highest `seq` per
/// node and folds the survivors at drain time — retries and restarts are
/// idempotent by construction.
struct SnapshotMessage {
  uint16_t version = kProtocolVersion;
  uint64_t node = 0;   ///< The sender's node id.
  uint64_t seq = 0;    ///< Monotone per node; highest wins upstream.
  uint32_t epoch = 0;  ///< Sender's current epoch at snapshot time.
  /// api::ServerSession::Snapshot() bytes ('LDPE'), length-prefixed on the
  /// wire so trailing garbage is detected.
  std::string snapshot_bytes;
};

std::string EncodeSnapshot(const SnapshotMessage& snapshot);
Result<SnapshotMessage> DecodeSnapshot(std::string_view payload);

/// SNAPSHOT_OK: the upstream durably holds (node, seq).
struct SnapshotOkMessage {
  uint64_t node = 0;
  uint64_t seq = 0;
};

std::string EncodeSnapshotOk(const SnapshotOkMessage& ok);
Result<SnapshotOkMessage> DecodeSnapshotOk(std::string_view payload);

/// SHARD_CLOSED: final verdict and exact ingest statistics for one shard.
struct ShardClosedMessage {
  uint32_t channel = 0;  ///< The channel the CLOSE_SHARD named.
  /// StatusCode of the close (kOk, or why the shard was discarded).
  uint8_t code = 0;
  stream::ShardIngester::Stats stats;
  std::string message;  ///< Error detail when code != 0.
};

std::string EncodeShardClosed(const ShardClosedMessage& closed);
Result<ShardClosedMessage> DecodeShardClosed(std::string_view payload);

/// EPOCH_ADVANCED: outcome of an ADVANCE_EPOCH request.
struct EpochAdvancedMessage {
  uint8_t code = 0;       ///< StatusCode of the AdvanceEpoch call.
  uint32_t epoch = 0;     ///< The session's current epoch after the call.
  std::string message;    ///< Error detail when code != 0.
};

std::string EncodeEpochAdvanced(const EpochAdvancedMessage& advanced);
Result<EpochAdvancedMessage> DecodeEpochAdvanced(std::string_view payload);

/// ERROR: the server refuses the connection or poisons the shard.
struct ErrorMessage {
  uint8_t code = 0;  ///< StatusCode (never kOk).
  std::string message;
};

std::string EncodeError(const Status& status);
Result<ErrorMessage> DecodeErrorMessage(std::string_view payload);

/// Rebuilds a Status from a wire code + message (unknown codes collapse to
/// kInternal rather than trusting the peer).
Status StatusFromWire(uint8_t code, const std::string& message);

}  // namespace ldp::net

#endif  // LDP_NET_PROTOCOL_H_

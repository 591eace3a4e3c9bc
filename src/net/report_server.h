// ReportServer: the network ingestion edge of a collection deployment. It
// owns a Listener (TCP or Unix-domain) and an event-driven core: N loop
// threads (Options::acceptors) each drive a Poller over non-blocking
// sockets. A readable event reads the socket in large chunks into the
// connection's read buffer (net/read_buffer.h) and dispatches every whole
// message in it from a view into the buffer; DATA bytes go straight into
// api::ServerSession::Feed — the same zero-copy framing, per-shard strand
// scheduling, and backpressure as every other ingest path. The replies an
// event queues leave in one send when it ends. One loop thread serves
// thousands of connections, so the edge scales to C10K+ reporters instead
// of one blocked thread per socket. A framing error, a mid-stream
// disconnect, or a slow-loris timeout poisons/abandons exactly that
// connection's shards; honest connections are untouched.
//
// Multiplexing: the protocol lets one connection carry many logical shards
// concurrently, each on a client-chosen *channel* (HELLO opens one,
// DATA/CLOSE_SHARD name one, SHARD_CLOSED echoes one). A HELLO may opt in
// to batched DATA_ACK watermarks so a windowing client can bound its
// in-flight bytes without one round trip per send.
//
// Identity: with Options::campaign_key set, every HELLO must be protocol
// v3 — reporter id plus an HMAC-SHA256 tag over (id, channel, epoch,
// header) — verified constant-time *before* the stream header is decoded;
// a refused HELLO never opens a shard or touches the session. The id keys
// the session's per-reporter privacy ledger, so a reporter reconnecting or
// sharding across connections is charged ε once per epoch. Tag
// verification is HELLO-only: the DATA hot path is untouched.
//
// Determinism: every aggregate is an exact integer sum (core/fixed_point.h),
// so merges are associative and commutative. A closed shard merges as soon
// as its CLOSE_SHARD arrives, and the session is bit-identical to the
// file-based `ldp_aggregate shard-0 ... shard-N-1` run and to the
// in-process Pipeline::Collect run for any arrival and completion order —
// late connectors, reverse-order closes and reporters that die mid-campaign
// included. The net e2e tests and CI pin this down.
//
// Threading: everything about a connection happens on its owning loop
// thread, CLOSE_SHARD included — WAL close record, session merge, and the
// SHARD_CLOSED reply. A close never waits on another shard, so no loop can
// deadlock on another. The ServerSession surface is thread-safe, so loops
// feed and close disjoint shards without further coordination. One caveat
// versus a thread-per-connection design: a shard held at Feed's
// backpressure bound, or draining its backlog at close, stalls its whole
// loop (bounded by the ingest pool's drain rate), not just its own
// connection.

#ifndef LDP_NET_REPORT_SERVER_H_
#define LDP_NET_REPORT_SERVER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/server_session.h"
#include "net/poller.h"
#include "net/protocol.h"
#include "net/read_buffer.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "stream/report_stream.h"
#include "util/result.h"

namespace ldp::obs {
class EventJournal;
}  // namespace ldp::obs

namespace ldp::net {

/// Durability hook on the accepted-frame path: every callback fires
/// *before* the corresponding session call, so a crash after the callback
/// loses nothing the reporter was told about. relay::FrameWal implements
/// this; net/ sees only the interface, keeping the dependency pointed
/// relay -> net. Every callback runs on the shard's owning loop thread;
/// different loops call concurrently for distinct shards.
class ShardDurabilityHook {
 public:
  virtual ~ShardDurabilityHook() = default;
  /// A fresh shard opened for `ordinal` in `epoch`; `header_bytes` is the
  /// validated stream header its byte stream starts with and `reporter_id`
  /// the authenticated identity it was charged to (empty when anonymous) —
  /// logged so a replay restores the exact per-reporter spend. Not called
  /// for resumed shards (their log already holds the header).
  virtual void OnShardOpen(size_t shard, uint64_t ordinal, uint32_t epoch,
                           const std::string& reporter_id,
                           const std::string& header_bytes) = 0;
  /// An accepted DATA payload, about to be fed to the session.
  virtual void OnShardData(size_t shard, const char* data, size_t size) = 0;
  /// Called immediately before the session close. Merges are exact, so a
  /// replay closes the logged shards in any order.
  virtual void OnShardClose(size_t shard) = 0;
  /// The shard was dropped (disconnect, timeout, poison, shutdown).
  virtual void OnShardAbandon(size_t shard) = 0;
};

/// A shard reconstructed by WAL replay that was still open at the crash:
/// HELLO for its ordinal re-attaches to it instead of opening a new shard,
/// and the reporter is told to skip `durable_bytes` post-header bytes.
struct ResumedShard {
  size_t shard = 0;
  uint64_t durable_bytes = 0;
};

struct ReportServerOptions {
  /// Event-loop threads (at least 1). Each drives its own Poller over a
  /// share of the connections; new connections are dealt round-robin.
  unsigned acceptors = 1;
  /// Readiness backend. kEpoll (the default) falls back to poll(2) on
  /// platforms without epoll; tests force kPoll to exercise the fallback.
  PollerBackend poller = PollerBackend::kEpoll;
  /// Reap a connection that takes longer than this to complete a protocol
  /// message, or sits idle between messages this long (0 = wait forever).
  /// The budget covers a whole prefix or payload — partial reads do not
  /// reset it — which is what bounds slow-loris reporters trickling bytes.
  /// Even at 0, a teardown's goodbye flush stays bounded by a fixed grace
  /// so Stop(drain) cannot hang on a peer that never reads its verdict.
  int idle_timeout_ms = 30000;
  /// When nonzero, the campaign's fleet size: a HELLO must name an ordinal
  /// in 0..expected_shards-1, and an ordinal whose shard already closed
  /// this epoch is refused as a duplicate (an abandoned or refused ordinal
  /// may stream again). It never delays a merge — merges are exact, so
  /// the session is the same whatever order shards close in. At 0 (ad
  /// hoc), only an ordinal that is still streaming is refused.
  uint64_t expected_shards = 0;
  /// Optional telemetry (obs/metrics.h): connection/HELLO/shard counters
  /// and the DATA read latency histogram. Typically the same registry the
  /// session reports through. Must outlive the server.
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional campaign event journal: HELLO accept/refuse and merge
  /// enter/exit events (the session journals shard lifecycle itself).
  obs::EventJournal* journal = nullptr;
  /// Accept SNAPSHOT messages from downstream relay nodes (a root or
  /// mid-tier collector). Off by default: an edge collector should not let
  /// arbitrary peers inject whole aggregates.
  bool accept_snapshots = false;
  /// When non-empty, the campaign's shared HMAC key: every HELLO must be a
  /// protocol v3 HELLO whose tag verifies (constant-time) against this key
  /// before the stream header is even decoded — an unauthenticated or
  /// forged HELLO never reaches the session. When empty, only legacy v2
  /// HELLOs are accepted; a v3 HELLO to a keyless server is refused loudly
  /// rather than silently skipping verification.
  std::string campaign_key;
  /// Optional write-ahead durability hook (relay::FrameWal). Must outlive
  /// the server.
  ShardDurabilityHook* wal = nullptr;
  /// Shards a WAL replay left open, keyed by ordinal: a HELLO for one of
  /// these re-attaches instead of opening a new shard, and HELLO_OK carries
  /// its durable byte count. A HELLO with kHelloFlagFromStart (the reporter
  /// resends the whole shard) instead abandons the replayed shard, WAL
  /// record included, and opens a fresh one with resume_offset 0. Entries
  /// are claimed by the first matching HELLO and the whole map is dropped
  /// on epoch advance (a new epoch has no pre-crash shards).
  std::unordered_map<uint64_t, ResumedShard> resume_shards;
  /// Ordinals a WAL replay already closed into the current epoch: with
  /// expected_shards set they seed the closed-ordinal set, so a re-HELLO
  /// for one is refused as a duplicate.
  std::set<uint64_t> completed_ordinals;
};

/// Monotonic counters over the server's lifetime.
struct ReportServerStats {
  uint64_t connections = 0;       ///< Accepted connections.
  uint64_t shards_merged = 0;     ///< Shards closed cleanly and folded in.
  uint64_t shards_discarded = 0;  ///< Shards closed poisoned (contributed 0).
  uint64_t shards_abandoned = 0;  ///< Shards dropped by disconnect/timeouts.
  uint64_t hello_rejected = 0;    ///< Connections refused at HELLO.
  uint64_t hello_unauthenticated = 0;
  ///< HELLOs refused by the auth gate (bad tag, wrong version for the
  ///< server's key state) — a subset of hello_rejected.
  uint64_t protocol_errors = 0;   ///< Connections killed by bad framing.
  uint64_t snapshots_accepted = 0;  ///< Relay SNAPSHOTs stored (fresh seq).
  uint64_t snapshots_stale = 0;     ///< Retries acked without replacing.
  uint64_t snapshots_refused = 0;   ///< Relay SNAPSHOTs rejected.
  uint64_t nodes_folded = 0;        ///< Relay nodes merged by Fold.
};

class ReportServer {
 public:
  /// Binds `endpoint` and starts accepting. `session` and the pipeline
  /// behind `expected` must outlive the server; `expected` is the stream
  /// header every reporter must HELLO with (Pipeline::header()).
  static Result<std::unique_ptr<ReportServer>> Start(
      api::ServerSession* session, const stream::StreamHeader& expected,
      const Endpoint& endpoint, ReportServerOptions options);

  /// Hard stop (drain = false).
  ~ReportServer();

  ReportServer(const ReportServer&) = delete;
  ReportServer& operator=(const ReportServer&) = delete;

  /// Stops accepting new connections and joins the loops. With `drain`,
  /// in-flight shards finish naturally — bounded by the idle timeout, and
  /// even with idle_timeout_ms == 0 a final reply a peer never reads is
  /// given up on after a fixed grace, so a drain always terminates.
  /// Without `drain`, connections are shut down immediately and their open
  /// shards abandoned. Idempotent; the first call wins.
  void Stop(bool drain);

  /// The bound endpoint with any ephemeral TCP port resolved — what
  /// reporters should connect to.
  const Endpoint& endpoint() const { return listener_.endpoint(); }

  ReportServerStats stats() const;

  /// Merges the retained relay snapshots (highest seq per node) into the
  /// session. Merges are exact, so a two-tier campaign reproduces the
  /// tree-shaped file run bit for bit.
  /// Call after Stop(drain): no connection is racing the session. A
  /// malformed snapshot mutates nothing (the session stages before
  /// committing); folding continues past it and the first error is
  /// returned.
  Status FoldRelaySnapshots();

 private:
  using SteadyTime = std::chrono::steady_clock::time_point;

  /// One logical shard multiplexed over a connection.
  struct ChannelState {
    size_t shard = 0;
    uint64_t ordinal = 0;
    /// Cumulative post-header bytes fed on this channel instance (the
    /// DATA_ACK watermark). Starts at 0 even for resumed shards: the
    /// client windows what *it* sent since the resume.
    uint64_t fed_bytes = 0;
  };

  /// One connection. Read-path fields are touched only by the owning loop
  /// thread; `mutex` guards the fields Stop also reads (channels, outbuf,
  /// flags).
  ///
  /// Reads: one recv of up to kReadChunkBytes per readable event (more
  /// only while a message still needs bytes, and a message larger than the
  /// chunk is received in place up to its end), then every whole message
  /// in `inbuf` is dispatched from a view into it. `inbuf` is the only
  /// copy of the received bytes. Between events a connection keeps it only
  /// while it holds part of a message; an idle one hands it back to its
  /// loop's pool, so idle connections cost no buffer.
  struct Conn {
    Socket socket;
    size_t loop = 0;

    // --- owning-loop-thread only ---------------------------------------
    ReadBuffer inbuf;
    /// The prefix at inbuf's front is decoded into `header` (and the
    /// payload's deadline armed), but the payload has not all arrived.
    bool have_header = false;
    MessageHeader header;
    uint64_t data_started_ns = 0;
    /// In Loop::ready: the dispatch budget ran out with whole messages
    /// still in inbuf.
    bool queued_ready = false;
    /// When the current message (or the wait for the next one) must
    /// complete; armed when a message's prefix is parsed with its payload
    /// still to come and when a message completes, never by partial reads.
    /// max() means unarmed (no bound). With idle_timeout_ms == 0 only
    /// goodbye flushes are armed (a bounded grace, so Stop(drain) cannot
    /// hang on a peer that never reads).
    SteadyTime deadline = SteadyTime::max();
    bool reads_closed = false;  ///< Poisoned: flush the outbuf, then die.
    bool wants_acks = false;    ///< Some HELLO set kHelloFlagDataAcks.
    uint64_t unacked_bytes = 0;
    /// Channels with progress since the last DATA_ACK (ordered for a
    /// deterministic wire layout).
    std::map<uint32_t, uint64_t> pending_acks;
    bool want_write = false;  ///< Poller currently watching writability.

    // --- shared with Stop (guarded by mutex) ----------------------------
    std::mutex mutex;
    std::unordered_map<uint32_t, ChannelState> channels;
    std::string outbuf;
    size_t outbuf_sent = 0;
    bool close_after_flush = false;
    bool dead = false;  ///< Torn down; queued replies are dropped.
  };

  /// One event-loop thread's state. `conns` is owned by the loop thread;
  /// `mutex` guards only the inbox the acceptor pushes into.
  struct Loop {
    Poller poller;
    int wake_read = -1;
    int wake_write = -1;
    std::thread thread;
    std::unordered_map<int, std::shared_ptr<Conn>> conns;
    std::mutex mutex;
    std::vector<std::shared_ptr<Conn>> adopt_inbox;  ///< Newly accepted.
    bool woken = false;  // coalesces wake-pipe writes
    /// Connections with whole messages buffered that their dispatch budget
    /// left behind. Those bytes already left the kernel, so no readiness
    /// event will come for them: the loop polls with timeout 0 and resumes
    /// these until the list is empty. Loop thread only.
    std::vector<std::shared_ptr<Conn>> ready;
    /// Read buffers of idle connections, reused by the next one to read.
    std::vector<ReadBuffer> spare_buffers;
  };

  ReportServer(api::ServerSession* session, stream::StreamHeader expected,
               ReportServerOptions options);

  // --- event loop ------------------------------------------------------
  void LoopMain(size_t index);
  void WakeLoop(size_t index);
  void AcceptReady(Loop& loop);
  void AdoptConn(Loop& loop, const std::shared_ptr<Conn>& conn);
  /// One readable event: dispatches what is already buffered, then reads
  /// and dispatches until the socket is drained, the dispatch budget runs
  /// out, or the connection dies; then FinishEvent.
  void HandleReadable(Loop& loop, const std::shared_ptr<Conn>& conn);
  /// Dispatches every whole message in conn->inbuf. Returns false when
  /// reading should stop: the connection was poisoned or torn down, or the
  /// budget ran out (the connection then joins loop.ready).
  bool DispatchBuffered(Loop& loop, const std::shared_ptr<Conn>& conn,
                        int* budget);
  /// Sends every reply the event queued in one go, and returns an emptied
  /// read buffer to the loop's pool.
  void FinishEvent(Loop& loop, const std::shared_ptr<Conn>& conn);
  /// Dispatches one complete message whose payload is `payload` (a view
  /// into conn->inbuf); returns false when the connection was poisoned or
  /// torn down.
  bool DispatchMessage(Loop& loop, const std::shared_ptr<Conn>& conn,
                       std::string_view payload);
  bool HandleHello(Loop& loop, const std::shared_ptr<Conn>& conn,
                   std::string_view payload);
  /// CLOSE_SHARD: WAL close, session merge, stats and journal, then the
  /// SHARD_CLOSED reply — all inline on the owning loop.
  bool HandleCloseShard(Loop& loop, const std::shared_ptr<Conn>& conn,
                        std::string_view payload);
  bool HandleSnapshot(Loop& loop, const std::shared_ptr<Conn>& conn,
                      std::string_view payload);
  /// End-of-stream / recv-fault / reap handling (see the protocol-error
  /// accounting rules in the .cc).
  void HandleConnFailure(Loop& loop, const std::shared_ptr<Conn>& conn,
                         bool clean_eof, bool reaped);
  /// Queues ERROR{verdict}, abandons the connection's shards, counts a
  /// protocol error if none was open, and flags close-after-flush.
  void PoisonConn(Loop& loop, const std::shared_ptr<Conn>& conn,
                  const Status& verdict, bool count_always);
  /// Abandons every open channel; returns how many there were.
  size_t AbandonConnChannels(const std::shared_ptr<Conn>& conn);
  /// Unregisters and closes the connection. Channels must already be
  /// abandoned.
  void DestroyConn(Loop& loop, const std::shared_ptr<Conn>& conn);
  /// Sends as much of the outbuf as the socket takes; manages write
  /// interest and close-after-flush teardown.
  void FlushConn(Loop& loop, const std::shared_ptr<Conn>& conn);
  /// Stops reading, flushes what is queued, then tears the connection
  /// down (the polite goodbye after an ERROR or a drain).
  void CloseAfterFlush(Loop& loop, const std::shared_ptr<Conn>& conn);
  /// Appends one message to the outbuf; FinishEvent (or a teardown's
  /// goodbye) sends it.
  void QueueMessage(const std::shared_ptr<Conn>& conn, MessageType type,
                    const std::string& payload);
  void FlushPendingAcks(const std::shared_ptr<Conn>& conn);
  void ArmDeadline(const std::shared_ptr<Conn>& conn);

  /// Validates and claims `ordinal` for a new shard (bounds and duplicate
  /// checks; see Options::expected_shards).
  Status RegisterOrdinal(uint64_t ordinal);
  /// Releases `ordinal` from the streaming set. A `closed` ordinal joins
  /// the expected-shards duplicate set; an abandoned one may stream again.
  void FinishOrdinal(uint64_t ordinal, bool closed);
  /// Flags `ordinal` as closed this epoch (mutex_ held, or before the loops
  /// start).
  void MarkOrdinalDone(uint64_t ordinal);
  void CountProtocolError();
  void CountAbandoned();

  api::ServerSession* session_;
  const stream::StreamHeader expected_;
  const ReportServerOptions options_;
  obs::NetServerMetrics metrics_;  // all-null when options_.metrics is null

  Listener listener_;
  std::vector<std::unique_ptr<Loop>> loops_;
  size_t rr_next_ = 0;  // round-robin loop assignment (loop 0 thread only)

  mutable std::mutex mutex_;
  /// Ordinals of open shards: a second HELLO for one is refused.
  std::set<uint64_t> active_ordinals_;
  /// Expected-shards mode only: a flag per ordinal in [0, expected_shards)
  /// whose shard closed in the current epoch (absent past the end = not
  /// done). Reset when the epoch advances.
  std::vector<bool> done_ordinals_;
  /// Replay-resumable shards not yet claimed by a HELLO (see Options).
  std::unordered_map<uint64_t, ResumedShard> resume_shards_;
  /// The latest snapshot accepted from each relay node.
  struct PendingSnapshot {
    uint64_t seq = 0;
    uint32_t epoch = 0;
    std::string bytes;
  };
  std::map<uint64_t, PendingSnapshot> relay_snapshots_;
  /// Live connections by fd, for Stop's shutdown sweep. Conns unregister
  /// under mutex_ before their fd closes, so a registered fd is never
  /// stale.
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;
  ReportServerStats stats_;
  std::condition_variable stopped_cv_;  // signalled when a Stop completes
  bool stop_accepting_ = false;
  bool stopped_ = false;  // Stop already ran (threads joined)
};

}  // namespace ldp::net

#endif  // LDP_NET_REPORT_SERVER_H_

#include "net/report_server.h"

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "obs/journal.h"
#include "util/hmac.h"

namespace ldp::net {

namespace {

// How many complete messages one readable event may dispatch before the
// loop moves on to other connections. Whole messages left in the read
// buffer are resumed through Loop::ready (level-triggered polling only
// re-fires for bytes still in the kernel), so this is fairness, not
// correctness.
constexpr int kDispatchBudget = 64;

// One socket read asks for this much (or, for a message larger than this,
// for the rest of that message), so a burst of small messages costs one
// recv instead of two per message.
constexpr size_t kReadChunkBytes = 64u << 10;

// Once this much of the outbuf's front has been sent, the dead prefix is
// compacted away instead of waiting for a full drain.
constexpr size_t kOutbufCompactBytes = 64u << 10;

// Bound on a close-after-flush goodbye when idle_timeout_ms == 0: the
// farewell (ERROR or final SHARD_CLOSED) must drain within this long or
// the connection is torn down anyway — otherwise a peer that never reads
// would pin the loop alive and Stop(drain) could hang forever.
constexpr int kCloseFlushGraceMs = 30000;

Status ErrnoStatus(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

Status MakePipeNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    return ErrnoStatus("fcntl(O_NONBLOCK)");
  }
  const int fd_flags = ::fcntl(fd, F_GETFD, 0);
  if (fd_flags < 0 || ::fcntl(fd, F_SETFD, fd_flags | FD_CLOEXEC) != 0) {
    return ErrnoStatus("fcntl(FD_CLOEXEC)");
  }
  return Status::OK();
}

uint32_t DecodeDataChannel(std::string_view payload) {
  const auto* p = reinterpret_cast<const unsigned char*>(payload.data());
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

// Refuses a relay snapshot whose preamble disagrees with this campaign's
// protocol — the same gate HELLO applies to stream headers, before any
// epoch state is decoded. Structural validation happens at fold time,
// where the session stages the whole snapshot before committing.
Status CheckSnapshotCompatible(const stream::StreamHeader& expected,
                               const std::string& bytes) {
  Result<api::SessionSnapshotConfig> config =
      api::DecodeSessionSnapshotConfig(bytes);
  if (!config.ok()) return config.status();
  if (config.value().kind != expected.kind) {
    return Status::FailedPrecondition("relay snapshot stream kind mismatch");
  }
  if (config.value().mechanism != expected.mechanism) {
    return Status::FailedPrecondition("relay snapshot mechanism mismatch");
  }
  if (config.value().oracle != expected.oracle) {
    return Status::FailedPrecondition("relay snapshot oracle mismatch");
  }
  if (config.value().schema_hash != expected.schema_hash) {
    return Status::FailedPrecondition("relay snapshot schema hash mismatch");
  }
  if (config.value().epsilon != expected.epsilon) {
    return Status::FailedPrecondition("relay snapshot epsilon mismatch");
  }
  return Status::OK();
}

}  // namespace

ReportServer::ReportServer(api::ServerSession* session,
                           stream::StreamHeader expected,
                           ReportServerOptions options)
    : session_(session),
      expected_(expected),
      options_(options),
      metrics_(obs::NetServerMetrics::ForRegistry(options.metrics)) {}

Result<std::unique_ptr<ReportServer>> ReportServer::Start(
    api::ServerSession* session, const stream::StreamHeader& expected,
    const Endpoint& endpoint, ReportServerOptions options) {
  if (session == nullptr) {
    return Status::InvalidArgument("report server needs a session");
  }
  options.acceptors = options.acceptors == 0 ? 1 : options.acceptors;
  // Can't use make_unique: the constructor is private.
  std::unique_ptr<ReportServer> server(
      new ReportServer(session, expected, options));
  Result<Listener> listener = Listener::Bind(endpoint);
  if (!listener.ok()) return listener.status();
  server->listener_ = std::move(listener).value();
  // Seed the duplicate and resume state from a WAL replay before any loop
  // exists (no lock needed yet): a re-HELLO for an ordinal the replay
  // already closed is refused.
  server->resume_shards_ = options.resume_shards;
  for (const uint64_t ordinal : options.completed_ordinals) {
    server->MarkOrdinalDone(ordinal);
  }
  server->loops_.reserve(options.acceptors);
  for (unsigned i = 0; i < options.acceptors; ++i) {
    server->loops_.push_back(std::make_unique<Loop>());
    Loop& loop = *server->loops_.back();
    Result<Poller> poller = Poller::Create(options.poller);
    if (!poller.ok()) return poller.status();
    loop.poller = std::move(poller).value();
    int fds[2];
    if (::pipe(fds) != 0) return ErrnoStatus("pipe");
    loop.wake_read = fds[0];
    loop.wake_write = fds[1];
    Status ready = MakePipeNonBlocking(loop.wake_read);
    if (ready.ok()) ready = MakePipeNonBlocking(loop.wake_write);
    if (ready.ok()) ready = loop.poller.Add(loop.wake_read, true, false);
    if (!ready.ok()) return ready;  // ~ReportServer closes the pipe fds
  }
  for (unsigned i = 0; i < options.acceptors; ++i) {
    server->loops_[i]->thread =
        std::thread([raw = server.get(), i] { raw->LoopMain(i); });
  }
  if (options.journal != nullptr) {
    options.journal->Record(obs::EventKind::kServerStart);
  }
  return server;
}

ReportServer::~ReportServer() {
  Stop(/*drain=*/false);
  for (auto& loop : loops_) {
    if (loop->wake_read >= 0) ::close(loop->wake_read);
    if (loop->wake_write >= 0) ::close(loop->wake_write);
  }
}

void ReportServer::Stop(bool drain) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (stop_accepting_) {
      // Another thread is already stopping (or has stopped): joining the
      // same std::threads twice is UB, so wait for that stop to finish.
      stopped_cv_.wait(lock, [&] { return stopped_; });
      return;
    }
    stop_accepting_ = true;
    if (!drain) {
      // Kick every connection out of the kernel: reads return EOF, sends
      // fail, and the loops tear everything down and abandon open shards.
      for (const auto& [fd, conn] : conns_) ::shutdown(fd, SHUT_RDWR);
    } else {
      // A drain waits only for shards in flight: connections idling
      // between shards are woken so they notice the stop immediately
      // instead of sitting out the idle timeout.
      for (const auto& [fd, conn] : conns_) {
        bool busy;
        {
          std::lock_guard<std::mutex> conn_lock(conn->mutex);
          busy = !conn->channels.empty();
        }
        if (!busy) ::shutdown(fd, SHUT_RDWR);
      }
    }
  }
  for (size_t i = 0; i < loops_.size(); ++i) WakeLoop(i);
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopped_ = true;
    stopped_cv_.notify_all();
  }
  if (options_.journal != nullptr) {
    options_.journal->Record(obs::EventKind::kServerStop);
  }
}

ReportServerStats ReportServer::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

Status ReportServer::FoldRelaySnapshots() {
  std::map<uint64_t, PendingSnapshot> pending;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pending.swap(relay_snapshots_);
  }
  Status first_error = Status::OK();
  for (const auto& [node, snap] : pending) {
    const Status merged = session_->Merge(snap.bytes);
    if (merged.ok()) {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.nodes_folded;
    } else if (first_error.ok()) {
      first_error = merged;
    }
    if (options_.journal != nullptr) {
      options_.journal->Record(obs::EventKind::kRelayFold, node,
                               merged.ok() ? 0 : 1);
    }
  }
  return first_error;
}

// --- event loop ------------------------------------------------------------

void ReportServer::WakeLoop(size_t index) {
  Loop& loop = *loops_[index];
  {
    std::lock_guard<std::mutex> lock(loop.mutex);
    if (loop.woken) return;
    loop.woken = true;
  }
  const char byte = 1;
  // A full pipe means a wake is already pending; nothing to do.
  (void)!::write(loop.wake_write, &byte, 1);
}

void ReportServer::LoopMain(size_t index) {
  Loop& loop = *loops_[index];
  // Loop 0 doubles as the acceptor: the listener fd sits in its poll set
  // next to the connections it serves.
  bool listener_watched = false;
  if (index == 0 && loop.poller.Add(listener_.fd(), true, false).ok()) {
    listener_watched = true;
  }
  std::vector<PollerEvent> events;
  std::vector<std::shared_ptr<Conn>> adopts;
  while (true) {
    {
      std::lock_guard<std::mutex> lock(loop.mutex);
      adopts.swap(loop.adopt_inbox);
      loop.woken = false;
    }
    for (const auto& conn : adopts) AdoptConn(loop, conn);
    adopts.clear();

    bool stopping;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping = stop_accepting_;
    }
    if (stopping && listener_watched) {
      (void)loop.poller.Remove(listener_.fd());
      listener_watched = false;
    }
    if (stopping && loop.conns.empty()) {
      std::lock_guard<std::mutex> lock(loop.mutex);
      if (loop.adopt_inbox.empty()) return;
      continue;  // late arrivals: adopt them so they can be torn down
    }

    // Sleep until the nearest connection deadline (the slow-loris budget
    // or a goodbye-flush grace), a readiness event, or a wake — or not at
    // all while buffered messages wait in the ready list.
    int timeout_ms = -1;
    if (!loop.ready.empty()) {
      timeout_ms = 0;
    } else if (!loop.conns.empty()) {
      SteadyTime nearest = SteadyTime::max();
      for (const auto& [fd, conn] : loop.conns) {
        nearest = std::min(nearest, conn->deadline);
      }
      if (nearest != SteadyTime::max()) {
        const auto now = std::chrono::steady_clock::now();
        if (nearest <= now) {
          timeout_ms = 0;
        } else {
          const auto until =
              std::chrono::duration_cast<std::chrono::milliseconds>(nearest -
                                                                    now)
                  .count();
          timeout_ms = static_cast<int>(std::min<long long>(until + 1, 60000));
        }
      }
    }

    events.clear();
    if (!loop.poller.Wait(timeout_ms, &events).ok()) {
      // A broken poller would spin; this path should be unreachable.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    for (const PollerEvent& event : events) {
      if (event.fd == loop.wake_read) {
        char drain[256];
        while (::read(loop.wake_read, drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      if (listener_watched && event.fd == listener_.fd()) {
        AcceptReady(loop);
        continue;
      }
      auto found = loop.conns.find(event.fd);
      if (found == loop.conns.end()) continue;  // torn down this batch
      std::shared_ptr<Conn> conn = found->second;
      if (conn->dead) continue;
      if (conn->reads_closed) {
        // Poisoned: only the error flush is left. An error event means the
        // peer is gone and even that is moot.
        if (event.error) {
          DestroyConn(loop, conn);
        } else if (event.writable) {
          FlushConn(loop, conn);
        }
        continue;
      }
      if (event.readable || event.error) HandleReadable(loop, conn);
      if (event.writable && !conn->dead) FlushConn(loop, conn);
    }

    if (!loop.ready.empty()) {
      std::vector<std::shared_ptr<Conn>> ready;
      ready.swap(loop.ready);
      for (const auto& conn : ready) {
        conn->queued_ready = false;
        if (conn->dead || conn->reads_closed) continue;
        int budget = kDispatchBudget;
        DispatchBuffered(loop, conn, &budget);
        FinishEvent(loop, conn);
      }
    }

    if (!loop.conns.empty()) {
      const SteadyTime now = std::chrono::steady_clock::now();
      std::vector<std::shared_ptr<Conn>> expired;
      for (const auto& [fd, conn] : loop.conns) {
        if (conn->deadline <= now) expired.push_back(conn);
      }
      for (const auto& conn : expired) {
        if (conn->reads_closed) {
          // The poisoned reply could not be flushed within the budget.
          DestroyConn(loop, conn);
          continue;
        }
        bool goodbye_stuck;
        {
          std::lock_guard<std::mutex> conn_lock(conn->mutex);
          goodbye_stuck = conn->close_after_flush;
        }
        if (goodbye_stuck) {
          // A drain goodbye the peer never read: give up on delivery.
          DestroyConn(loop, conn);
          continue;
        }
        HandleConnFailure(loop, conn, /*clean_eof=*/false, /*reaped=*/true);
      }
    }
  }
}

void ReportServer::AcceptReady(Loop& loop) {
  while (true) {
    Result<Socket> accepted = listener_.TryAccept();
    // A broken listener stops accepting; existing connections keep going.
    if (!accepted.ok()) return;
    // Invalid covers both "drained" and "one connection lost to a
    // transient fault" — either way, level-triggered polling re-fires if
    // more are pending.
    if (!accepted.value().valid()) return;
    Socket socket = std::move(accepted).value();
    if (!socket.SetNonBlocking().ok()) continue;
    auto conn = std::make_shared<Conn>();
    conn->socket = std::move(socket);
    const size_t target = rr_next_++ % loops_.size();
    conn->loop = target;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stop_accepting_) return;  // racing Stop: drop the connection
      ++stats_.connections;
      conns_.emplace(conn->socket.fd(), conn);
    }
    if (metrics_.enabled()) metrics_.connections->Increment();
    if (target == 0) {
      AdoptConn(loop, conn);
    } else {
      Loop& other = *loops_[target];
      {
        std::lock_guard<std::mutex> lock(other.mutex);
        other.adopt_inbox.push_back(conn);
      }
      WakeLoop(target);
    }
  }
}

void ReportServer::AdoptConn(Loop& loop, const std::shared_ptr<Conn>& conn) {
  const int fd = conn->socket.fd();
  if (!loop.poller.Add(fd, true, false).ok()) {
    std::lock_guard<std::mutex> lock(mutex_);
    conns_.erase(fd);
    return;  // the socket closes with the last Conn reference
  }
  loop.conns.emplace(fd, conn);
  ArmDeadline(conn);
}

void ReportServer::ArmDeadline(const std::shared_ptr<Conn>& conn) {
  if (options_.idle_timeout_ms > 0) {
    conn->deadline = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(options_.idle_timeout_ms);
    return;
  }
  // No idle timeout: the only bounded wait is a teardown's goodbye flush.
  // Without it, Stop(drain) could hang on a peer that never reads its
  // final reply.
  bool closing = conn->reads_closed;
  if (!closing) {
    std::lock_guard<std::mutex> conn_lock(conn->mutex);
    closing = conn->close_after_flush;
  }
  if (closing && conn->deadline == SteadyTime::max()) {
    conn->deadline = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(kCloseFlushGraceMs);
  }
}

void ReportServer::HandleReadable(Loop& loop,
                                  const std::shared_ptr<Conn>& conn) {
  if (conn->inbuf.empty() && !loop.spare_buffers.empty()) {
    conn->inbuf = std::move(loop.spare_buffers.back());
    loop.spare_buffers.pop_back();
  }
  int budget = kDispatchBudget;
  // Whole messages an earlier event left behind go before any new bytes.
  bool reading = DispatchBuffered(loop, conn, &budget);
  while (reading) {
    // A chunk, or the rest of a message too large for one: received in
    // place, so the payload is dispatched from where it landed.
    size_t want = kReadChunkBytes;
    if (conn->have_header) {
      want = std::max(want, kMessageHeaderBytes + conn->header.payload_length -
                                conn->inbuf.size());
    }
    bool eof = false;
    Result<size_t> got =
        conn->socket.RecvSome(conn->inbuf.Reserve(want), want, &eof);
    if (!got.ok()) {
      HandleConnFailure(loop, conn, /*clean_eof=*/false, /*reaped=*/false);
      break;
    }
    if (eof) {
      // EOF on a message boundary is the clean goodbye; EOF inside a
      // message means the framing was cut mid-message.
      HandleConnFailure(loop, conn, /*clean_eof=*/conn->inbuf.empty(),
                        /*reaped=*/false);
      break;
    }
    if (got.value() == 0) break;  // socket drained
    if (metrics_.enabled()) metrics_.reads->Increment();
    conn->inbuf.Commit(got.value());
    // A short read drained the socket, so no EAGAIN recv follows it; after
    // a full one, read on only while a message still needs bytes (the
    // poller re-fires for anything past a message boundary).
    reading = DispatchBuffered(loop, conn, &budget) && got.value() == want &&
              !conn->inbuf.empty();
  }
  FinishEvent(loop, conn);
}

bool ReportServer::DispatchBuffered(Loop& loop,
                                    const std::shared_ptr<Conn>& conn,
                                    int* budget) {
  while (true) {
    if (!conn->have_header) {
      if (conn->inbuf.size() < kMessageHeaderBytes) return true;
      Result<MessageHeader> header =
          DecodeMessageHeader(conn->inbuf.data(), kMessageHeaderBytes);
      if (!header.ok()) {
        // Unknown type or a hostile length prefix: the message boundaries
        // can no longer be trusted — kill the connection.
        PoisonConn(loop, conn, header.status(), /*count_always=*/true);
        return false;
      }
      conn->header = header.value();
      conn->have_header = true;
      // The DATA service-time clock starts when the message is parsed from
      // the buffer: the histogram covers the rest of its payload read (for
      // a message larger than one read) and the session Feed.
      conn->data_started_ns =
          metrics_.enabled() && conn->header.type == MessageType::kData
              ? obs::SteadyNowNs()
              : 0;
      if (conn->inbuf.size() <
          kMessageHeaderBytes + conn->header.payload_length) {
        // The payload gets its own whole-message budget, armed once here:
        // partial reads never reset it (the slow-loris defense).
        ArmDeadline(conn);
        return true;
      }
    }
    const size_t total = kMessageHeaderBytes + conn->header.payload_length;
    if (conn->inbuf.size() < total) return true;
    if (*budget <= 0) {
      // Fairness: let other connections run, and resume this one from the
      // ready list.
      if (!conn->queued_ready) {
        conn->queued_ready = true;
        loop.ready.push_back(conn);
      }
      return false;
    }
    --*budget;
    conn->have_header = false;
    const bool alive = DispatchMessage(
        loop, conn,
        std::string_view(conn->inbuf.data() + kMessageHeaderBytes,
                         conn->header.payload_length));
    conn->inbuf.Consume(total);
    if (!alive) return false;
    ArmDeadline(conn);
    // Between shards is a drain point: once the server is stopping, a
    // connection with nothing open has nothing left to say.
    bool no_channels;
    {
      std::lock_guard<std::mutex> conn_lock(conn->mutex);
      no_channels = conn->channels.empty();
    }
    if (no_channels) {
      bool stopping;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping = stop_accepting_;
      }
      if (stopping) {
        CloseAfterFlush(loop, conn);
        return false;
      }
    }
  }
}

void ReportServer::FinishEvent(Loop& loop, const std::shared_ptr<Conn>& conn) {
  FlushConn(loop, conn);
  if (conn->inbuf.empty()) {
    loop.spare_buffers.push_back(std::move(conn->inbuf));
    conn->inbuf = ReadBuffer();
  }
}

bool ReportServer::DispatchMessage(Loop& loop,
                                   const std::shared_ptr<Conn>& conn,
                                   std::string_view payload) {
  switch (conn->header.type) {
    case MessageType::kHello:
      return HandleHello(loop, conn, payload);
    case MessageType::kData: {
      if (payload.size() < kDataChannelPrefixBytes) {
        PoisonConn(loop, conn,
                   Status::InvalidArgument(
                       "DATA payload is missing its channel prefix"),
                   /*count_always=*/false);
        return false;
      }
      const uint32_t channel = DecodeDataChannel(payload);
      size_t shard = 0;
      bool open = false;
      {
        std::lock_guard<std::mutex> conn_lock(conn->mutex);
        auto found = conn->channels.find(channel);
        if (found != conn->channels.end()) {
          shard = found->second.shard;
          open = true;
        }
      }
      if (!open) {
        PoisonConn(loop, conn,
                   Status::FailedPrecondition("DATA before HELLO"),
                   /*count_always=*/false);
        return false;
      }
      const char* data = payload.data() + kDataChannelPrefixBytes;
      const size_t size = payload.size() - kDataChannelPrefixBytes;
      // Durability before visibility: the frame bytes hit the WAL before
      // the session, so nothing the reporter gets acked can be lost.
      if (options_.wal != nullptr && size > 0) {
        options_.wal->OnShardData(shard, data, size);
      }
      // Feed without conn->mutex: it may block on ingest backpressure, and
      // Stop must stay able to inspect the connection meanwhile. Only the
      // owning loop erases a channel, so `shard` stays valid.
      const Status fed = session_->Feed(shard, data, size);
      if (conn->data_started_ns != 0) {
        metrics_.data_messages->Increment();
        metrics_.data_read_us->Observe(
            (obs::SteadyNowNs() - conn->data_started_ns) / 1000);
      }
      if (!fed.ok()) {
        PoisonConn(loop, conn, fed, /*count_always=*/false);
        return false;
      }
      uint64_t watermark = 0;
      {
        std::lock_guard<std::mutex> conn_lock(conn->mutex);
        auto found = conn->channels.find(channel);
        if (found != conn->channels.end()) {
          found->second.fed_bytes += size;
          watermark = found->second.fed_bytes;
        }
      }
      if (conn->wants_acks) {
        conn->pending_acks[channel] = watermark;
        conn->unacked_bytes += size;
        if (conn->unacked_bytes >= kDataAckFlushBytes) {
          FlushPendingAcks(conn);
        }
      }
      return !conn->dead;
    }
    case MessageType::kCloseShard:
      return HandleCloseShard(loop, conn, payload);
    case MessageType::kAdvanceEpoch: {
      // The session refuses while any shard (this connection's included)
      // is open, so no extra gating is needed here.
      const Status advanced = session_->AdvanceEpoch();
      if (advanced.ok()) {
        // A new epoch restarts the campaign: ordinals 0..N-1 stream
        // again — and a new epoch has no pre-crash shards, so unclaimed
        // resume entries expire.
        std::lock_guard<std::mutex> lock(mutex_);
        done_ordinals_.clear();
        resume_shards_.clear();
      }
      EpochAdvancedMessage reply;
      reply.code = static_cast<uint8_t>(advanced.code());
      reply.epoch = session_->current_epoch();
      reply.message = advanced.message();
      QueueMessage(conn, MessageType::kEpochAdvanced,
                   EncodeEpochAdvanced(reply));
      return true;
    }
    case MessageType::kSnapshot:
      return HandleSnapshot(loop, conn, payload);
    default:
      // Server-only types arriving from a client.
      PoisonConn(loop, conn,
                 Status::InvalidArgument("unexpected message type"),
                 /*count_always=*/false);
      return false;
  }
}

bool ReportServer::HandleHello(Loop& loop,
                               const std::shared_ptr<Conn>& conn,
                               std::string_view payload) {
  Result<HelloMessage> hello = DecodeHello(payload);
  if (!hello.ok()) {
    PoisonConn(loop, conn, hello.status(), /*count_always=*/false);
    return false;
  }
  const uint32_t channel = hello.value().channel;
  bool duplicate;
  {
    std::lock_guard<std::mutex> conn_lock(conn->mutex);
    duplicate = conn->channels.count(channel) != 0;
  }
  if (duplicate) {
    PoisonConn(loop, conn,
               Status::FailedPrecondition(
                   "HELLO reuses a channel that is still open"),
               /*count_always=*/false);
    return false;
  }
  // The authentication gate runs before the stream header is decoded: a
  // forged or unauthenticated HELLO is refused on the cheap fixed fields
  // alone and never reaches the session.
  Status auth = Status::OK();
  if (options_.campaign_key.empty()) {
    if (hello.value().version != kLegacyProtocolVersion) {
      auth = Status::FailedPrecondition(
          "this collector has no campaign key and refuses authenticated "
          "HELLOs rather than skipping verification");
    }
  } else if (hello.value().version != kProtocolVersion) {
    auth = Status::FailedPrecondition(
        "this campaign requires an authenticated protocol v3 HELLO");
  } else {
    const std::string expected_tag = ComputeHelloTag(
        options_.campaign_key, hello.value().reporter_id,
        hello.value().channel, session_->current_epoch(),
        hello.value().header_bytes);
    if (!util::ConstantTimeEqual(expected_tag, hello.value().auth_tag)) {
      auth = Status::FailedPrecondition(
          "HELLO authentication tag does not verify for this campaign, "
          "channel, and epoch");
    }
  }
  if (!auth.ok()) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.hello_rejected;
      ++stats_.hello_unauthenticated;
    }
    if (metrics_.enabled()) {
      metrics_.hello_refused->Increment();
      metrics_.hello_unauthenticated->Increment();
    }
    if (options_.journal != nullptr) {
      options_.journal->Record(obs::EventKind::kAuthRefuse,
                               hello.value().ordinal);
    }
    FlushPendingAcks(conn);
    QueueMessage(conn, MessageType::kError, EncodeError(auth));
    AbandonConnChannels(conn);
    CloseAfterFlush(loop, conn);
    return false;
  }
  Result<stream::StreamHeader> peer =
      stream::DecodeStreamHeader(hello.value().header_bytes);
  Status refusal = peer.ok()
                       ? stream::CheckHeadersCompatible(expected_, peer.value())
                       : peer.status();
  if (refusal.ok()) refusal = RegisterOrdinal(hello.value().ordinal);
  if (!refusal.ok()) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.hello_rejected;
    }
    if (metrics_.enabled()) metrics_.hello_refused->Increment();
    if (options_.journal != nullptr) {
      options_.journal->Record(obs::EventKind::kHelloRefuse,
                               hello.value().ordinal);
    }
    // A refused HELLO closes the whole connection (as in v1, where a
    // connection carried exactly one shard), so other channels abandon.
    FlushPendingAcks(conn);
    QueueMessage(conn, MessageType::kError, EncodeError(refusal));
    AbandonConnChannels(conn);
    CloseAfterFlush(loop, conn);
    return false;
  }
  // A WAL replay may have left this ordinal's shard open at the crash:
  // re-attach to it instead of opening anew, and tell the reporter how
  // many post-header bytes are already durable.
  ResumedShard resumed;
  bool is_resume = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto found = resume_shards_.find(hello.value().ordinal);
    if (found != resume_shards_.end()) {
      resumed = found->second;
      is_resume = true;
      resume_shards_.erase(found);
    }
  }
  if (is_resume && (hello.value().flags & kHelloFlagFromStart) != 0) {
    // A pipelined HELLO streams its shard from byte 0 (it could not wait
    // for resume_offset), so re-attaching would count the durable prefix
    // twice: log the replayed partial shard abandoned, drop it, and open
    // afresh below. The reopen's ledger charge is idempotent — the replay
    // already charged this (reporter, epoch).
    if (options_.wal != nullptr) options_.wal->OnShardAbandon(resumed.shard);
    (void)session_->AbandonShard(resumed.shard);
    CountAbandoned();
    is_resume = false;
  }
  ChannelState state;
  state.ordinal = hello.value().ordinal;
  if (is_resume) {
    state.shard = resumed.shard;
  } else {
    // Opening charges the reporter's privacy ledger for this epoch
    // (idempotently — a reconnect is already paid for). A reporter whose
    // lifetime budget cannot afford the epoch is refused here, shardless.
    Result<size_t> opened = session_->OpenShard(hello.value().reporter_id);
    if (!opened.ok()) {
      // Release the ordinal the way an abandoned shard would: the campaign
      // proceeds with this reporter's shard simply missing.
      FinishOrdinal(state.ordinal, /*closed=*/false);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.hello_rejected;
      }
      if (metrics_.enabled()) metrics_.hello_refused->Increment();
      if (options_.journal != nullptr) {
        options_.journal->Record(obs::EventKind::kHelloRefuse,
                                 hello.value().ordinal);
      }
      FlushPendingAcks(conn);
      QueueMessage(conn, MessageType::kError, EncodeError(opened.status()));
      AbandonConnChannels(conn);
      CloseAfterFlush(loop, conn);
      return false;
    }
    state.shard = opened.value();
  }
  if (metrics_.enabled()) metrics_.hello_accepted->Increment();
  if (options_.journal != nullptr) {
    options_.journal->Record(obs::EventKind::kHelloAccept,
                             hello.value().ordinal);
  }
  if ((hello.value().flags & kHelloFlagDataAcks) != 0) {
    conn->wants_acks = true;
  }
  {
    std::lock_guard<std::mutex> conn_lock(conn->mutex);
    conn->channels.emplace(channel, state);
  }
  if (!is_resume) {
    if (options_.wal != nullptr) {
      options_.wal->OnShardOpen(state.shard, state.ordinal,
                                session_->current_epoch(),
                                hello.value().reporter_id,
                                hello.value().header_bytes);
    }
    // The shard's byte stream is header + frames, exactly as on disk; the
    // validated HELLO header bytes are that header. (A replayed shard
    // already holds its header — nothing to feed, nothing new for the WAL.)
    const Status fed =
        session_->Feed(state.shard, hello.value().header_bytes);
    if (!fed.ok()) {
      PoisonConn(loop, conn, fed, /*count_always=*/false);
      return false;
    }
  }
  HelloOkMessage ok;
  ok.channel = channel;
  ok.shard = state.shard;
  ok.epoch = session_->current_epoch();
  ok.resume_offset = is_resume ? resumed.durable_bytes : 0;
  QueueMessage(conn, MessageType::kHelloOk, EncodeHelloOk(ok));
  return true;
}

bool ReportServer::HandleCloseShard(Loop& loop,
                                    const std::shared_ptr<Conn>& conn,
                                    std::string_view payload) {
  Result<CloseShardMessage> close = DecodeCloseShard(payload);
  if (!close.ok()) {
    PoisonConn(loop, conn, close.status(), /*count_always=*/false);
    return false;
  }
  const uint32_t channel = close.value().channel;
  ChannelState state;
  bool open = false;
  {
    std::lock_guard<std::mutex> conn_lock(conn->mutex);
    auto found = conn->channels.find(channel);
    if (found != conn->channels.end()) {
      state = found->second;
      open = true;
    }
  }
  if (!open) {
    PoisonConn(loop, conn,
               Status::FailedPrecondition("CLOSE_SHARD before HELLO"),
               /*count_always=*/false);
    return false;
  }
  // Queue the channel's final watermark ahead of the SHARD_CLOSED reply so
  // a windowing client's in-flight budget fully drains.
  FlushPendingAcks(conn);
  if (options_.journal != nullptr) {
    options_.journal->Record(obs::EventKind::kMergeEnter, state.ordinal);
  }
  if (options_.wal != nullptr) options_.wal->OnShardClose(state.shard);
  const Status closed = session_->CloseShard(state.shard);
  FinishOrdinal(state.ordinal, /*closed=*/true);
  if (options_.journal != nullptr) {
    options_.journal->Record(obs::EventKind::kMergeExit, state.ordinal,
                             closed.ok() ? 0 : 1);
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed.ok()) {
      ++stats_.shards_merged;
    } else {
      ++stats_.shards_discarded;
    }
  }
  if (metrics_.enabled()) {
    (closed.ok() ? metrics_.shards_merged : metrics_.shards_discarded)
        ->Increment();
  }
  ShardClosedMessage reply;
  reply.channel = channel;
  reply.code = static_cast<uint8_t>(closed.code());
  reply.message = closed.message();
  Result<stream::ShardIngester::Stats> shard_stats =
      session_->ShardStats(state.shard);
  if (shard_stats.ok()) reply.stats = shard_stats.value();
  // Drop the channel before the reply can flush: a send failure tears the
  // connection down, and its abandon sweep must not see a merged shard.
  {
    std::lock_guard<std::mutex> conn_lock(conn->mutex);
    conn->channels.erase(channel);
  }
  QueueMessage(conn, MessageType::kShardClosed, EncodeShardClosed(reply));
  return true;
}

bool ReportServer::HandleSnapshot(Loop& loop,
                                  const std::shared_ptr<Conn>& conn,
                                  std::string_view payload) {
  bool has_channels;
  {
    std::lock_guard<std::mutex> conn_lock(conn->mutex);
    has_channels = !conn->channels.empty();
  }
  if (has_channels) {
    PoisonConn(loop, conn,
               Status::FailedPrecondition(
                   "SNAPSHOT while this connection's shard is open"),
               /*count_always=*/false);
    return false;
  }
  Result<SnapshotMessage> snap = DecodeSnapshot(payload);
  Status refusal = Status::OK();
  if (!snap.ok()) {
    refusal = snap.status();
  } else if (!options_.accept_snapshots) {
    refusal = Status::FailedPrecondition(
        "this collector does not accept relay snapshots");
  } else {
    refusal = CheckSnapshotCompatible(expected_, snap.value().snapshot_bytes);
  }
  if (!refusal.ok()) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.snapshots_refused;
    }
    if (metrics_.enabled()) metrics_.snapshots_refused->Increment();
    if (options_.journal != nullptr) {
      options_.journal->Record(obs::EventKind::kSnapshotRefuse,
                               snap.ok() ? snap.value().node : 0);
    }
    QueueMessage(conn, MessageType::kError, EncodeError(refusal));
    CloseAfterFlush(loop, conn);
    return false;
  }
  const uint64_t node = snap.value().node;
  const uint64_t seq = snap.value().seq;
  bool fresh;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    PendingSnapshot& entry = relay_snapshots_[node];
    // Strictly-higher seq wins. A retry of the current seq (or an older
    // one) is acknowledged — the snapshot is cumulative, so the ack is
    // safe — but counts as stale, not accepted: it replaced nothing.
    fresh = entry.bytes.empty() || seq > entry.seq;
    if (fresh) {
      entry.seq = seq;
      entry.epoch = snap.value().epoch;
      entry.bytes = std::move(snap.value().snapshot_bytes);
      ++stats_.snapshots_accepted;
    } else {
      ++stats_.snapshots_stale;
    }
  }
  if (metrics_.enabled()) {
    (fresh ? metrics_.snapshots_accepted : metrics_.snapshots_stale)
        ->Increment();
  }
  if (fresh && options_.journal != nullptr) {
    options_.journal->Record(obs::EventKind::kSnapshotAccept, node, seq);
  }
  SnapshotOkMessage ok;
  ok.node = node;
  ok.seq = seq;
  QueueMessage(conn, MessageType::kSnapshotOk, EncodeSnapshotOk(ok));
  return true;
}

void ReportServer::HandleConnFailure(Loop& loop,
                                     const std::shared_ptr<Conn>& conn,
                                     bool clean_eof, bool reaped) {
  // The slow-loris defense actually engaging — a signal worth watching on
  // a deployed edge.
  if (reaped && metrics_.enabled()) metrics_.slow_loris_reaped->Increment();
  const size_t had_channels = AbandonConnChannels(conn);
  bool count = false;
  if (conn->have_header) {
    // Mid-payload loss: the message boundary is gone for good.
    count = true;
  } else if (!clean_eof) {
    // A drain-stop wakes idle connections by shutting their sockets down;
    // that read failure is bookkeeping, not a protocol error. A failure
    // with shards open is the peer's loss (abandonment), not bad framing.
    bool stopping;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping = stop_accepting_;
    }
    count = had_channels == 0 && !stopping;
  }
  if (count) CountProtocolError();
  DestroyConn(loop, conn);
}

void ReportServer::PoisonConn(Loop& loop, const std::shared_ptr<Conn>& conn,
                              const Status& verdict, bool count_always) {
  FlushPendingAcks(conn);
  QueueMessage(conn, MessageType::kError, EncodeError(verdict));
  const size_t had_channels = AbandonConnChannels(conn);
  if (count_always || had_channels == 0) CountProtocolError();
  CloseAfterFlush(loop, conn);
}

size_t ReportServer::AbandonConnChannels(const std::shared_ptr<Conn>& conn) {
  std::vector<ChannelState> doomed;
  size_t total;
  {
    std::lock_guard<std::mutex> conn_lock(conn->mutex);
    total = conn->channels.size();
    for (const auto& [channel, state] : conn->channels) {
      doomed.push_back(state);
    }
    conn->channels.clear();
  }
  // An aborted upload contributes nothing, even if it stopped on a frame
  // boundary: drop the shard and release its ordinal.
  for (const ChannelState& state : doomed) {
    if (options_.wal != nullptr) options_.wal->OnShardAbandon(state.shard);
    (void)session_->AbandonShard(state.shard);
    FinishOrdinal(state.ordinal, /*closed=*/false);
    CountAbandoned();
  }
  return total;
}

void ReportServer::DestroyConn(Loop& loop,
                               const std::shared_ptr<Conn>& conn) {
  {
    std::lock_guard<std::mutex> conn_lock(conn->mutex);
    if (conn->dead) return;
    conn->dead = true;
  }
  const int fd = conn->socket.fd();
  (void)loop.poller.Remove(fd);
  loop.conns.erase(fd);
  {
    // Unregister before the fd closes — Stop can never shut down a
    // recycled descriptor.
    std::lock_guard<std::mutex> lock(mutex_);
    conns_.erase(fd);
  }
  conn->socket.Close();
}

void ReportServer::FlushConn(Loop& loop, const std::shared_ptr<Conn>& conn) {
  bool destroy = false;
  {
    std::lock_guard<std::mutex> conn_lock(conn->mutex);
    if (conn->dead) return;
    while (conn->outbuf_sent < conn->outbuf.size()) {
      Result<size_t> sent =
          conn->socket.SendSome(conn->outbuf.data() + conn->outbuf_sent,
                                conn->outbuf.size() - conn->outbuf_sent);
      if (!sent.ok()) {  // peer is gone; nothing further to say
        destroy = true;
        break;
      }
      if (sent.value() == 0) break;  // kernel buffer full
      conn->outbuf_sent += sent.value();
    }
    if (!destroy) {
      if (conn->outbuf_sent == conn->outbuf.size()) {
        conn->outbuf.clear();
        conn->outbuf_sent = 0;
      } else if (conn->outbuf_sent > kOutbufCompactBytes) {
        conn->outbuf.erase(0, conn->outbuf_sent);
        conn->outbuf_sent = 0;
      }
      const bool pending = conn->outbuf_sent < conn->outbuf.size();
      if (pending != conn->want_write) {
        conn->want_write = pending;
        (void)loop.poller.Update(conn->socket.fd(), !conn->reads_closed,
                                 pending);
      }
      if (!pending && conn->close_after_flush) destroy = true;
    }
  }
  if (destroy) {
    // Defensive: a send-error teardown may still hold streaming channels
    // (e.g. a HELLO_OK that could not be delivered).
    AbandonConnChannels(conn);
    DestroyConn(loop, conn);
  }
}

void ReportServer::CloseAfterFlush(Loop& loop,
                                   const std::shared_ptr<Conn>& conn) {
  conn->reads_closed = true;
  {
    std::lock_guard<std::mutex> conn_lock(conn->mutex);
    if (conn->dead) return;
    conn->close_after_flush = true;
    // Drop read interest: with level triggering, unread client bytes would
    // otherwise spin the loop until the flush finishes.
    (void)loop.poller.Update(conn->socket.fd(), false, conn->want_write);
  }
  // Bound the goodbye even when the idle timer is off (see kCloseFlushGraceMs).
  ArmDeadline(conn);
  FlushConn(loop, conn);
}

void ReportServer::QueueMessage(const std::shared_ptr<Conn>& conn,
                                MessageType type,
                                const std::string& payload) {
  std::lock_guard<std::mutex> conn_lock(conn->mutex);
  if (conn->dead) return;
  // An oversized payload appends nothing (AppendMessage checks first).
  (void)AppendMessage(type, payload, &conn->outbuf);
}

void ReportServer::FlushPendingAcks(const std::shared_ptr<Conn>& conn) {
  if (!conn->wants_acks || conn->pending_acks.empty()) return;
  DataAckMessage ack;
  ack.entries.reserve(conn->pending_acks.size());
  for (const auto& [channel, bytes] : conn->pending_acks) {
    ack.entries.push_back({channel, bytes});
  }
  conn->pending_acks.clear();
  conn->unacked_bytes = 0;
  QueueMessage(conn, MessageType::kDataAck, EncodeDataAck(ack));
}

// --- shared ordinal bookkeeping --------------------------------------------

Status ReportServer::RegisterOrdinal(uint64_t ordinal) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (options_.expected_shards > 0) {
    if (ordinal >= options_.expected_shards) {
      return Status::OutOfRange(
          "shard ordinal exceeds the campaign's expected shard count");
    }
    if (ordinal < done_ordinals_.size() && done_ordinals_[ordinal]) {
      return Status::AlreadyExists(
          "shard ordinal already completed this epoch");
    }
  }
  if (!active_ordinals_.insert(ordinal).second) {
    return Status::AlreadyExists("shard ordinal is already streaming");
  }
  return Status::OK();
}

void ReportServer::FinishOrdinal(uint64_t ordinal, bool closed) {
  std::lock_guard<std::mutex> lock(mutex_);
  active_ordinals_.erase(ordinal);
  if (closed) MarkOrdinalDone(ordinal);
}

void ReportServer::MarkOrdinalDone(uint64_t ordinal) {
  // Expected-shards mode only (no flags when expected_shards is 0). Grown
  // on demand: a campaign's flags cost one bit per ordinal up to the
  // highest one completed, never more than expected_shards bits.
  if (ordinal >= options_.expected_shards) return;
  if (ordinal >= done_ordinals_.size()) done_ordinals_.resize(ordinal + 1);
  done_ordinals_[ordinal] = true;
}

void ReportServer::CountProtocolError() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.protocol_errors;
  }
  if (metrics_.enabled()) metrics_.protocol_errors->Increment();
}

void ReportServer::CountAbandoned() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.shards_abandoned;
  }
  if (metrics_.enabled()) metrics_.shards_abandoned->Increment();
}

}  // namespace ldp::net

// Dependency-free POSIX socket primitives for the report-stream transport:
// an Endpoint spec ("tcp:HOST:PORT" or "unix:PATH"), a move-only RAII Socket
// with whole-buffer send/recv helpers, and a Listener whose accept loop is
// non-blocking and interruptible (poll on the listener plus a wake pipe).
//
// TCP and Unix-domain stream sockets only — the transport needs ordered,
// reliable byte streams, and those two cover both the deployed collector
// (remote reporters over TCP) and the loopback/e2e story (UDS). Everything
// here returns Status instead of throwing, like the rest of the library;
// nothing in this header knows about report streams or sessions.

#ifndef LDP_NET_SOCKET_H_
#define LDP_NET_SOCKET_H_

#include <cstdint>
#include <string>

#include "util/result.h"
#include "util/status.h"

namespace ldp::net {

/// Where a collector listens or a reporter connects.
struct Endpoint {
  enum class Kind { kTcp, kUnix };

  Kind kind = Kind::kTcp;
  /// TCP: numeric address or hostname, and port (0 = ephemeral, resolved
  /// after bind).
  std::string host;
  uint16_t port = 0;
  /// Unix-domain: filesystem path of the socket.
  std::string path;

  /// Parses "tcp:HOST:PORT" or "unix:PATH". IPv6 hosts must be bracketed —
  /// "tcp:[::1]:7611" — and an unbracketed host containing ':' is refused
  /// as ambiguous rather than guessed at.
  static Result<Endpoint> Parse(const std::string& spec);

  /// "tcp:HOST:PORT" (host bracketed when it contains ':') / "unix:PATH";
  /// round-trips through Parse.
  std::string ToString() const;
};

/// A connected stream socket (move-only RAII over the fd).
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Closes the descriptor now (idempotent).
  void Close();

  /// Bounds every subsequent recv/send (0 restores "wait forever"). A recv
  /// that idles past the bound fails with kDeadlineExceeded — the same code
  /// RecvAll's whole-message deadline uses, so callers distinguish a reap
  /// from an I/O fault by status code, never by message text.
  Status SetIdleTimeout(int milliseconds);

  /// Sends the whole buffer, looping over short writes. SIGPIPE-safe.
  Status SendAll(const void* data, size_t size);
  Status SendAll(const std::string& bytes) {
    return SendAll(bytes.data(), bytes.size());
  }

  /// Receives exactly `size` bytes. Returns true on success, false on a
  /// clean peer close *before the first byte* (end of stream on a message
  /// boundary); EOF mid-buffer and every other failure is an error.
  ///
  /// `deadline_ms > 0` bounds the WHOLE read, not each recv: a peer
  /// dripping one byte per interval resets a per-recv SO_RCVTIMEO forever,
  /// but cannot stretch this deadline — the classic slow-loris. 0 leaves
  /// only the per-recv idle timeout in force.
  Result<bool> RecvAll(void* data, size_t size, int deadline_ms = 0);

  /// Marks the descriptor O_NONBLOCK for use under a readiness loop.
  Status SetNonBlocking();

  /// One non-blocking recv: returns the bytes read, or 0 when the socket
  /// would block. A clean peer close sets *eof (and returns 0). Only real
  /// I/O faults are errors.
  Result<size_t> RecvSome(void* data, size_t size, bool* eof);

  /// RecvSome that never blocks, even on a blocking socket (MSG_DONTWAIT):
  /// returns what has already arrived, or 0 when nothing has.
  Result<size_t> RecvAvailable(void* data, size_t size, bool* eof);

  /// One non-blocking send: returns the bytes written, or 0 when the socket
  /// would block. SIGPIPE-safe like SendAll.
  Result<size_t> SendSome(const void* data, size_t size);

 private:
  /// One recv with `flags`; would-block reads 0 (see RecvSome).
  Result<size_t> Recv(void* data, size_t size, int flags, bool* eof);

  int fd_ = -1;
};

/// Connects to `endpoint` (TCP via getaddrinfo, so hostnames work).
Result<Socket> ConnectSocket(const Endpoint& endpoint);

/// A bound, listening, non-blocking server socket plus a self-pipe that
/// interrupts Accept from another thread. Accept is safe to call from
/// several threads at once (each accepted connection goes to exactly one
/// caller).
class Listener {
 public:
  Listener() = default;
  ~Listener();
  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds and listens on `endpoint`. A TCP port of 0 picks an ephemeral
  /// port (read it back from endpoint()); a Unix path is unlinked first
  /// (the collector owns its socket file) and unlinked again on close.
  static Result<Listener> Bind(const Endpoint& endpoint, int backlog = 128);

  /// The bound endpoint, with the resolved TCP port filled in.
  const Endpoint& endpoint() const { return endpoint_; }

  /// Blocks in poll until a connection is ready, then accepts it. Returns
  /// an invalid Socket (valid() == false) when Wake interrupted the wait or
  /// the listener was closed — the caller decides whether to loop.
  Result<Socket> Accept();

  /// Non-blocking accept for readiness loops that poll fd() themselves:
  /// returns an invalid Socket when nothing is pending or a momentary
  /// accept-path failure (fd exhaustion, a dying handshake, a bad fresh fd)
  /// cost one connection. Errors mean the listener itself is broken.
  Result<Socket> TryAccept();

  /// The listening descriptor, for registration in an external poll set.
  int fd() const { return fd_; }

  /// Wakes every thread blocked in Accept (sticky until the listener dies).
  void Wake();

  /// Closes the listening socket (stops new connections; Accept returns).
  void Close();

 private:
  Endpoint endpoint_;
  int fd_ = -1;
  int wake_read_ = -1;
  int wake_write_ = -1;
};

}  // namespace ldp::net

#endif  // LDP_NET_SOCKET_H_

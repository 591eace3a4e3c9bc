#include "net/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <utility>

namespace ldp::net {

namespace {

Status ErrnoStatus(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

bool IsTimeout(int err) { return err == EAGAIN || err == EWOULDBLOCK; }

Status SetCloseOnExec(int fd) {
  const int flags = fcntl(fd, F_GETFD);
  if (flags < 0 || fcntl(fd, F_SETFD, flags | FD_CLOEXEC) < 0) {
    return ErrnoStatus("fcntl(FD_CLOEXEC)");
  }
  return Status::OK();
}

// Where MSG_NOSIGNAL exists (Linux) SendAll passes it per call; elsewhere
// (e.g. macOS) suppress SIGPIPE at the socket so a dead peer surfaces as
// EPIPE instead of killing the process — the "SIGPIPE-safe" contract.
void DisableSigpipe(int fd) {
#if !defined(MSG_NOSIGNAL) && defined(SO_NOSIGPIPE)
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_NOSIGPIPE, &one, sizeof(one));
#else
  (void)fd;
#endif
}

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return ErrnoStatus("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

Result<sockaddr_un> UnixAddress(const std::string& path) {
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(address.sun_path)) {
    return Status::InvalidArgument("unix socket path empty or too long: '" +
                                   path + "'");
  }
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
  return address;
}

}  // namespace

Result<Endpoint> Endpoint::Parse(const std::string& spec) {
  Endpoint endpoint;
  if (spec.rfind("unix:", 0) == 0) {
    endpoint.kind = Kind::kUnix;
    endpoint.path = spec.substr(5);
    if (endpoint.path.empty()) {
      return Status::InvalidArgument("unix endpoint needs a path: '" + spec +
                                     "'");
    }
    return endpoint;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    endpoint.kind = Kind::kTcp;
    const std::string rest = spec.substr(4);
    std::string port_text;
    if (!rest.empty() && rest[0] == '[') {
      // Bracketed IPv6 literal: tcp:[::1]:PORT.
      const size_t bracket = rest.find(']');
      if (bracket == std::string::npos || bracket == 1 ||
          bracket + 1 >= rest.size() || rest[bracket + 1] != ':') {
        return Status::InvalidArgument(
            "bracketed tcp endpoint must be tcp:[HOST]:PORT: '" + spec + "'");
      }
      endpoint.host = rest.substr(1, bracket - 1);
      port_text = rest.substr(bracket + 2);
    } else {
      const size_t colon = rest.rfind(':');
      if (colon == std::string::npos || colon == 0) {
        return Status::InvalidArgument("tcp endpoint needs HOST:PORT: '" +
                                       spec + "'");
      }
      endpoint.host = rest.substr(0, colon);
      if (endpoint.host.find(':') != std::string::npos) {
        // "tcp:::1:80" could split as host "::1" port 80 or host ":" port
        // "1:80" — refuse the ambiguity instead of guessing.
        return Status::InvalidArgument(
            "IPv6 hosts must be bracketed, tcp:[" + endpoint.host +
            "]:PORT: '" + spec + "'");
      }
      port_text = rest.substr(colon + 1);
    }
    // Strict digit-only parse: strtoul would accept leading whitespace and
    // a '+' sign, so "tcp:host: 80" or "tcp:host:+80" would sneak through.
    if (port_text.empty() || port_text.size() > 5) {
      return Status::InvalidArgument("bad tcp port in '" + spec + "'");
    }
    unsigned long port = 0;
    for (const char c : port_text) {
      if (c < '0' || c > '9') {
        return Status::InvalidArgument("bad tcp port in '" + spec + "'");
      }
      port = port * 10 + static_cast<unsigned long>(c - '0');
    }
    if (port > 65535) {
      return Status::InvalidArgument("bad tcp port in '" + spec + "'");
    }
    endpoint.port = static_cast<uint16_t>(port);
    return endpoint;
  }
  return Status::InvalidArgument(
      "endpoint must be tcp:HOST:PORT or unix:PATH, got '" + spec + "'");
}

std::string Endpoint::ToString() const {
  if (kind == Kind::kUnix) return "unix:" + path;
  if (host.find(':') != std::string::npos) {
    return "tcp:[" + host + "]:" + std::to_string(port);
  }
  return "tcp:" + host + ":" + std::to_string(port);
}

Socket::~Socket() { Close(); }

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status Socket::SetIdleTimeout(int milliseconds) {
  if (fd_ < 0) return Status::FailedPrecondition("socket is closed");
  timeval tv{};
  tv.tv_sec = milliseconds / 1000;
  tv.tv_usec = (milliseconds % 1000) * 1000;
  if (setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0 ||
      setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) != 0) {
    return ErrnoStatus("setsockopt(SO_RCVTIMEO/SO_SNDTIMEO)");
  }
  return Status::OK();
}

Status Socket::SendAll(const void* data, size_t size) {
  if (fd_ < 0) return Status::FailedPrecondition("socket is closed");
  const char* cursor = static_cast<const char*>(data);
  size_t left = size;
  while (left > 0) {
#ifdef MSG_NOSIGNAL
    const ssize_t sent = ::send(fd_, cursor, left, MSG_NOSIGNAL);
#else
    const ssize_t sent = ::send(fd_, cursor, left, 0);
#endif
    if (sent < 0) {
      if (errno == EINTR) continue;
      if (IsTimeout(errno)) return Status::IoError("send timed out");
      return ErrnoStatus("send");
    }
    cursor += sent;
    left -= static_cast<size_t>(sent);
  }
  return Status::OK();
}

Result<bool> Socket::RecvAll(void* data, size_t size, int deadline_ms) {
  if (fd_ < 0) return Status::FailedPrecondition("socket is closed");
  const auto started = std::chrono::steady_clock::now();
  char* cursor = static_cast<char*>(data);
  size_t got = 0;
  while (got < size) {
    if (deadline_ms > 0) {
      // Wait only for what remains of the whole-message budget, so a peer
      // trickling bytes cannot reset the clock recv by recv.
      const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - started);
      const int remaining = deadline_ms - static_cast<int>(elapsed.count());
      if (remaining <= 0) {
        return Status::DeadlineExceeded("recv deadline exceeded mid-message");
      }
      pollfd ready{};
      ready.fd = fd_;
      ready.events = POLLIN;
      const int polled = ::poll(&ready, 1, remaining);
      if (polled < 0) {
        if (errno == EINTR) continue;
        return ErrnoStatus("poll");
      }
      if (polled == 0) {
        return Status::DeadlineExceeded("recv deadline exceeded mid-message");
      }
    }
    const ssize_t received = ::recv(fd_, cursor + got, size - got, 0);
    if (received < 0) {
      if (errno == EINTR) continue;
      // SO_RCVTIMEO expiring is the same condition as the poll budget above:
      // the peer idled past the bound. One code, so callers never have to
      // substring-match status messages to tell a reap from an I/O fault.
      if (IsTimeout(errno)) return Status::DeadlineExceeded("recv timed out");
      return ErrnoStatus("recv");
    }
    if (received == 0) {
      if (got == 0) return false;  // clean close on a message boundary
      return Status::IoError("connection closed mid-message");
    }
    got += static_cast<size_t>(received);
  }
  return true;
}

Status Socket::SetNonBlocking() {
  if (fd_ < 0) return Status::FailedPrecondition("socket is closed");
  return net::SetNonBlocking(fd_);
}

Result<size_t> Socket::RecvSome(void* data, size_t size, bool* eof) {
  return Recv(data, size, 0, eof);
}

Result<size_t> Socket::RecvAvailable(void* data, size_t size, bool* eof) {
  return Recv(data, size, MSG_DONTWAIT, eof);
}

Result<size_t> Socket::Recv(void* data, size_t size, int flags, bool* eof) {
  if (fd_ < 0) return Status::FailedPrecondition("socket is closed");
  *eof = false;
  while (true) {
    const ssize_t received = ::recv(fd_, data, size, flags);
    if (received < 0) {
      if (errno == EINTR) continue;
      if (IsTimeout(errno)) return size_t{0};  // would block
      return ErrnoStatus("recv");
    }
    if (received == 0) {
      *eof = true;
      return size_t{0};
    }
    return static_cast<size_t>(received);
  }
}

Result<size_t> Socket::SendSome(const void* data, size_t size) {
  if (fd_ < 0) return Status::FailedPrecondition("socket is closed");
  while (true) {
#ifdef MSG_NOSIGNAL
    const ssize_t sent = ::send(fd_, data, size, MSG_NOSIGNAL);
#else
    const ssize_t sent = ::send(fd_, data, size, 0);
#endif
    if (sent < 0) {
      if (errno == EINTR) continue;
      if (IsTimeout(errno)) return size_t{0};  // would block
      return ErrnoStatus("send");
    }
    return static_cast<size_t>(sent);
  }
}

Result<Socket> ConnectSocket(const Endpoint& endpoint) {
  // Port 0 means "pick one for me" at bind time; as a connect target it can
  // only be a parse of an endpoint that was never resolved. Refuse it here
  // rather than let connect(2) produce a baffling OS-specific error.
  if (endpoint.kind == Endpoint::Kind::kTcp && endpoint.port == 0) {
    return Status::InvalidArgument("cannot connect to tcp port 0 (" +
                                   endpoint.ToString() + ")");
  }
  if (endpoint.kind == Endpoint::Kind::kUnix) {
    sockaddr_un address{};
    LDP_ASSIGN_OR_RETURN(address, UnixAddress(endpoint.path));
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return ErrnoStatus("socket(AF_UNIX)");
    Socket socket(fd);
    LDP_RETURN_IF_ERROR(SetCloseOnExec(fd));
    DisableSigpipe(fd);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                  sizeof(address)) != 0) {
      return ErrnoStatus("connect to " + endpoint.ToString());
    }
    return socket;
  }

  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* found = nullptr;
  const std::string port_text = std::to_string(endpoint.port);
  const int resolved =
      ::getaddrinfo(endpoint.host.c_str(), port_text.c_str(), &hints, &found);
  if (resolved != 0) {
    return Status::IoError("cannot resolve '" + endpoint.host +
                           "': " + gai_strerror(resolved));
  }
  Status last = Status::IoError("no addresses for " + endpoint.ToString());
  for (const addrinfo* info = found; info != nullptr; info = info->ai_next) {
    const int fd =
        ::socket(info->ai_family, info->ai_socktype, info->ai_protocol);
    if (fd < 0) {
      last = ErrnoStatus("socket");
      continue;
    }
    Socket socket(fd);
    if (::connect(fd, info->ai_addr, info->ai_addrlen) != 0) {
      last = ErrnoStatus("connect to " + endpoint.ToString());
      continue;
    }
    const Status cloexec = SetCloseOnExec(fd);
    if (!cloexec.ok()) {
      last = cloexec;
      continue;
    }
    DisableSigpipe(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::freeaddrinfo(found);
    return socket;
  }
  ::freeaddrinfo(found);
  return last;
}

Listener::~Listener() { Close(); }

Listener::Listener(Listener&& other) noexcept
    : endpoint_(std::move(other.endpoint_)),
      fd_(other.fd_),
      wake_read_(other.wake_read_),
      wake_write_(other.wake_write_) {
  other.fd_ = other.wake_read_ = other.wake_write_ = -1;
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    Close();
    endpoint_ = std::move(other.endpoint_);
    fd_ = other.fd_;
    wake_read_ = other.wake_read_;
    wake_write_ = other.wake_write_;
    other.fd_ = other.wake_read_ = other.wake_write_ = -1;
  }
  return *this;
}

void Listener::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
    if (endpoint_.kind == Endpoint::Kind::kUnix) {
      ::unlink(endpoint_.path.c_str());
    }
  }
  if (wake_read_ >= 0) {
    ::close(wake_read_);
    wake_read_ = -1;
  }
  if (wake_write_ >= 0) {
    ::close(wake_write_);
    wake_write_ = -1;
  }
}

Result<Listener> Listener::Bind(const Endpoint& endpoint, int backlog) {
  Listener listener;
  listener.endpoint_ = endpoint;

  if (endpoint.kind == Endpoint::Kind::kUnix) {
    sockaddr_un address{};
    LDP_ASSIGN_OR_RETURN(address, UnixAddress(endpoint.path));
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return ErrnoStatus("socket(AF_UNIX)");
    listener.fd_ = fd;
    // The collector owns its socket file; a leftover from a crashed run
    // would otherwise make every restart fail with EADDRINUSE.
    ::unlink(endpoint.path.c_str());
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&address),
               sizeof(address)) != 0) {
      return ErrnoStatus("bind " + endpoint.ToString());
    }
  } else {
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = AI_PASSIVE;
    addrinfo* found = nullptr;
    const std::string port_text = std::to_string(endpoint.port);
    const int resolved = ::getaddrinfo(
        endpoint.host.empty() ? nullptr : endpoint.host.c_str(),
        port_text.c_str(), &hints, &found);
    if (resolved != 0) {
      return Status::IoError("cannot resolve '" + endpoint.host +
                             "': " + gai_strerror(resolved));
    }
    Status last = Status::IoError("no addresses for " + endpoint.ToString());
    for (const addrinfo* info = found; info != nullptr; info = info->ai_next) {
      const int fd =
          ::socket(info->ai_family, info->ai_socktype, info->ai_protocol);
      if (fd < 0) {
        last = ErrnoStatus("socket");
        continue;
      }
      const int one = 1;
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      if (::bind(fd, info->ai_addr, info->ai_addrlen) != 0) {
        last = ErrnoStatus("bind " + endpoint.ToString());
        ::close(fd);
        continue;
      }
      listener.fd_ = fd;
      break;
    }
    ::freeaddrinfo(found);
    if (listener.fd_ < 0) return last;
    // Read back the resolved ephemeral port so callers can advertise it.
    sockaddr_storage bound{};
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(listener.fd_, reinterpret_cast<sockaddr*>(&bound),
                      &bound_len) == 0) {
      if (bound.ss_family == AF_INET) {
        listener.endpoint_.port =
            ntohs(reinterpret_cast<const sockaddr_in*>(&bound)->sin_port);
      } else if (bound.ss_family == AF_INET6) {
        listener.endpoint_.port =
            ntohs(reinterpret_cast<const sockaddr_in6*>(&bound)->sin6_port);
      }
    }
  }

  LDP_RETURN_IF_ERROR(SetCloseOnExec(listener.fd_));
  LDP_RETURN_IF_ERROR(SetNonBlocking(listener.fd_));
  if (::listen(listener.fd_, backlog) != 0) {
    return ErrnoStatus("listen on " + endpoint.ToString());
  }
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) return ErrnoStatus("pipe");
  listener.wake_read_ = pipe_fds[0];
  listener.wake_write_ = pipe_fds[1];
  LDP_RETURN_IF_ERROR(SetCloseOnExec(listener.wake_read_));
  LDP_RETURN_IF_ERROR(SetCloseOnExec(listener.wake_write_));
  LDP_RETURN_IF_ERROR(SetNonBlocking(listener.wake_read_));
  LDP_RETURN_IF_ERROR(SetNonBlocking(listener.wake_write_));
  return listener;
}

Result<Socket> Listener::Accept() {
  while (true) {
    // Snapshot the fds: Close/Wake may race this loop, and poll on -1 fds
    // simply reports them invalid rather than crashing.
    pollfd fds[2];
    fds[0].fd = fd_;
    fds[0].events = POLLIN;
    fds[1].fd = wake_read_;
    fds[1].events = POLLIN;
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("poll");
    }
    // A wake byte or a dead listener ends the wait; the wake is sticky (the
    // byte is never drained) so every current and future Accept returns.
    if (fds[1].revents != 0 || (fds[0].revents & (POLLERR | POLLNVAL)) != 0 ||
        fd_ < 0) {
      return Socket();
    }
    if ((fds[0].revents & (POLLIN | POLLHUP)) == 0) continue;
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd < 0) {
      // Another acceptor won the race, or the connection vanished.
      if (errno == EINTR || IsTimeout(errno) || errno == ECONNABORTED) {
        continue;
      }
      // accept(2) lists a family of momentary failures (fd exhaustion,
      // memory/network pressure, the peer's half of the handshake dying);
      // killing the accept loop over one of those would leave the server
      // alive but permanently deaf. Back off briefly and keep serving.
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM || errno == EPROTO || errno == ENETDOWN ||
          errno == ENETUNREACH || errno == EHOSTDOWN ||
          errno == EHOSTUNREACH || errno == ETIMEDOUT) {
        ::poll(nullptr, 0, 50);
        continue;
      }
      return ErrnoStatus("accept");
    }
    Socket socket(fd);
    // A failure to set FD_CLOEXEC poisons only this one descriptor — drop
    // the connection and keep accepting, instead of surfacing an error that
    // callers would read as "the listener died".
    if (!SetCloseOnExec(fd).ok()) continue;
    DisableSigpipe(fd);
    if (endpoint_.kind == Endpoint::Kind::kTcp) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    return socket;
  }
}

Result<Socket> Listener::TryAccept() {
  while (true) {
    if (fd_ < 0) return Status::FailedPrecondition("listener is closed");
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // Nothing pending right now — the readiness loop will call back.
      if (IsTimeout(errno) || errno == ECONNABORTED) return Socket();
      // Momentary pressure (fd exhaustion, memory, the peer's handshake
      // dying): report "nothing accepted" and let the loop retry later
      // instead of treating the listener as dead.
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM || errno == EPROTO || errno == ENETDOWN ||
          errno == ENETUNREACH || errno == EHOSTDOWN ||
          errno == EHOSTUNREACH || errno == ETIMEDOUT) {
        return Socket();
      }
      return ErrnoStatus("accept");
    }
    Socket socket(fd);
    if (!SetCloseOnExec(fd).ok()) continue;  // drop this one fd, keep going
    DisableSigpipe(fd);
    if (endpoint_.kind == Endpoint::Kind::kTcp) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    return socket;
  }
}

void Listener::Wake() {
  if (wake_write_ >= 0) {
    const char byte = 'w';
    // Best effort: a full pipe already guarantees the poll wakes.
    (void)::write(wake_write_, &byte, 1);
  }
}

}  // namespace ldp::net

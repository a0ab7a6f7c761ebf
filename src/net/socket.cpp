#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "net/syscount.hpp"
#include "util/error.hpp"

namespace appx::net {

namespace {

[[noreturn]] void fail_errno(const std::string& what) {
  throw Error(what + ": " + std::strerror(errno));
}

timeval to_timeval(Duration timeout) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout / 1'000'000);
  tv.tv_usec = static_cast<suseconds_t>(timeout % 1'000'000);
  // SO_RCVTIMEO/SO_SNDTIMEO treat {0,0} as "no timeout"; a positive
  // sub-microsecond remainder must still wait at least a tick.
  if (timeout > 0 && tv.tv_sec == 0 && tv.tv_usec == 0) tv.tv_usec = 1;
  return tv;
}

// Non-blocking connect bounded by `timeout`.
bool connect_with_timeout(int fd, const sockaddr* addr, socklen_t addrlen, Duration timeout) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) return false;
  bool ok = false;
  if (::connect(fd, addr, addrlen) == 0) {
    ok = true;
  } else if (errno == EINPROGRESS) {
    pollfd pfd{fd, POLLOUT, 0};
    const int timeout_ms = static_cast<int>(timeout / 1000);
    const int rc = ::poll(&pfd, 1, timeout_ms > 0 ? timeout_ms : 1);
    if (rc == 0) {
      errno = ETIMEDOUT;
    } else if (rc > 0) {
      int err = 0;
      socklen_t len = sizeof err;
      if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) == 0 && err == 0) {
        ok = true;
      } else {
        errno = err != 0 ? err : errno;
      }
    }
  }
  const int saved_errno = errno;
  ::fcntl(fd, F_SETFL, flags);  // restore blocking mode
  errno = saved_errno;
  return ok;
}

}  // namespace

Fd::~Fd() { reset(); }

Fd::Fd(Fd&& other) noexcept : fd_(other.fd_.exchange(-1, std::memory_order_relaxed)) {}

Fd& Fd::operator=(Fd&& other) noexcept {
  if (this != &other) {
    reset();
    fd_.store(other.fd_.exchange(-1, std::memory_order_relaxed), std::memory_order_relaxed);
  }
  return *this;
}

void Fd::reset() {
  const int fd = fd_.exchange(-1, std::memory_order_relaxed);
  if (fd >= 0) ::close(fd);
}

TcpStream TcpStream::connect(const std::string& host, std::uint16_t port, Duration timeout) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* results = nullptr;
  const std::string service = std::to_string(port);
  const int rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints, &results);
  if (rc != 0) {
    throw Error("connect: getaddrinfo(" + host + "): " + gai_strerror(rc));
  }
  Fd fd;
  std::string last_error = "no addresses";
  bool timed_out = false;
  for (addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
    Fd candidate(::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol));
    if (!candidate.valid()) {
      last_error = std::strerror(errno);
      continue;
    }
    const bool connected =
        timeout > 0 ? connect_with_timeout(candidate.get(), ai->ai_addr, ai->ai_addrlen, timeout)
                    : ::connect(candidate.get(), ai->ai_addr, ai->ai_addrlen) == 0;
    if (connected) {
      fd = std::move(candidate);
      break;
    }
    timed_out = errno == ETIMEDOUT;
    last_error = std::strerror(errno);
  }
  ::freeaddrinfo(results);
  if (!fd.valid()) {
    const std::string what = "connect to " + host + ":" + service + " failed: " + last_error;
    if (timed_out) throw TimeoutError(what);
    throw Error(what);
  }
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return TcpStream(std::move(fd));
}

TcpStream TcpStream::begin_connect(const std::string& ip, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, ip.c_str(), &addr.sin_addr) != 1) {
    throw Error("begin_connect: bad IPv4 address '" + ip + "'");
  }
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!fd.valid()) fail_errno("begin_connect: socket");
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 &&
      errno != EINPROGRESS) {
    fail_errno("begin_connect to " + ip + ":" + std::to_string(port));
  }
  return TcpStream(std::move(fd));
}

int TcpStream::connect_result() {
  int err = 0;
  socklen_t len = sizeof err;
  if (::getsockopt(fd_.get(), SOL_SOCKET, SO_ERROR, &err, &len) != 0) return errno;
  return err;
}

void TcpStream::set_read_timeout(Duration timeout) { read_timeout_ = timeout; }

void TcpStream::set_write_timeout(Duration timeout) { write_timeout_ = timeout; }

Duration TcpStream::effective_timeout(Duration per_op) const {
  if (!deadline_) return per_op;
  const auto remaining = std::chrono::duration_cast<std::chrono::microseconds>(
                             *deadline_ - std::chrono::steady_clock::now())
                             .count();
  if (remaining <= 0) throw TimeoutError("socket deadline exceeded");
  if (per_op <= 0) return remaining;
  return remaining < per_op ? remaining : per_op;
}

void TcpStream::apply_recv_timeout(Duration timeout) {
  if (timeout == applied_recv_timeout_) return;
  const timeval tv = to_timeval(timeout);
  ::setsockopt(fd_.get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  applied_recv_timeout_ = timeout;
}

void TcpStream::apply_send_timeout(Duration timeout) {
  if (timeout == applied_send_timeout_) return;
  const timeval tv = to_timeval(timeout);
  ::setsockopt(fd_.get(), SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  applied_send_timeout_ = timeout;
}

void TcpStream::write_all(std::string_view data) { writev_all(data, {}); }

std::size_t TcpStream::read_some(char* buffer, std::size_t max) {
  while (true) {
    apply_recv_timeout(effective_timeout(read_timeout_));
    const ssize_t n = ::recv(fd_.get(), buffer, max, 0);
    if (n >= 0) return static_cast<std::size_t>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      throw TimeoutError("recv: timed out");
    }
    fail_errno("recv");
  }
}

void TcpStream::writev_all(std::string_view head, std::string_view body) {
  std::size_t written = 0;
  const std::size_t total = head.size() + body.size();
  while (written < total) {
    apply_send_timeout(effective_timeout(write_timeout_));
    iovec iov[2];
    int iovcnt = 0;
    if (written < head.size()) {
      iov[iovcnt].iov_base = const_cast<char*>(head.data() + written);
      iov[iovcnt].iov_len = head.size() - written;
      ++iovcnt;
    }
    const std::size_t body_off = written > head.size() ? written - head.size() : 0;
    if (body_off < body.size()) {
      iov[iovcnt].iov_base = const_cast<char*>(body.data() + body_off);
      iov[iovcnt].iov_len = body.size() - body_off;
      ++iovcnt;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(iovcnt);
    const ssize_t n = ::sendmsg(fd_.get(), &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw TimeoutError("sendmsg: timed out");
      }
      fail_errno("sendmsg");
    }
    if (n == 0) throw Error("sendmsg: connection closed");
    written += static_cast<std::size_t>(n);
  }
}

void TcpStream::shutdown_write() { ::shutdown(fd_.get(), SHUT_WR); }

void TcpStream::set_nonblocking() {
  const int flags = ::fcntl(fd_.get(), F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd_.get(), F_SETFL, flags | O_NONBLOCK) < 0) {
    fail_errno("fcntl(O_NONBLOCK)");
  }
}

TcpListener::TcpListener(std::uint16_t port, bool reuse_port, int backlog) {
  if (backlog <= 0) backlog = SOMAXCONN;
  fd_ = Fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd_.valid()) fail_errno("socket");
  const int one = 1;
  ::setsockopt(fd_.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (reuse_port) {
    if (::setsockopt(fd_.get(), SOL_SOCKET, SO_REUSEPORT, &one, sizeof one) != 0) {
      fail_errno("setsockopt(SO_REUSEPORT)");
    }
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd_.get(), reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    fail_errno("bind 127.0.0.1:" + std::to_string(port));
  }
  // The accept-queue depth must absorb connection storms: with the old
  // hardcoded 64, a 10k-client open-loop ramp left most SYNs silently
  // dropped (the kernel just ignores them when the queue is full) and the
  // macro bench reported them as connect timeouts.
  if (::listen(fd_.get(), backlog) != 0) fail_errno("listen");

  socklen_t len = sizeof addr;
  if (::getsockname(fd_.get(), reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    fail_errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);
}

TcpStream TcpListener::accept() {
  while (true) {
    if (closed_.load()) return TcpStream(Fd{});
    const int client = ::accept(fd_.get(), nullptr, nullptr);
    if (client >= 0) {
      if (closed_.load()) {
        ::close(client);  // the close() wake-up connection (or a late client)
        return TcpStream(Fd{});
      }
      const int one = 1;
      ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      return TcpStream(Fd(client));
    }
    if (errno == EINTR) continue;
    return TcpStream(Fd{});  // fd closed underneath us: orderly shutdown
  }
}

TcpStream TcpListener::accept_nonblocking() {
  while (true) {
    if (closed_.load() || !fd_.valid()) return TcpStream(Fd{});
    sys::count(sys::Op::kAccept);
    const int client = ::accept4(fd_.get(), nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (client >= 0) {
      const int one = 1;
      ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      return TcpStream(Fd(client));
    }
    if (errno == EINTR) continue;
    return TcpStream(Fd{});  // EAGAIN (no pending connection) or closed
  }
}

void TcpListener::set_nonblocking() {
  const int flags = ::fcntl(fd_.get(), F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd_.get(), F_SETFL, flags | O_NONBLOCK) < 0) {
    fail_errno("fcntl(listener O_NONBLOCK)");
  }
  nonblocking_ = true;
}

void TcpListener::close() {
  if (closed_.exchange(true)) return;
  if (!fd_.valid()) return;
  // A blocked accept() on Linux is NOT unblocked by shutdown()/close() of the
  // listening socket; wake it with a throwaway loopback connection. Event-loop
  // (non-blocking) listeners never block in accept, so they skip the dance.
  // The wake connect must be bounded: with a FULL accept queue the kernel
  // drops its SYN and an unbounded connect would sit in SYN retry for ~2
  // minutes — but a full queue also means accept() has connections to return
  // and is not blocked, so nobody needs the wake and timing out is correct.
  if (!nonblocking_) {
    try {
      TcpStream::connect("127.0.0.1", port_, seconds(1));
    } catch (const Error&) {
      // Listener already unreachable (or its queue is full); accept() will
      // see the closed fd.
    }
  }
  fd_.reset();
}

}  // namespace appx::net

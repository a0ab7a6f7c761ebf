// Minimal RAII wrappers over POSIX TCP sockets.
//
// The evaluation runs on the discrete-event simulator, but the proxy engine
// is transport-agnostic; this module is the real-wire front end: blocking
// TCP with full-write/handled-partial-read semantics, errors surfaced as
// appx::Error, file descriptors owned by RAII handles.
//
// Liveness: every blocking operation can be bounded. connect() takes an
// optional timeout (non-blocking connect + poll); streams support per-op
// read/write timeouts (SO_RCVTIMEO/SO_SNDTIMEO) and an absolute deadline
// that caps all subsequent I/O on the stream. An exceeded bound surfaces as
// appx::TimeoutError, so a dead peer can never wedge a thread forever.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "util/units.hpp"

namespace appx::net {

// Owning file-descriptor handle. The descriptor is stored atomically so the
// close-to-wake shutdown idiom (one thread reset()s a listener while the
// accept thread blocks on it) is a defined cross-thread hand-off; ownership
// transfer (move) is still single-threaded only.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd();
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  Fd(Fd&& other) noexcept;
  Fd& operator=(Fd&& other) noexcept;

  int get() const { return fd_.load(std::memory_order_relaxed); }
  bool valid() const { return get() >= 0; }
  void reset();  // close now

 private:
  std::atomic<int> fd_{-1};
};

// A connected TCP stream.
class TcpStream {
 public:
  explicit TcpStream(Fd fd) : fd_(std::move(fd)) {}

  // Connect to host:port (numeric or resolvable); throws appx::Error.
  // timeout > 0 bounds the connection attempt (TimeoutError on expiry);
  // 0 = block indefinitely.
  static TcpStream connect(const std::string& host, std::uint16_t port,
                           Duration timeout = 0);

  // Begin a non-blocking connect to a numeric IPv4 address (event-loop
  // clients: the proxy's origin exchanges, and the open-loop load generator
  // driving thousands of concurrent connects through one epoll thread).
  // Returns a non-blocking stream whose connect is in progress (or already
  // complete); either register its fd for EPOLLOUT and call
  // connect_result() when it fires, or submit a sendmsg op, which completes
  // once the connection is up (or with the connect error). Throws
  // appx::Error only on immediate local failure (bad address, out of
  // descriptors).
  static TcpStream begin_connect(const std::string& ip, std::uint16_t port);

  // Resolve a begin_connect: 0 when the connection is established, else the
  // socket error (ECONNREFUSED, ETIMEDOUT, ...) — the pending SO_ERROR.
  int connect_result();

  // Per-operation I/O bounds; 0 = none. Apply to every subsequent
  // write_all/read_some call, which throws TimeoutError when the peer stays
  // silent (or unwritable) that long.
  void set_read_timeout(Duration timeout);
  void set_write_timeout(Duration timeout);

  // Absolute deadline capping ALL subsequent I/O on this stream: each call's
  // effective timeout is the tighter of the per-op timeout and the time left
  // until the deadline; once past it, I/O throws TimeoutError immediately.
  // Implements per-request deadlines (a slow-but-not-silent peer cannot
  // stretch a request forever by trickling bytes).
  void set_deadline(std::chrono::steady_clock::time_point deadline) { deadline_ = deadline; }

  // Write the whole buffer; throws on error/EOF, TimeoutError on deadline.
  void write_all(std::string_view data);

  // Write both buffers as one iovec batch (message head + body) so a full
  // HTTP message leaves in a single writev() syscall and one TCP segment
  // where it fits, instead of the multi-write path that concatenated head
  // and body into a fresh string first. Same bounds semantics as write_all.
  void writev_all(std::string_view head, std::string_view body);

  // Read up to `max` bytes; returns 0 on orderly EOF; throws on error,
  // TimeoutError on deadline.
  std::size_t read_some(char* buffer, std::size_t max);

  // Shut down the write side (half-close).
  void shutdown_write();

  bool valid() const { return fd_.valid(); }
  int fd() const { return fd_.get(); }

  // Switch the socket to non-blocking mode (event-loop ownership). The
  // blocking helpers above must not be used afterwards.
  void set_nonblocking();

 private:
  // Remaining budget for one read/write; throws TimeoutError if the deadline
  // has already passed. 0 = unbounded.
  Duration effective_timeout(Duration per_op) const;
  void apply_recv_timeout(Duration timeout);
  void apply_send_timeout(Duration timeout);

  Fd fd_;
  Duration read_timeout_ = 0;
  Duration write_timeout_ = 0;
  // Last values actually set on the socket, to skip redundant setsockopts.
  Duration applied_recv_timeout_ = 0;
  Duration applied_send_timeout_ = 0;
  std::optional<std::chrono::steady_clock::time_point> deadline_;
};

// A listening TCP socket on 127.0.0.1.
class TcpListener {
 public:
  // Binds to 127.0.0.1:`port` (0 = ephemeral); throws appx::Error.
  // With `reuse_port`, N listeners may bind the same port (SO_REUSEPORT) and
  // the kernel shards incoming connections across them — one listener per
  // event-loop thread, no accept lock (DESIGN.md §5g).
  // `backlog` is the listen(2) accept-queue depth; 0 = SOMAXCONN. A short
  // backlog silently drops connection storms (the kernel ignores SYNs once
  // the queue fills), so servers default to the system maximum.
  explicit TcpListener(std::uint16_t port, bool reuse_port = false, int backlog = 0);

  // The actual bound port (useful with port 0).
  std::uint16_t port() const { return port_; }

  // Blocks for the next connection; returns an invalid stream if the
  // listener was closed from another thread.
  TcpStream accept();

  // Non-blocking accept for event loops (the listener fd must be registered
  // for EPOLLIN). Returns an invalid stream when no connection is pending
  // (EAGAIN) or the listener is closed; accepted streams are non-blocking.
  TcpStream accept_nonblocking();

  // Switch the listening socket itself to non-blocking mode.
  void set_nonblocking();

  // Unblocks accept() permanently (used for shutdown).
  void close();

  int fd() const { return fd_.get(); }

 private:
  Fd fd_;
  std::uint16_t port_ = 0;
  bool nonblocking_ = false;
  std::atomic<bool> closed_{false};
};

}  // namespace appx::net

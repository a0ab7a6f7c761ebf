#include "net/servers.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/uio.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <utility>

#include "core/persist.hpp"
#include "http/view.hpp"
#include "net/rlimit.hpp"
#include "net/syscount.hpp"
#include "util/arena.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace appx::net {
namespace {

// Read buffer: a per-connection member (it must outlive the in-flight recv
// op), so sized for requests rather than throughput — 4 KiB keeps 10k
// connections at ~40 MB instead of 160 MB.
constexpr std::size_t kReadChunk = 4 * 1024;
// Requests one connection serves at once: pipelined requests are dispatched
// while earlier ones are upstream and answered in request order (RFC 9112
// §9.3.2). A full ring stops reading until its oldest request is answered.
constexpr std::size_t kMaxInFlight = 16;
// Max chunks per sendmsg batch: head + body of every response in the ring,
// so one sendmsg flushes a whole ready prefix.
constexpr std::size_t kMaxIov = 2 * kMaxInFlight;
// After refusing a message (431/413, malformed) we half-close and keep
// draining the peer's in-flight bytes this long so the FIN carries the
// answers cleanly.
constexpr auto kDiscardDrain = std::chrono::milliseconds(500);
// Prefetch learning per loop iteration before the loop turns back to its
// client events (one learning event may overrun it).
constexpr auto kLearnSlice = std::chrono::milliseconds(1);

http::Response status_response(int status, std::string body) {
  http::Response resp;
  resp.status = status;
  resp.reason = std::string(http::reason_phrase(status));
  resp.body = std::move(body);
  return resp;
}

// Built once and shared: serving it is a refcount bump.
const std::shared_ptr<const http::Response>& internal_error_response() {
  static const auto resp =
      std::make_shared<const http::Response>(status_response(500, R"({"error":"internal error"})"));
  return resp;
}

// Full wire bytes of the bodyless reject statuses (431/413), rendered once;
// the reject path enqueues them as static slabs with zero per-use work.
std::string_view canned_reject_wire(int status) {
  static const std::string wire_431 = status_response(431, "").serialize_head();
  static const std::string wire_413 = status_response(413, "").serialize_head();
  return status == 431 ? std::string_view(wire_431) : std::string_view(wire_413);
}

// Shared admin surface: /appx/metrics (Prometheus text), /appx/metrics.json.
bool is_admin_path(std::string_view path) { return path.rfind("/appx/", 0) == 0; }

http::Response metrics_response(const obs::MetricsRegistry& registry, std::string_view path) {
  if (path == "/appx/metrics") {
    http::Response resp = status_response(200, registry.to_prometheus());
    resp.headers.set("Content-Type", "text/plain; version=0.0.4");
    return resp;
  }
  if (path == "/appx/metrics.json") {
    http::Response resp = status_response(200, registry.to_json().dump(2));
    resp.headers.set("Content-Type", "application/json");
    return resp;
  }
  return status_response(404, R"({"error":"unknown admin endpoint"})");
}

}  // namespace

// --- Conn ----------------------------------------------------------------------------

// One request a Conn has dispatched and not yet answered: its owning form,
// then its rendered response until the ring flushes it in request order.
// Pooled per connection (one per ring position, made on first use), so the
// request's string/vector capacity carries over to later requests.
struct ConnSlot {
  http::Request request;  // materialized during dispatch (Conn::materialize_request)
  std::string head;       // response head, rendered by Conn::complete
  http::BodySlab body;    // response body, held by reference
  bool ready = false;     // answered; waits for the slots before it
};

// One client connection on one event loop. All state, complete() included,
// is loop-thread-only.
//
// Pipelined dispatch: complete requests are dispatched as they are parsed,
// each into the next slot of a ring of kMaxInFlight, while earlier ones are
// still upstream. Slots are answered in any order and written strictly in
// request order: the ready prefix of the ring moves to the write queue as
// one sendmsg batch. Only a full ring stops reading.
//
// Zero-copy data plane (DESIGN.md §5h): a complete message is parsed into a
// RequestView over the parser's buffer (header array in the connection
// arena), valid only during the dispatch call; a request that outlives it is
// materialized into its slot. Responses leave as (head, body) chunk pairs —
// the head rendered into a pooled per-connection buffer, the body a
// refcounted slab — so serving a cached response copies no payload bytes
// between the cache and the socket iovec.
class Conn : public std::enable_shared_from_this<Conn> {
 public:
  // Called on the loop thread for each complete parsed request, which rides
  // on the connection as request_view() during the call. The sink must
  // eventually call complete() exactly once with the slot it was given, and
  // must not touch the slot afterwards.
  using Dispatch = std::function<void(const std::shared_ptr<Conn>&, ConnSlot&)>;
  using OnClosed = std::function<void(int fd)>;

  Conn(EventLoop* loop, TcpStream stream, ReaderLimits limits, Duration idle_timeout,
       Dispatch dispatch, OnClosed on_closed, obs::Histogram* first_byte_hist)
      : loop_(loop),
        stream_(std::move(stream)),
        parser_(limits),
        idle_timeout_(idle_timeout),
        dispatch_(std::move(dispatch)),
        on_closed_(std::move(on_closed)),
        first_byte_hist_(first_byte_hist),
        last_activity_(std::chrono::steady_clock::now()),
        accepted_(last_activity_) {}

  int fd() const { return stream_.fd(); }

  // Per-(connection, user) resolved engine sessions (see LiveProxyServer).
  std::map<std::string, core::Session, std::less<>> sessions;

  // Loop thread: post the first recv and arm the idle timer.
  void start() {
    submit_read();
    arm_idle_timer(last_activity_ + std::chrono::microseconds(idle_timeout_));
  }

  // The request being dispatched as zero-copy views over the parser buffer.
  // Valid only during the dispatch call: later reads may move the buffer.
  const http::RequestView& request_view() const { return view_; }

  // The request being dispatched in owning form, materialized into `slot`,
  // whose string/vector capacity is reused across requests — warm keep-alive
  // traffic materializes without allocating. Call during dispatch; the
  // result lives until complete(slot).
  http::Request& materialize_request(ConnSlot& slot) {
    http::materialize(view_, slot.request);
    return slot.request;
  }

  // Answer the request dispatched into `slot`. The body slab is held by
  // reference (no copy) — for a response shared with the engine's cache the
  // write queue holds the refcount; the head is rendered into a pooled
  // buffer. `extra_header_line` must point at storage with static lifetime
  // (callers pass literals like "X-Appx-Cache: hit"); it is emitted after
  // the stored headers.
  void complete(ConnSlot& slot, const http::Response& response,
                std::string_view extra_header_line = {}) {
    if (closed_) return;  // connection died while the origin answered; drop
    slot.head = take_head_buffer();
    response.serialize_head_into(slot.head, extra_header_line);
    slot.body = response.body;
    slot.ready = true;
    touch();
    if (in_pump_) return;  // answered inline from dispatch: pump flushes the batch
    pump();  // a slot is free: dispatch what a full ring held back, flush
    finish_io_round();
  }

  // Loop thread (server stop path).
  void close_now() { close(); }

 private:
  // --- socket I/O ----------------------------------------------------------
  //
  // Driven by completion ops on either backend: exactly one recv and at most
  // one sendmsg are in flight per connection at any time, their buffers
  // owned by the connection (DESIGN.md §5l). Each op carries the connection
  // as its owner, so the loop keeps it — and those buffers — alive until the
  // op retires; the callbacks themselves capture only `this`, which fits
  // std::function's inline storage, so an exchange allocates nothing for
  // I/O.

  void submit_read() {
    if (closed_ || read_inflight_ || !want_read()) return;
    read_inflight_ = true;
    loop_->submit_recv(
        fd(), rbuf_, sizeof rbuf_, [this](int res) { on_read_complete(res); },
        shared_from_this());
  }

  void on_read_complete(int res) {
    read_inflight_ = false;
    if (closed_) return;
    if (res > 0) {
      if (!discarding_) parser_.append(rbuf_, static_cast<std::size_t>(res));
    } else if (res == 0) {
      peer_eof_ = true;
    } else if (res == -ECANCELED || res == -EBADF) {
      return;  // cancelled by a racing close
    } else if (res != -EINTR && res != -EAGAIN) {
      close();
      return;
    }
    pump();
    if (closed_) return;
    finish_io_round();
  }

  // One sendmsg op over the head of the pending-write queue, batching chunks
  // (the heads and bodies of every flushed response). The iovec array and
  // msghdr are members: the kernel may read them after this returns.
  void submit_write() {
    if (closed_ || write_inflight_ || out_.empty()) return;
    std::size_t niov = 0;
    std::size_t offset = out_off_;
    for (const OutChunk& chunk : out_) {
      if (niov == kMaxIov) break;
      const std::string_view bytes = chunk.bytes();
      wiov_[niov].iov_base = const_cast<char*>(bytes.data() + offset);
      wiov_[niov].iov_len = bytes.size() - offset;
      ++niov;
      offset = 0;
    }
    wmsg_ = msghdr{};
    wmsg_.msg_iov = wiov_;
    wmsg_.msg_iovlen = niov;
    write_inflight_ = true;
    loop_->submit_sendmsg(
        fd(), &wmsg_, [this](int res) { on_write_complete(res); }, shared_from_this());
  }

  void on_write_complete(int res) {
    write_inflight_ = false;
    if (closed_) return;
    if (res < 0) {
      if (res == -EINTR || res == -EAGAIN) {
        submit_write();
        return;
      }
      if (res == -ECANCELED || res == -EBADF) return;
      close();
      return;
    }
    record_first_byte(res);
    consume_out(static_cast<std::size_t>(res));
    if (!out_.empty()) {
      submit_write();
      return;
    }
    finish_io_round();
  }

  // Dispatch buffered complete messages while the ring has room, then flush
  // what is ready. The in_pump_ guard breaks recursion when a dispatch
  // completes inline (hits, admin, origin serving): that complete() only
  // marks its slot, and the flush here writes the batch.
  void pump() {
    if (in_pump_ || closed_) return;
    in_pump_ = true;
    while (!closed_ && !discarding_) {
      if (in_flight_ == kMaxInFlight) {
        // A full ring of inline answers frees itself here; otherwise the
        // oldest request is upstream and its complete() pumps again.
        flush();
        if (in_flight_ == kMaxInFlight) break;
      }
      try {
        const std::optional<std::string_view> wire = parser_.next_message();
        if (!wire) break;
        arena_.reset();
        view_ = http::parse_request_view(*wire, arena_);
      } catch (const MessageTooLargeError& e) {
        refuse(e.suggested_status());
        break;
      } catch (const ParseError& e) {
        log_debug("net.conn") << "malformed request: " << e.what();
        refuse(0);
        break;
      }
      // A complete request is activity; a dribbling partial header (slow
      // loris) is not, so the idle timer keeps counting across it.
      touch();
      ConnSlot& slot = slot_at(in_flight_++);
      dispatch_(shared_from_this(), slot);
    }
    in_pump_ = false;
    flush();
  }

  // The slot `i` places behind the oldest in-flight request.
  ConnSlot& slot_at(std::size_t i) {
    std::unique_ptr<ConnSlot>& slot = ring_[(ring_head_ + i) % kMaxInFlight];
    if (!slot) slot = std::make_unique<ConnSlot>();
    return *slot;
  }

  // Move the ready prefix of the ring to the write queue in request order —
  // and, once the ring is empty, a refused message's status — then send.
  void flush() {
    while (in_flight_ > 0 && ring_[ring_head_]->ready) {
      ConnSlot& slot = *ring_[ring_head_];
      out_.push_back(OutChunk::head(std::move(slot.head)));
      if (!slot.body.empty()) out_.push_back(OutChunk::body(std::move(slot.body)));
      slot.body = {};
      slot.ready = false;
      ring_head_ = (ring_head_ + 1) % kMaxInFlight;
      --in_flight_;
    }
    if (in_flight_ == 0) {
      ring_head_ = 0;  // an unpipelined connection keeps reusing one slot
      if (refused_status_ != 0) {
        out_.push_back(OutChunk::canned(canned_reject_wire(refused_status_)));
        refused_status_ = 0;
      }
    }
    submit_write();
  }

  // The parser refused a message: `status` is the canned 431/413 to send
  // for an oversized one, 0 for malformed input (no answer). The requests
  // before it are still answered, in order, and the status queues behind
  // them. Then discard mode: sink the peer's remaining bytes, half-close
  // once everything is written and close after a bounded drain, so the FIN
  // carries the answers instead of an RST racing unread input.
  void refuse(int status) {
    discarding_ = true;
    refused_status_ = status;
    parser_.reset();
  }

  void record_first_byte(ssize_t n) {
    if (first_byte_hist_ != nullptr && n > 0) {
      first_byte_hist_->record(std::chrono::duration_cast<std::chrono::microseconds>(
                                   std::chrono::steady_clock::now() - accepted_)
                                   .count());
      first_byte_hist_ = nullptr;
    }
  }

  // Pop `remaining` written bytes off the front of the pending-write queue,
  // recycling head buffers as they complete.
  void consume_out(std::size_t remaining) {
    while (remaining > 0) {
      OutChunk& front = out_.front();
      const std::size_t left = front.bytes().size() - out_off_;
      if (remaining >= left) {
        remaining -= left;
        out_off_ = 0;
        if (front.kind == OutChunk::Kind::Text) recycle_head_buffer(std::move(front.text));
        out_.pop_front();
      } else {
        out_off_ += remaining;
        remaining = 0;
      }
    }
  }

  // End-of-round bookkeeping: progress the discard sequence, close on
  // drained EOF, and post the next recv if we still want to read.
  void finish_io_round() {
    if (closed_) return;
    const bool answered = in_flight_ == 0 && out_.empty() && !write_inflight_;
    if (discarding_ && answered && !write_shutdown_) {
      stream_.shutdown_write();
      write_shutdown_ = true;
      drain_timer_ = loop_->add_timer(std::chrono::steady_clock::now() + kDiscardDrain,
                                      [self = shared_from_this()] { self->close(); });
    }
    if (peer_eof_ && answered) {
      close();
      return;
    }
    submit_read();
  }

  // Reading continues while requests are in flight, so pipelined requests
  // reach dispatch; only a full ring stops it, and the kernel socket buffer
  // then backpressures the client. Discard mode always reads, to drain the
  // refused message.
  bool want_read() const {
    if (peer_eof_) return false;
    return discarding_ || in_flight_ < kMaxInFlight;
  }

  void touch() { last_activity_ = std::chrono::steady_clock::now(); }

  void arm_idle_timer(std::chrono::steady_clock::time_point when) {
    if (idle_timeout_ <= 0) return;
    idle_timer_ = loop_->add_timer(when, [self = shared_from_this()] { self->on_idle(); });
  }

  void on_idle() {
    idle_timer_ = 0;
    if (closed_) return;
    const auto now = std::chrono::steady_clock::now();
    const auto deadline = last_activity_ + std::chrono::microseconds(idle_timeout_);
    if (in_flight_ > 0) {
      // Requests are upstream (each bounded by the request deadline); give
      // the connection another full period.
      arm_idle_timer(now + std::chrono::microseconds(idle_timeout_));
      return;
    }
    if (now < deadline) {
      arm_idle_timer(deadline);  // touched since the timer was armed
      return;
    }
    close();
  }

  // One pending-write queue entry: either head text (a pooled per-connection
  // buffer, recycled once written) or payload bytes held by reference — a
  // refcounted body slab, or a canned wire with static lifetime. Payloads
  // are never copied into the queue.
  struct OutChunk {
    enum class Kind { Text, Slab };
    Kind kind = Kind::Text;
    std::string text;
    http::BodySlab slab;

    static OutChunk head(std::string t) {
      OutChunk c;
      c.text = std::move(t);
      return c;
    }
    static OutChunk body(http::BodySlab s) {
      OutChunk c;
      c.kind = Kind::Slab;
      c.slab = std::move(s);
      return c;
    }
    static OutChunk canned(std::string_view wire) {
      OutChunk c;
      c.kind = Kind::Slab;
      c.slab = http::BodySlab::static_bytes(wire);
      return c;
    }
    std::string_view bytes() const {
      return kind == Kind::Slab ? slab.view() : std::string_view(text);
    }
  };

  // Head buffers cycle between the slots, the write queue and this pool
  // (loop-thread only), so steady-state responses render their head into
  // warm capacity.
  std::string take_head_buffer() {
    if (head_pool_.empty()) return {};
    std::string buf = std::move(head_pool_.back());
    head_pool_.pop_back();
    buf.clear();
    return buf;
  }

  void recycle_head_buffer(std::string&& buf) {
    if (head_pool_.size() < kMaxInFlight) head_pool_.push_back(std::move(buf));
  }

  void close() {
    if (closed_) return;
    closed_ = true;
    if (idle_timer_ != 0) {
      loop_->cancel_timer(idle_timer_);
      idle_timer_ = 0;
    }
    if (drain_timer_ != 0) {
      loop_->cancel_timer(drain_timer_);
      drain_timer_ = 0;
    }
    const int conn_fd = fd();
    // Drop in-flight ops (their callbacks never run) and release the fd's
    // loop state before the descriptor closes.
    loop_->cancel_fd(conn_fd);
    stream_ = TcpStream(Fd{});  // close the descriptor now, not at last ref
    // A cancelled sendmsg may still be in the kernel's hands (uring) and
    // reference out_'s bytes and the member iovecs; the op owns a ref on
    // this Conn until it retires, so deferring the clear to the destructor
    // is what keeps the kernel's view of those buffers valid.
    if (!write_inflight_) out_.clear();
    if (on_closed_) on_closed_(conn_fd);
  }

  EventLoop* loop_;
  TcpStream stream_;
  HttpParser parser_;
  Duration idle_timeout_;
  Dispatch dispatch_;
  OnClosed on_closed_;
  obs::Histogram* first_byte_hist_;  // nulled after the first recorded write

  // The request being dispatched: the arena backs the view's header array
  // and is reset for each request.
  util::Arena arena_;
  http::RequestView view_;

  // In-flight requests, oldest at ring_head_.
  std::array<std::unique_ptr<ConnSlot>, kMaxInFlight> ring_;
  std::size_t ring_head_ = 0;
  std::size_t in_flight_ = 0;  // dispatched, not yet flushed
  int refused_status_ = 0;     // canned status to queue once the ring drains

  std::deque<OutChunk> out_;
  std::vector<std::string> head_pool_;
  std::size_t out_off_ = 0;  // bytes of out_.front() already written

  // Op buffers, owned by the connection so they outlive the in-flight ops.
  bool read_inflight_ = false;
  bool write_inflight_ = false;
  char rbuf_[kReadChunk];
  struct iovec wiov_[kMaxIov];
  struct msghdr wmsg_{};

  bool peer_eof_ = false;
  bool discarding_ = false;
  bool write_shutdown_ = false;
  bool closed_ = false;
  bool in_pump_ = false;
  std::uint64_t idle_timer_ = 0;
  std::uint64_t drain_timer_ = 0;
  std::chrono::steady_clock::time_point last_activity_;
  std::chrono::steady_clock::time_point accepted_;
};

namespace {

// Build one SO_REUSEPORT listener per shard on the shared port (the first
// binds it, possibly ephemeral) and start each shard's loop thread with its
// listener registered. Returns the bound port. `backlog` 0 = SOMAXCONN.
// `io_backend` picks the event-loop backend (resolve_io_backend names); an
// invalid or unsupported choice throws here, in the constructing thread.
// `setup` runs on each shard before its thread starts.
template <typename MakeConn, typename Setup>
std::uint16_t start_shards(std::vector<std::unique_ptr<LoopShard>>& shards,
                           std::size_t loop_threads, std::uint16_t port, MakeConn make_conn,
                           Setup setup, int backlog = 0, std::string_view io_backend = {}) {
  const std::string backend = resolve_io_backend(io_backend);
  if (loop_threads == 0) {
    loop_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  std::uint16_t bound = port;
  shards.reserve(loop_threads);
  for (std::size_t i = 0; i < loop_threads; ++i) {
    auto shard = std::make_unique<LoopShard>();
    shard->loop = make_event_loop(backend);
    shard->listener = std::make_unique<TcpListener>(bound, /*reuse_port=*/true, backlog);
    if (i == 0) bound = shard->listener->port();
    shard->listener->set_nonblocking();
    setup(*shard);
    shards.push_back(std::move(shard));
  }
  for (auto& shard_ptr : shards) {
    LoopShard* shard = shard_ptr.get();
    // Registration happens on the loop thread itself (op/timer state is
    // loop-thread-only), before run() starts dispatching. make_conn returns
    // null to refuse a connection (server stopping).
    shard->thread = std::thread([shard, make_conn] {
      shard->loop->submit_accept(shard->listener->fd(), [shard, make_conn](int client_fd) {
        // SOCK_NONBLOCK|SOCK_CLOEXEC were applied by the accept op.
        const int one = 1;
        ::setsockopt(client_fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        std::shared_ptr<Conn> conn = make_conn(shard, TcpStream(Fd(client_fd)));
        if (conn == nullptr) return;
        shard->conns[conn->fd()] = conn;
        conn->start();
      });
      shard->loop->run();
    });
  }
  return bound;
}

// Stop every shard: close the listener and all connections on each loop,
// then run `on_stop` there (the posted task is guaranteed to run in the
// loop's final drain), then join.
template <typename OnStop>
void stop_shards(std::vector<std::unique_ptr<LoopShard>>& shards, OnStop on_stop) {
  for (auto& shard_ptr : shards) {
    LoopShard* shard = shard_ptr.get();
    shard->loop->post([shard, on_stop] {
      if (shard->listener) {
        shard->loop->cancel_fd(shard->listener->fd());
        shard->listener->close();
      }
      std::vector<std::shared_ptr<Conn>> conns;
      conns.reserve(shard->conns.size());
      for (auto& [fd, conn] : shard->conns) conns.push_back(conn);
      for (auto& conn : conns) conn->close_now();
      on_stop(*shard);
    });
    shard->loop->stop();
  }
  for (auto& shard_ptr : shards) {
    if (shard_ptr->thread.joinable()) shard_ptr->thread.join();
  }
}

}  // namespace

// --- LiveOriginServer ----------------------------------------------------------------

LiveOriginServer::LiveOriginServer(apps::OriginServer* origin, std::uint16_t port,
                                   std::size_t loop_threads, std::string io_backend)
    : origin_(origin) {
  if (origin == nullptr) throw InvalidArgumentError("LiveOriginServer: null origin");
  requests_total_ = &registry_.counter("appx_origin_requests_total");
  serve_us_ = &registry_.histogram("appx_origin_serve_us");
  conns_gauge_ = &registry_.gauge("appx_origin_open_connections");
  port_ = start_shards(
      shards_, loop_threads, port,
      [this](LoopShard* shard, TcpStream stream) { return make_conn(shard, std::move(stream)); },
      [](LoopShard&) {}, /*backlog=*/0, io_backend);
}

LiveOriginServer::~LiveOriginServer() { stop(); }

void LiveOriginServer::stop() {
  if (stopping_.exchange(true)) return;
  stop_shards(shards_, [](LoopShard&) {});
}

void LiveOriginServer::handle_request(const std::shared_ptr<Conn>& conn, ConnSlot& slot) {
  // Served inline on the loop thread: OriginServer::serve is a pure
  // internally-synchronized request->response mapping with no blocking I/O.
  if (is_admin_path(conn->request_view().path())) {
    conn->complete(slot, metrics_response(registry_, conn->request_view().path()));
    return;
  }
  requests_total_->inc();
  const auto started = std::chrono::steady_clock::now();
  http::Response response;
  try {
    response = origin_->serve(conn->materialize_request(slot));
  } catch (const Error& e) {
    // A request the app rejects (bad argument, invalid state) fails that one
    // exchange; an uncaught throw here would unwind the loop thread.
    log_warn("net.origin") << "serve failed: " << e.what();
    response = *internal_error_response();
  }
  serve_us_->record(std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - started)
                        .count());
  ++served_;
  conn->complete(slot, response);
}

std::shared_ptr<Conn> LiveOriginServer::make_conn(LoopShard* shard, TcpStream stream) {
  if (stopping_.load()) return nullptr;
  auto conn = std::make_shared<Conn>(
      shard->loop.get(), std::move(stream), ReaderLimits{}, seconds(60),
      [this](const std::shared_ptr<Conn>& c, ConnSlot& slot) { handle_request(c, slot); },
      [this, shard](int fd) {
        shard->conns.erase(fd);
        conns_gauge_->set(static_cast<std::int64_t>(open_conns_.fetch_sub(1) - 1));
      },
      /*first_byte_hist=*/nullptr);
  conns_gauge_->set(static_cast<std::int64_t>(open_conns_.fetch_add(1) + 1));
  return conn;
}

// --- LiveProxyServer ------------------------------------------------------------------

LiveProxyServer::LiveProxyServer(core::ProxyLike* engine, UpstreamMap upstreams,
                                 std::uint16_t port, core::EngineOptions options)
    : engine_(engine),
      upstreams_(std::move(upstreams)),
      options_(std::move(options)),
      traces_(options_.trace_ring_capacity) {
  if (engine == nullptr) throw InvalidArgumentError("LiveProxyServer: null engine");
  if (!engine->thread_safe()) {
    throw InvalidArgumentError(
        "LiveProxyServer: engine is not thread-safe (every loop thread calls it); host a "
        "ShardedProxyEngine");
  }
  options_.validate().throw_if_error();
  // Fail fast on descriptor capacity: a high-connection run that would die
  // mid-load with EMFILE instead refuses to start, after attempting the
  // soft-limit raise (DESIGN.md §5i).
  ensure_fd_capacity(options_.min_file_descriptors).throw_if_error();
  // One scrape shows everything: transport-level metrics land in the engine's
  // registry when it has one, next to the engine's own counters.
  registry_ = engine_->metrics();
  if (registry_ == nullptr) registry_ = &own_registry_;
  client_hit_us_ =
      &registry_->histogram(obs::labeled("appx_client_latency_us", {{"path", "hit"}}));
  client_miss_us_ =
      &registry_->histogram(obs::labeled("appx_client_latency_us", {{"path", "miss"}}));
  prefetch_fetch_us_ = &registry_->histogram("appx_prefetch_fetch_us");
  accept_to_first_byte_us_ = &registry_->histogram("appx_accept_to_first_byte_us");
  admin_requests_ = &registry_->counter("appx_admin_requests_total");
  // Imperative gauge (not a callback): the engine's registry outlives this
  // server, so a callback capturing `this` would dangle after stop().
  conns_gauge_ = &registry_->gauge("appx_loop_connections");
  if (!options_.metrics_snapshot_path.empty()) {
    snapshot_writer_ = std::make_unique<obs::SnapshotWriter>(
        registry_, options_.metrics_snapshot_path, options_.metrics_snapshot_interval);
  }
  if (!options_.state_snapshot_path.empty()) {
    // Imperative gauges for the same reason as conns_gauge_ above.
    state_bytes_gauge_ = &registry_->gauge("appx_state_snapshot_bytes");
    state_last_ms_gauge_ = &registry_->gauge("appx_state_snapshot_last_unix_ms");
    restore_engine_state();
    state_writer_ = std::make_unique<obs::SnapshotWriter>(
        [this] { return serialize_engine_state(); }, options_.state_snapshot_path,
        options_.state_snapshot_interval);
  }
  const UpstreamClient::Options upstream_options{
      options_.upstream_pool_per_host, options_.upstream_idle_timeout, options_.request_deadline};
  port_ = start_shards(
      shards_, options_.loop_threads, port,
      [this](LoopShard* shard, TcpStream stream) { return make_conn(shard, std::move(stream)); },
      [&](LoopShard& shard) {
        shard.upstream = std::make_unique<UpstreamClient>(shard.loop.get(), &upstreams_,
                                                          upstream_options, *registry_);
      },
      options_.listen_backlog, options_.io_backend);
}

LiveProxyServer::~LiveProxyServer() { stop(); }

std::shared_ptr<Conn> LiveProxyServer::make_conn(LoopShard* shard, TcpStream stream) {
  if (stopping_.load()) return nullptr;
  auto conn = std::make_shared<Conn>(
      shard->loop.get(), std::move(stream),
      ReaderLimits{options_.reader_limits.max_head_bytes, options_.reader_limits.max_body_bytes},
      options_.conn_idle_timeout,
      [this, shard](const std::shared_ptr<Conn>& c, ConnSlot& slot) { dispatch(*shard, c, slot); },
      [this, shard](int fd) {
        shard->conns.erase(fd);
        conns_gauge_->set(static_cast<std::int64_t>(open_conns_.fetch_sub(1) - 1));
      },
      accept_to_first_byte_us_);
  conns_gauge_->set(static_cast<std::int64_t>(open_conns_.fetch_add(1) + 1));
  return conn;
}

void LiveProxyServer::stop() {
  if (stopping_.exchange(true)) return;
  if (snapshot_writer_) {
    snapshot_writer_->write_now();  // final state, not up to 1 interval stale
    snapshot_writer_->stop();
  }
  if (state_writer_) {
    state_writer_->write_now();  // a clean shutdown leaves a fresh snapshot
    state_writer_->stop();
  }
  // Each loop closes its connections and origin exchanges before exiting;
  // prefetches still in flight or unlearned resolve as dropped, so the
  // engine's outstanding windows balance even if it is inspected after
  // stop().
  stop_shards(shards_, [this](LoopShard& shard) { close_upstream(shard); });
}

SimTime LiveProxyServer::now() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

http::Response LiveProxyServer::handle_admin(const http::Request& request) {
  admin_requests_->inc();
  if (request.uri.path == "/appx/trace") {
    http::Response resp = status_response(200, traces_.to_json().dump(2));
    resp.headers.set("Content-Type", "application/json");
    return resp;
  }
  if (request.uri.path == "/appx/snapshot") {
    // On-demand learned-state dump (the `appx snapshot` subcommand): the
    // same bytes the periodic writer persists, served over the admin port.
    std::vector<std::uint8_t> bytes = serialize_engine_state();
    http::Response resp = status_response(
        200, std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size()));
    resp.headers.set("Content-Type", "application/octet-stream");
    return resp;
  }
  if (request.uri.path == "/appx/export") {
    // One user's learned shard, for ring handoff (DESIGN.md §5k).
    const std::optional<std::string> user = request.uri.query_param("user");
    if (!user || user->empty()) {
      return status_response(400, R"({"error":"missing user= query parameter"})");
    }
    const std::vector<std::uint8_t> blob = engine_->export_user(*user);
    if (blob.empty()) return status_response(404, R"({"error":"unknown user"})");
    http::Response resp = status_response(
        200, std::string(reinterpret_cast<const char*>(blob.data()), blob.size()));
    resp.headers.set("Content-Type", "application/octet-stream");
    return resp;
  }
  if (request.uri.path == "/appx/import") {
    if (request.method != "POST") {
      return status_response(405, R"({"error":"import requires POST"})");
    }
    const std::vector<std::uint8_t> blob(request.body.begin(), request.body.end());
    try {
      if (!engine_->import_user(blob, now())) return status_response(409, R"({"imported":false})");
      return status_response(200, R"({"imported":true})");
    } catch (const Error& e) {
      // Corrupt or future-version blobs are the sender's problem, not ours.
      log_warn("net.proxy") << "user import rejected: " << e.what();
      return status_response(400, R"({"error":"malformed user blob"})");
    }
  }
  return metrics_response(*registry_, request.uri.path);
}

std::vector<std::uint8_t> LiveProxyServer::serialize_engine_state() {
  core::SnapshotBuilder builder;
  engine_->snapshot_to(builder);
  std::vector<std::uint8_t> bytes = builder.finish();
  if (state_bytes_gauge_ != nullptr) {
    state_bytes_gauge_->set(static_cast<std::int64_t>(bytes.size()));
    state_last_ms_gauge_->set(std::chrono::duration_cast<std::chrono::milliseconds>(
                                  std::chrono::system_clock::now().time_since_epoch())
                                  .count());
  }
  return bytes;
}

void LiveProxyServer::restore_engine_state() {
  std::vector<std::uint8_t> bytes;
  try {
    bytes = read_file(options_.state_snapshot_path);
  } catch (const Error&) {
    log_info("net.proxy") << "no state snapshot at " << options_.state_snapshot_path
                          << "; cold start";
    return;
  }
  try {
    const core::SnapshotView view(bytes);
    const std::size_t users = engine_->restore_from(view, now());
    log_info("net.proxy") << "warm restart: restored " << users << " users from "
                          << options_.state_snapshot_path << " (" << bytes.size()
                          << " bytes)";
    state_bytes_gauge_->set(static_cast<std::int64_t>(bytes.size()));
    struct stat st{};
    if (::stat(options_.state_snapshot_path.c_str(), &st) == 0) {
      state_last_ms_gauge_->set(static_cast<std::int64_t>(st.st_mtime) * 1000);
    }
  } catch (const Error& e) {
    // A corrupt or future-version snapshot must never take the node down:
    // log it, start cold, and let the periodic writer replace the file.
    log_warn("net.proxy") << "state snapshot restore failed (" << e.what()
                          << "); cold start";
  }
}

void LiveProxyServer::dispatch(LoopShard& shard, const std::shared_ptr<Conn>& conn,
                               ConnSlot& slot) {
  const SimTime received = now();
  // Admin requests (metrics scrapes, trace dumps) bypass the engine: they
  // must not create user state or perturb learning. The raw-target path
  // check is exact for the origin-form requests the admin surface is
  // scraped with.
  if (is_admin_path(conn->request_view().path())) {
    const http::Request& request = conn->materialize_request(slot);
    obs::RequestTrace trace;
    trace.user = "-";
    trace.method = request.method;
    trace.target = request.uri.path;
    trace.outcome = "admin";
    trace.start_us = received;
    http::Response resp = handle_admin(request);
    trace.end_us = now();
    traces_.push(std::move(trace));
    conn->complete(slot, resp);
    return;
  }
  try {
    process_request(shard, conn, slot, received);
  } catch (const Error& e) {
    // Engine exceptions (invalid argument/state on a reachable path) fail
    // the one request as a 500 instead of unwinding the loop thread.
    log_warn("net.proxy") << "request failed: " << e.what();
    conn->complete(slot, *internal_error_response());
  }
}

void LiveProxyServer::process_request(LoopShard& shard, const std::shared_ptr<Conn>& conn,
                                      ConnSlot& slot, SimTime received) {
  // One logical user per connection source; for the loopback demo each
  // client identifies itself with an X-Appx-User header (falling back to a
  // shared id). A production front end would key on client address.
  //
  // The user is resolved into a core::Session once per (connection, user)
  // pair, cached on the connection; subsequent requests reuse the interned
  // UserId so steady-state events skip the name lookup (and, on the sharded
  // runtime, go straight to the owning shard). The name is read from the
  // zero-copy view; the owning request is materialized into the slot after
  // that, since a miss outlives the dispatch call.
  const std::string_view user = conn->request_view().header("X-Appx-User").value_or("default");

  auto session_it = conn->sessions.find(user);
  if (session_it == conn->sessions.end()) {
    session_it =
        conn->sessions.emplace(std::string(user), engine_->session(std::string(user), now()))
            .first;
  }
  core::Session& session = session_it->second;

  http::Request& upstream_request = conn->materialize_request(slot);
  upstream_request.headers.remove("X-Appx-User");
  // Origin-form request targets carry no scheme; this front end stands in
  // for the TLS-terminating proxy of the paper's deployment model, so
  // normalise to https for signature matching and cache identity.
  if (upstream_request.uri.scheme.empty()) upstream_request.uri.scheme = "https";

  obs::RequestTrace trace;
  trace.user = user;
  trace.method = upstream_request.method;
  trace.target = upstream_request.uri.path;
  trace.start_us = received;

  core::Decision decision = session.on_request(upstream_request, now());
  trace.add_span("decide", received, now());
  prefetches_inflight_.fetch_add(decision.prefetches.size());
  if (decision.served) {
    // The served response stays shared with the proxy's cache: the write
    // queue holds the refcount and the hit marker is stamped into the head
    // at serialize time, so no payload byte is copied between the cache and
    // the socket iovec.
    trace.outcome = "hit";
    trace.end_us = now();
    client_hit_us_->record(trace.end_us - received);
    traces_.push(std::move(trace));
    conn->complete(slot, *decision.served, "X-Appx-Cache: hit");
    issue_prefetches(shard, std::move(decision.prefetches));
    return;
  }

  // The slot (and the request in it) and the session stay valid until
  // complete(): the callback holds the connection. Later pipelined requests
  // on the connection are dispatched meanwhile; the engine sees their
  // on_request before this on_response.
  const SimTime fetch_start = now();
  auto on_fetched = [this, &shard, conn, &session, &slot, received, fetch_start,
                     trace = std::move(trace)](
                        std::shared_ptr<const http::Response> response, Duration) mutable {
    if (!response) return;  // server stopping: the connection is already closed
    trace.add_span("forward", fetch_start, now(), "status=" + std::to_string(response->status));
    const SimTime learn_start = now();
    core::Decision learned;
    try {
      learned = session.on_response(slot.request, *response, now());
    } catch (const Error& e) {
      log_warn("net.proxy") << "request failed: " << e.what();
      conn->complete(slot, *internal_error_response());
      return;
    }
    trace.add_span("learn", learn_start, now());
    trace.outcome = response->status >= 500 ? "error" : "miss";
    trace.end_us = now();
    client_miss_us_->record(trace.end_us - received);
    traces_.push(std::move(trace));
    prefetches_inflight_.fetch_add(learned.prefetches.size());
    conn->complete(slot, *response, "X-Appx-Cache: miss");
    issue_prefetches(shard, std::move(learned.prefetches));
  };
  shard.upstream->fetch(upstream_request, std::move(on_fetched));
  issue_prefetches(shard, std::move(decision.prefetches));
}

void LiveProxyServer::issue_prefetches(LoopShard& shard, std::vector<core::PrefetchJob> jobs) {
  for (core::PrefetchJob& job : jobs) {
    auto owned = std::make_shared<core::PrefetchJob>(std::move(job));
    const http::Request& request = owned->request;
    shard.upstream->fetch(
        request,
        [this, &shard, owned = std::move(owned), issued = now()](
            std::shared_ptr<const http::Response> response, Duration waited) mutable {
          on_prefetch_fetched(shard, std::move(owned), issued, waited, std::move(response));
        },
        /*background=*/true);
  }
}

void LiveProxyServer::on_prefetch_fetched(LoopShard& shard, std::shared_ptr<core::PrefetchJob> job,
                                          SimTime issued, Duration waited,
                                          std::shared_ptr<const http::Response> response) {
  if (!response) {
    prefetch_dropped(*job);
    return;
  }
  const SimTime fetched = now();
  prefetch_fetch_us_->record(fetched - issued - waited);
  shard.learn_backlog.push_back(
      FetchedPrefetch{std::move(job), issued, issued + waited, fetched, std::move(response)});
  if (shard.learn_timer == 0) {
    shard.learn_timer = shard.loop->add_timer(std::chrono::steady_clock::now(),
                                              [this, &shard] { learn_slice(shard); });
  }
}

void LiveProxyServer::learn_slice(LoopShard& shard) {
  shard.learn_timer = 0;
  const auto until = std::chrono::steady_clock::now() + kLearnSlice;
  while (!shard.learn_backlog.empty()) {
    FetchedPrefetch fetched = std::move(shard.learn_backlog.front());
    shard.learn_backlog.pop_front();
    learn_prefetch(shard, fetched);
    if (std::chrono::steady_clock::now() >= until) break;
  }
  if (!shard.learn_backlog.empty()) {
    // Due at once, so it runs in the next iteration — after the client
    // events that iteration's wait returns.
    shard.learn_timer = shard.loop->add_timer(std::chrono::steady_clock::now(),
                                              [this, &shard] { learn_slice(shard); });
  }
}

void LiveProxyServer::learn_prefetch(LoopShard& shard, FetchedPrefetch& fetched) {
  core::PrefetchJob& job = *fetched.job;
  obs::RequestTrace trace;
  trace.user = job.user;
  trace.method = job.request.method;
  trace.target = job.request.uri.path;
  trace.outcome = "prefetch";
  trace.start_us = fetched.issued;
  trace.add_span("fetch", fetched.sent, fetched.fetched, "sig=" + job.sig_id);
  const SimTime learn_start = now();
  core::Decision chained;
  try {
    // The origin's time alone: waiting for a connection slot or for this
    // slice is queueing, not response time.
    engine_->on_prefetch_response(job.uid, job, *fetched.response, learn_start,
                                  to_ms(fetched.fetched - fetched.sent), &chained);
    trace.add_span("learn", learn_start, now());
  } catch (const Error& e) {
    // A throwing engine event loses this one job; the loop serves on.
    log_warn("net.proxy") << "prefetch failed: " << e.what();
    trace.outcome = "prefetch_error";
  }
  trace.end_us = now();
  traces_.push(std::move(trace));
  // Chained prefetching: follow-ups count before this job stops counting,
  // so drain_prefetches() never sees a false zero between them.
  prefetches_inflight_.fetch_add(chained.prefetches.size());
  issue_prefetches(shard, std::move(chained.prefetches));
  if (prefetches_inflight_.fetch_sub(1) == 1) prefetches_inflight_.notify_all();
}

void LiveProxyServer::prefetch_dropped(core::PrefetchJob& job) {
  try {
    engine_->on_prefetch_dropped(job.uid, job, now());
  } catch (const Error& e) {
    // Runs from stop(), which the destructor calls: a throwing engine must
    // not escape it and terminate.
    log_warn("net.proxy") << "prefetch drop notification failed: " << e.what();
  }
  if (prefetches_inflight_.fetch_sub(1) == 1) prefetches_inflight_.notify_all();
}

void LiveProxyServer::close_upstream(LoopShard& shard) {
  shard.upstream->close_all();  // in-flight prefetches resolve as dropped
  if (shard.learn_timer != 0) {
    shard.loop->cancel_timer(shard.learn_timer);
    shard.learn_timer = 0;
  }
  while (!shard.learn_backlog.empty()) {
    FetchedPrefetch fetched = std::move(shard.learn_backlog.front());
    shard.learn_backlog.pop_front();
    prefetch_dropped(*fetched.job);
  }
}

void LiveProxyServer::drain_prefetches() {
  for (std::size_t n = prefetches_inflight_.load(); n != 0; n = prefetches_inflight_.load()) {
    prefetches_inflight_.wait(n);
  }
}

}  // namespace appx::net

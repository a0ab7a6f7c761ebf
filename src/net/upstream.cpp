#include "net/upstream.hpp"

#include <sys/socket.h>
#include <sys/uio.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "net/http_io.hpp"
#include "net/socket.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace appx::net {
namespace {

// Canned failure responses, built once and shared: serving one is a refcount
// bump — the body is a static slab, never copied or re-assembled per failure
// (DESIGN.md §5h). `body` must have static storage duration.
std::shared_ptr<const http::Response> make_canned(int status, std::string_view body) {
  auto resp = std::make_shared<http::Response>();
  resp->status = status;
  resp->reason = std::string(http::reason_phrase(status));
  resp->body = http::BodySlab::static_bytes(body);
  return resp;
}
const auto kNoUpstream = make_canned(502, R"({"error":"no upstream for host"})");
const auto kUpstreamError = make_canned(502, R"({"error":"upstream error"})");
const auto kUpstreamTimeout = make_canned(504, R"({"error":"upstream timeout"})");

// Recv buffer per origin connection: it must outlive the in-flight recv op,
// so it is a member, sized for typical origin bodies (tens of KB).
constexpr std::size_t kRecvChunk = 16 * 1024;

}  // namespace

// One origin connection. Its op buffers (request wire, iovec, recv buffer)
// are members, and every op carries the Link as its owner, so the loop keeps
// them alive until the op retires even after the connection is dropped.
struct UpstreamClient::Link : std::enable_shared_from_this<Link> {
  Link(TcpStream s, std::uint16_t p) : stream(std::move(s)), port(p) {}

  TcpStream stream;
  std::uint16_t port;
  HttpParser parser;
  Exchange* ex = nullptr;   // the exchange it serves; null while parked
  bool reused = false;      // this exchange runs on a parked connection
  bool got_bytes = false;   // a response byte arrived in this exchange
  bool reading = false;     // a recv is posted
  std::chrono::steady_clock::time_point parked_at;
  std::string wire;  // request head + body
  std::size_t sent = 0;
  iovec iov{};
  msghdr msg{};
  char rbuf[kRecvChunk];
};

UpstreamClient::UpstreamClient(EventLoop* loop, const Routes* routes, Options options,
                               obs::MetricsRegistry& registry)
    : loop_(loop),
      routes_(routes),
      options_(options),
      connect_total_(&registry.counter("appx_upstream_connect_total")),
      reuse_total_(&registry.counter("appx_upstream_reuse_total")),
      stale_total_(&registry.counter("appx_upstream_stale_total")),
      retry_total_(&registry.counter("appx_upstream_retry_total")),
      idle_gauge_(&registry.gauge("appx_upstream_idle")) {}

void UpstreamClient::fetch(const http::Request& request, Done done, bool background) {
  if (closed_) {
    done(nullptr, 0);
    return;
  }
  Exchange& ex = exchanges_.emplace_back();
  ex.self = std::prev(exchanges_.end());
  ex.done = std::move(done);
  const auto route = routes_->find(request.uri.host);
  if (route == routes_->end()) {
    resolve_soon(ex, kNoUpstream);
    return;
  }
  ex.port = route->second;
  ex.background = background;
  ex.timer = loop_->add_timer(
      std::chrono::steady_clock::now() + std::chrono::microseconds(options_.deadline),
      [this, e = &ex] { on_timer(*e); });
  request.serialize_head_into(ex.wire);
  ex.wire += request.body;
  Origin& origin = origins_[ex.port];
  if (background && origin.background >= std::max<std::size_t>(1, options_.per_host)) {
    ex.queued_at = std::chrono::steady_clock::now();
    origin.waiting.push_back(&ex);
    return;
  }
  start(ex);
}

void UpstreamClient::start(Exchange& ex) {
  Origin& origin = origins_[ex.port];
  if (ex.background) {
    ++origin.background;
    ex.holds_slot = true;
  }
  std::shared_ptr<Link> link = take_idle(origin);
  if (!link) link = connect(ex.port);
  if (!link) {
    resolve_soon(ex, kUpstreamError);
    return;
  }
  link->wire = std::move(ex.wire);
  link->ex = &ex;
  ex.link = std::move(link);
  send(*ex.link);
}

void UpstreamClient::resolve_soon(Exchange& ex, std::shared_ptr<const http::Response> failure) {
  // Resolved from the loop, never inside fetch: a caller issuing a batch of
  // jobs must not recurse through their completions.
  if (ex.timer != 0) loop_->cancel_timer(ex.timer);
  ex.failure = std::move(failure);
  ex.timer = loop_->add_timer(std::chrono::steady_clock::now(), [this, e = &ex] { on_timer(*e); });
}

void UpstreamClient::close_all() {
  closed_ = true;
  for (auto& [port, origin] : origins_) {
    idle_gauge_->sub(static_cast<std::int64_t>(origin.idle.size()));
    for (const std::shared_ptr<Link>& link : origin.idle) drop(*link);
    origin.idle.clear();
  }
  while (!exchanges_.empty()) fail(exchanges_.front(), nullptr);
}

std::shared_ptr<UpstreamClient::Link> UpstreamClient::connect(std::uint16_t port) {
  try {
    auto link = std::make_shared<Link>(TcpStream::begin_connect("127.0.0.1", port), port);
    connect_total_->inc();
    return link;
  } catch (const Error& e) {
    log_warn("net.upstream") << e.what();
    return nullptr;
  }
}

std::shared_ptr<UpstreamClient::Link> UpstreamClient::take_idle(Origin& origin) {
  const auto now = std::chrono::steady_clock::now();
  // Newest first keeps the warm end warm; if it has aged out, so has the rest.
  while (!origin.idle.empty()) {
    std::shared_ptr<Link> link = std::move(origin.idle.back());
    origin.idle.pop_back();
    idle_gauge_->sub(1);
    if (options_.idle_timeout <= 0 ||
        now - link->parked_at <= std::chrono::microseconds(options_.idle_timeout)) {
      reuse_total_->inc();
      link->reused = true;
      link->got_bytes = false;
      link->sent = 0;
      return link;
    }
    stale_total_->inc();
    drop(*link);
  }
  return nullptr;
}

void UpstreamClient::park(std::shared_ptr<Link> link) {
  if (closed_ || options_.per_host == 0) {
    drop(*link);
    return;
  }
  link->parked_at = std::chrono::steady_clock::now();
  std::vector<std::shared_ptr<Link>>& parked = origins_[link->port].idle;
  if (parked.size() >= options_.per_host) {
    drop(*parked.front());
    parked.erase(parked.begin());
    idle_gauge_->sub(1);
  }
  parked.push_back(std::move(link));
  idle_gauge_->add(1);
  recv(*parked.back());  // completes only on an origin FIN or stray bytes
}

void UpstreamClient::evict(Link& link) {
  std::vector<std::shared_ptr<Link>>& parked = origins_[link.port].idle;
  const auto it = std::find_if(parked.begin(), parked.end(),
                               [&](const std::shared_ptr<Link>& p) { return p.get() == &link; });
  if (it != parked.end()) parked.erase(it);
  idle_gauge_->sub(1);
  stale_total_->inc();
  drop(link);
}

void UpstreamClient::drop(Link& link) {
  if (!link.stream.valid()) return;
  // Pending ops are dropped; their owner ref keeps the buffers valid until
  // the kernel is done with them.
  loop_->cancel_fd(link.stream.fd());
  link.stream = TcpStream(Fd{});
}

void UpstreamClient::send(Link& link) {
  link.iov.iov_base = link.wire.data() + link.sent;
  link.iov.iov_len = link.wire.size() - link.sent;
  link.msg = msghdr{};
  link.msg.msg_iov = &link.iov;
  link.msg.msg_iovlen = 1;
  loop_->submit_sendmsg(
      link.stream.fd(), &link.msg, [this, l = &link](int res) { on_sent(*l, res); },
      link.shared_from_this());
}

void UpstreamClient::recv(Link& link) {
  link.reading = true;
  loop_->submit_recv(
      link.stream.fd(), link.rbuf, sizeof link.rbuf,
      [this, l = &link](int res) { on_recv(*l, res); }, link.shared_from_this());
}

void UpstreamClient::on_sent(Link& link, int res) {
  if (link.ex == nullptr) return;
  if (res == -EINTR || res == -EAGAIN) {
    send(link);
    return;
  }
  if (res <= 0) {
    on_failure(*link.ex, res);
    return;
  }
  link.sent += static_cast<std::size_t>(res);
  if (link.sent < link.wire.size()) {
    send(link);
  } else if (!link.reading) {
    recv(link);
  }
}

void UpstreamClient::on_recv(Link& link, int res) {
  link.reading = false;
  Exchange* ex = link.ex;
  if (ex == nullptr) {
    evict(link);  // parked: the origin closed it or desynced the framing
    return;
  }
  if (res == -EINTR || res == -EAGAIN) {
    recv(link);
    return;
  }
  if (res <= 0) {
    on_failure(*ex, res);
    return;
  }
  link.got_bytes = true;
  link.parser.append(link.rbuf, static_cast<std::size_t>(res));
  std::shared_ptr<const http::Response> response;
  try {
    const auto message = link.parser.next_message();
    if (!message) {
      recv(link);
      return;
    }
    response = std::make_shared<const http::Response>(http::Response::parse(*message));
  } catch (const Error& e) {
    log_warn("net.upstream") << "bad origin response: " << e.what();
    fail(*ex, kUpstreamError);
    return;
  }
  std::shared_ptr<Link> done_with = std::move(ex->link);
  done_with->ex = nullptr;
  // Reusable only when the exchange ended exactly at a message boundary,
  // with no part of the request still in flight.
  if (link.parser.pending_bytes() == 0 && link.sent == link.wire.size()) {
    park(std::move(done_with));
  } else {
    drop(link);
  }
  finish(*ex, std::move(response));
}

void UpstreamClient::on_failure(Exchange& ex, int res) {
  Link& link = *ex.link;
  if (link.reused && !link.got_bytes && !ex.retried) {
    // The origin closed the parked connection under us: retry once, fresh.
    ex.retried = true;
    retry_total_->inc();
    if (std::shared_ptr<Link> fresh = connect(ex.port)) {
      fresh->wire = link.wire;
      fresh->ex = &ex;
      drop(link);
      link.ex = nullptr;
      ex.link = std::move(fresh);
      send(*ex.link);
      return;
    }
  }
  log_warn("net.upstream") << "origin exchange failed: "
                           << (res < 0 ? std::strerror(-res) : "connection closed");
  fail(ex, kUpstreamError);
}

void UpstreamClient::on_timer(Exchange& ex) {
  ex.timer = 0;
  if (!ex.failure) log_warn("net.upstream") << "origin exchange exceeded its deadline";
  fail(ex, ex.failure ? ex.failure : kUpstreamTimeout);
}

void UpstreamClient::fail(Exchange& ex, std::shared_ptr<const http::Response> response) {
  if (ex.link) {
    drop(*ex.link);
    ex.link->ex = nullptr;
  }
  finish(ex, std::move(response));
}

void UpstreamClient::finish(Exchange& ex, std::shared_ptr<const http::Response> response) {
  if (ex.timer != 0) loop_->cancel_timer(ex.timer);
  if (ex.holds_slot) {
    Origin& origin = origins_[ex.port];
    --origin.background;
    // Hand the slot (and the connection this exchange just parked) to the
    // next waiter.
    if (!closed_ && !origin.waiting.empty()) {
      Exchange* next = origin.waiting.front();
      origin.waiting.pop_front();
      next->waited = std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::steady_clock::now() - next->queued_at)
                         .count();
      start(*next);
    }
  } else if (ex.background) {
    // Timed out or abandoned while waiting.
    std::deque<Exchange*>& waiting = origins_[ex.port].waiting;
    const auto it = std::find(waiting.begin(), waiting.end(), &ex);
    if (it != waiting.end()) waiting.erase(it);
  }
  const Done done = std::move(ex.done);
  const Duration waited = ex.waited;
  exchanges_.erase(ex.self);
  done(std::move(response), waited);
}

}  // namespace appx::net

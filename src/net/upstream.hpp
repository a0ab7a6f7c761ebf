// Proxy->origin HTTP/1.1 client for one event loop (DESIGN.md §5g).
//
// Each proxy reactor owns one UpstreamClient and only its thread touches it:
// an origin exchange runs on the loop's completion ops like any client
// connection, so a miss or a prefetch holds no thread while the origin
// thinks. An exchange is TcpStream::begin_connect (or a parked keep-alive
// connection), one sendmsg of the request (head + body), then recvs fed
// into an HttpParser until one response is framed. A sendmsg on a
// still-connecting socket completes once the connection is up, and a
// refused connect completes it with -ECONNREFUSED, so no connect op exists.
//
//   * Keep-alive: a connection whose exchange ended exactly at a message
//     boundary parks per origin port, at most `per_host` of them (the
//     oldest closes beyond it). A parked connection keeps a recv posted, so
//     an origin FIN or a stray byte evicts it as stale at once; connections
//     parked longer than `idle_timeout` are evicted on reuse.
//   * Demand first: background exchanges (prefetches) hold at most
//     `per_host` connections per origin port (at least one); past that
//     they wait in a FIFO and start as earlier ones finish, so a fan-out
//     reuses the parked connections instead of opening one socket per job.
//     Demand exchanges never wait behind them.
//   * Retry: a reused connection that fails before its first response byte
//     (the origin closed it under us) is retried once on a fresh connect.
//   * Deadline: one loop timer per exchange bounds the whole exchange,
//     waiting included, by `deadline` and answers 504; other failures
//     answer 502.
//   * close_all() (server stop) closes every connection and resolves every
//     exchange still in flight or waiting with a null response.
//
// Metrics (shared by every loop's client): appx_upstream_{connect,reuse,
// stale,retry}_total and the gauge appx_upstream_idle.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "http/message.hpp"
#include "net/event_loop.hpp"
#include "obs/metrics.hpp"
#include "util/units.hpp"

namespace appx::net {

class UpstreamClient {
 public:
  // Request host -> origin port on 127.0.0.1.
  using Routes = std::map<std::string, std::uint16_t>;
  // The origin's response, a canned 502/504 on failure, or null when the
  // exchange was abandoned by close_all(); and how long a background
  // exchange waited for a connection slot before it was sent.
  using Done = std::function<void(std::shared_ptr<const http::Response>, Duration waited)>;

  struct Options {
    std::size_t per_host = 8;             // parked / background cap; 0 = no keep-alive
    Duration idle_timeout = seconds(30);  // 0 = parked connections never age out
    Duration deadline = seconds(15);      // whole exchange, > 0
  };

  // `loop` and `routes` must outlive the client.
  UpstreamClient(EventLoop* loop, const Routes* routes, Options options,
                 obs::MetricsRegistry& registry);
  UpstreamClient(const UpstreamClient&) = delete;
  UpstreamClient& operator=(const UpstreamClient&) = delete;

  // Loop thread. Sends `request` to its host's origin; `done` runs exactly
  // once, on the loop thread and never inside this call — except after
  // close_all(), when it runs at once with null. A host without a route
  // answers 502. A `background` exchange may wait for a connection slot.
  void fetch(const http::Request& request, Done done, bool background = false);

  // Loop thread (server stop): close every connection, resolve in-flight
  // exchanges with null, and refuse (null) any later fetch.
  void close_all();

 private:
  struct Link;
  struct Exchange {
    std::list<Exchange>::iterator self;
    Done done;
    std::uint16_t port = 0;
    std::uint64_t timer = 0;
    std::chrono::steady_clock::time_point queued_at;  // set while waiting
    Duration waited = 0;
    bool background = false;
    bool holds_slot = false;  // counted in its Origin's `background`
    bool retried = false;
    std::shared_ptr<const http::Response> failure;  // resolve with this when the timer fires
    std::string wire;  // request head + body until it moves to a connection
    std::shared_ptr<Link> link;
  };
  // Per origin port.
  struct Origin {
    std::vector<std::shared_ptr<Link>> idle;  // oldest first
    std::size_t background = 0;               // background exchanges holding a slot
    std::deque<Exchange*> waiting;            // background exchanges past the cap
  };

  // Take a connection and send; a failed connect resolves from the loop.
  void start(Exchange& ex);
  void resolve_soon(Exchange& ex, std::shared_ptr<const http::Response> failure);
  std::shared_ptr<Link> connect(std::uint16_t port);
  std::shared_ptr<Link> take_idle(Origin& origin);
  void park(std::shared_ptr<Link> link);
  void evict(Link& link);
  void drop(Link& link);
  void send(Link& link);
  void recv(Link& link);
  void on_sent(Link& link, int res);
  void on_recv(Link& link, int res);
  void on_timer(Exchange& ex);
  // A connection-level failure: retry a reused connection once, else 502.
  void on_failure(Exchange& ex, int res);
  // Close the exchange's connection (if any) and resolve it.
  void fail(Exchange& ex, std::shared_ptr<const http::Response> response);
  void finish(Exchange& ex, std::shared_ptr<const http::Response> response);

  EventLoop* loop_;
  const Routes* routes_;
  Options options_;
  bool closed_ = false;
  std::list<Exchange> exchanges_;  // in flight or waiting; nodes are address-stable
  std::map<std::uint16_t, Origin> origins_;

  obs::Counter* connect_total_;
  obs::Counter* reuse_total_;
  obs::Counter* stale_total_;
  obs::Counter* retry_total_;
  obs::Gauge* idle_gauge_;
};

}  // namespace appx::net

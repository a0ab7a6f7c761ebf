// Live (real-socket) origin server and acceleration proxy, on an
// event-driven runtime (DESIGN.md §5g).
//
// The simulator variant of these lives in eval/testbed; this is the same
// engine on actual TCP connections, mirroring the paper's deployable
// artefact (their mitmproxy-based prototype):
//
//   * LiveOriginServer — serves an apps::OriginServer over HTTP/1.1 with
//     keep-alive.
//   * LiveProxyServer — accepts client connections, serves exact matches
//     from the engine's cache (tagging them "X-Appx-Cache: hit"), forwards
//     misses upstream, and runs dynamic learning + prefetching (paper §5)
//     on the same event loops.
//
// Network runtime:
//   * N event-loop threads (EngineOptions.loop_threads, default
//     hardware_concurrency), each owning one event loop
//     (EngineOptions.io_backend: epoll or io_uring, DESIGN.md §5l) and one
//     SO_REUSEPORT listener on the shared port — the kernel shards accepted
//     connections across loops, no accept lock, no per-connection thread.
//     These are the proxy's only threads.
//   * All socket I/O is one model on either backend: completion ops
//     (submit_accept, submit_recv, submit_sendmsg, cancel_fd). Each
//     connection is a non-blocking Conn state machine bound to its loop
//     with one recv and at most one sendmsg in flight: reads feed an
//     incremental HttpParser (one scratch buffer per connection, reused
//     across keep-alive requests), responses drain through a pending-write
//     queue sent with sendmsg (head + body leave in one op), and a
//     timer-heap idle timeout reaps silent or slow-loris connections. On
//     uring a whole warm exchange rides one batched io_uring_enter; on epoll
//     it is one recv per readiness and one inline sendmsg.
//   * Pipelined dispatch: a connection keeps parsing and dispatching
//     pipelined requests while earlier ones are upstream, up to a ring of
//     16 in flight, and writes their responses strictly in request order
//     (RFC 9112 §9.3.2); the ready prefix leaves as one sendmsg batch. A
//     request's zero-copy view lives only during dispatch; each in-flight
//     request owns a ring slot holding its materialized http::Request for
//     the engine and the origin exchange. A full ring is the only
//     backpressure. Oversized (431/413) and malformed messages are refused
//     only after the requests before them are answered.
//   * The whole request path runs on the loop that owns the connection:
//     engine events are called inline (the engine must be thread-safe —
//     loops call it concurrently), and origin exchanges — miss and prefetch
//     alike — run on the loop's own UpstreamClient (net/upstream.hpp) with
//     per-loop keep-alive connections and a deadline timer each. Every
//     prefetch job a Decision carries is issued as soon as the client's
//     response is queued; the engine's per-user scheduler window is the only
//     prefetch queue. Demand goes first on a loop: prefetch exchanges wait
//     for a connection slot past `upstream_pool_per_host` per origin, and
//     their responses are learned in bounded slices between client events.
//   * stop() closes listeners, live connections and origin exchanges on
//     every loop (in-flight prefetches resolve as dropped) and joins the
//     loop threads.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/server.hpp"
#include "core/engine_options.hpp"
#include "core/proxy.hpp"
#include "core/session.hpp"
#include "net/event_loop.hpp"
#include "net/http_io.hpp"
#include "net/socket.hpp"
#include "net/upstream.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"

namespace appx::net {

class Conn;
struct ConnSlot;

// A prefetch response waiting for the engine to learn it (LiveProxyServer).
struct FetchedPrefetch {
  std::shared_ptr<core::PrefetchJob> job;
  SimTime issued = 0;   // exchange issued
  SimTime sent = 0;     // exchange got an origin connection
  SimTime fetched = 0;  // response in hand
  std::shared_ptr<const http::Response> response;
};

// One reactor thread: an event loop plus its SO_REUSEPORT listener, the
// connections the kernel sharded onto it and (proxy only) its origin client
// and the prefetch responses it has yet to learn. Connections are owned here
// and never migrate between shards.
struct LoopShard {
  std::unique_ptr<EventLoop> loop;
  std::unique_ptr<TcpListener> listener;
  std::map<int, std::shared_ptr<Conn>> conns;  // loop-thread only
  std::thread thread;
  std::unique_ptr<UpstreamClient> upstream;  // loop-thread only
  std::deque<FetchedPrefetch> learn_backlog;  // loop-thread only
  std::uint64_t learn_timer = 0;              // armed while the backlog is non-empty
};

class LiveOriginServer {
 public:
  // Binds 127.0.0.1:`port` (0 = ephemeral) and starts serving immediately on
  // `loop_threads` reactor threads (0 = hardware_concurrency). `origin` must
  // outlive the server; apps::OriginServer::serve is internally synchronized,
  // so loops call it concurrently with no server-wide lock. `io_backend`
  // picks the event-loop backend ("" = APPX_IO_BACKEND env, default epoll;
  // see resolve_io_backend).
  LiveOriginServer(apps::OriginServer* origin, std::uint16_t port = 0,
                   std::size_t loop_threads = 0, std::string io_backend = {});
  ~LiveOriginServer();
  LiveOriginServer(const LiveOriginServer&) = delete;
  LiveOriginServer& operator=(const LiveOriginServer&) = delete;

  std::uint16_t port() const { return port_; }
  std::size_t requests_served() const { return served_.load(); }
  // Currently open client connections across all loops.
  std::size_t open_connections() const { return open_conns_.load(); }
  std::size_t loop_thread_count() const { return shards_.size(); }
  // Origin-side metrics (request count, serve-time histogram); also served
  // over HTTP at /appx/metrics[.json].
  const obs::MetricsRegistry& metrics() const { return registry_; }
  void stop();

 private:
  // Loop-thread entry; the parsed request rides on the connection as a
  // zero-copy view (Conn::request_view) for the call, and the response goes
  // back into `slot`.
  void handle_request(const std::shared_ptr<Conn>& conn, ConnSlot& slot);
  std::shared_ptr<Conn> make_conn(LoopShard* shard, TcpStream stream);

  apps::OriginServer* origin_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<std::size_t> served_{0};
  std::atomic<std::size_t> open_conns_{0};
  obs::MetricsRegistry registry_;
  obs::Counter* requests_total_ = nullptr;
  obs::Histogram* serve_us_ = nullptr;
  obs::Gauge* conns_gauge_ = nullptr;
  std::vector<std::unique_ptr<LoopShard>> shards_;
};

class LiveProxyServer {
 public:
  // Routes upstream connections by request host: host -> 127.0.0.1:port.
  using UpstreamMap = UpstreamClient::Routes;

  // `engine` must outlive the server and be thread-safe (ShardedProxyEngine,
  // or any ProxyLike whose thread_safe() is true): every loop thread calls it
  // concurrently. Throws InvalidArgument for an engine that is not, or when
  // options.validate() fails — bad bounds are rejected, never clamped.
  LiveProxyServer(core::ProxyLike* engine, UpstreamMap upstreams, std::uint16_t port = 0,
                  core::EngineOptions options = {});
  ~LiveProxyServer();
  LiveProxyServer(const LiveProxyServer&) = delete;
  LiveProxyServer& operator=(const LiveProxyServer&) = delete;

  std::uint16_t port() const { return port_; }
  const core::EngineOptions& options() const { return options_; }
  void stop();

  // Blocks until every issued prefetch is fetched and learned (used by
  // tests and demos to observe a settled cache).
  void drain_prefetches();

  // Currently open client connections across all loops.
  std::size_t open_connections() const { return open_conns_.load(); }
  std::size_t loop_thread_count() const { return shards_.size(); }
  // Reactor `index`'s event loop (index < loop_thread_count()), e.g. for
  // posting a measurement task onto its thread.
  EventLoop& loop(std::size_t index) const { return *shards_.at(index)->loop; }

  // The registry scraped at /appx/metrics: the engine's own registry when it
  // has one (ProxyEngine / ShardedProxyEngine), otherwise a server-local
  // registry holding just the transport-level metrics.
  obs::MetricsRegistry& metrics() { return *registry_; }
  const obs::MetricsRegistry& metrics() const { return *registry_; }
  // Recent per-request traces, also served at /appx/trace.
  const obs::TraceRing& traces() const { return traces_; }

 private:
  // Loop-thread entry: admin requests answered inline, everything else
  // through the engine and, on a miss, `shard`'s origin client. The request
  // rides on the connection as a zero-copy view (Conn::request_view), valid
  // during this call only; what outlives it is materialized into `slot`,
  // which the response completes.
  void dispatch(LoopShard& shard, const std::shared_ptr<Conn>& conn, ConnSlot& slot);
  std::shared_ptr<Conn> make_conn(LoopShard* shard, TcpStream stream);
  // Engine events + origin exchange for one request. Calls Conn::complete
  // on `slot` exactly once (now, or when the exchange resolves) unless it
  // throws.
  void process_request(LoopShard& shard, const std::shared_ptr<Conn>& conn, ConnSlot& slot,
                       SimTime received);
  // Start one background origin exchange per job on `shard`'s loop; each
  // resolves as on_prefetch_response, or on_prefetch_dropped when the server
  // stops first. The caller has already counted the jobs in
  // prefetches_inflight_ — before the client's response leaves, so
  // drain_prefetches() cannot miss them.
  void issue_prefetches(LoopShard& shard, std::vector<core::PrefetchJob> jobs);
  // Exchange resolved: queue the response for learning (null: dropped).
  void on_prefetch_fetched(LoopShard& shard, std::shared_ptr<core::PrefetchJob> job,
                           SimTime issued, Duration waited,
                           std::shared_ptr<const http::Response> response);
  // Demand first: a zero-delay loop timer learns queued prefetch responses
  // for at most one slice per loop iteration, so a burst of them delays the
  // loop's client events by about one slice instead of the whole burst.
  void learn_slice(LoopShard& shard);
  void learn_prefetch(LoopShard& shard, FetchedPrefetch& fetched);
  void prefetch_dropped(core::PrefetchJob& job);
  // Stop path, on the loop: close origin exchanges, drop unlearned responses.
  void close_upstream(LoopShard& shard);
  http::Response handle_admin(const http::Request& request);
  // Durable learned state (DESIGN.md §5k): render the engine's learned state
  // as one binary snapshot container / restore it from the configured path
  // at startup (missing or unreadable snapshots degrade to a logged cold
  // start, never a construction failure).
  std::vector<std::uint8_t> serialize_engine_state();
  void restore_engine_state();
  SimTime now() const;

  core::ProxyLike* engine_;
  UpstreamMap upstreams_;
  core::EngineOptions options_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<std::size_t> open_conns_{0};
  // Prefetch jobs issued and not yet resolved (fetching, or waiting to be
  // learned) across all loops; drain_prefetches waits for zero.
  std::atomic<std::size_t> prefetches_inflight_{0};

  // Transport-level observability. own_registry_ backs registry_ only for
  // engines without one; metric pointers are resolved once in the ctor.
  obs::MetricsRegistry own_registry_;
  obs::MetricsRegistry* registry_ = nullptr;
  obs::Histogram* client_hit_us_ = nullptr;   // receive -> respond, cache hits
  obs::Histogram* client_miss_us_ = nullptr;  // receive -> respond, forwards
  obs::Histogram* prefetch_fetch_us_ = nullptr;  // upstream fetch, prefetch path
  obs::Histogram* accept_to_first_byte_us_ = nullptr;
  obs::Counter* admin_requests_ = nullptr;
  obs::Gauge* conns_gauge_ = nullptr;
  obs::TraceRing traces_{128};
  std::unique_ptr<obs::SnapshotWriter> snapshot_writer_;
  // Engine-state persistence (only when options.state_snapshot_path is set).
  std::unique_ptr<obs::SnapshotWriter> state_writer_;
  obs::Gauge* state_bytes_gauge_ = nullptr;    // appx_state_snapshot_bytes
  obs::Gauge* state_last_ms_gauge_ = nullptr;  // appx_state_snapshot_last_unix_ms

  std::vector<std::unique_ptr<LoopShard>> shards_;
  std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
};

}  // namespace appx::net

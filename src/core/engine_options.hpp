// One documented knob struct for the whole proxy runtime.
//
// Historically the knobs were scattered: ProxyConfig carried runtime caps
// next to the paper's per-signature policy model, PrefetchCache::Limits and
// PrefetchScheduler::Weights were constructed ad hoc, and the live servers
// had their own LiveProxyOptions. EngineOptions collapses them: the engine
// and the live front end read exactly one struct, snapshotted at
// construction, with per-field defaults below and validate() reporting bad
// values as a util::Error instead of silently clamping them.
//
// ProxyConfig keeps its runtime-cap fields only as the serialized (JSON)
// source — from_config() maps them in; the engine itself never reads caps
// from ProxyConfig at run time. Policy fields (probability, expiration,
// conditions, add_headers, host_apps, data budget) stay in ProxyConfig and
// remain live-reloadable.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "policy/options.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace appx::core {

class ProxyConfig;

struct EngineOptions {
  // --- engine core ----------------------------------------------------------

  // Seed for the probabilistic-prefetch coin; shard i of a sharded engine
  // derives its own stream as seed ^ i.
  std::uint64_t seed = 1;
  // Shard count for ShardedProxyEngine; 0 = hardware_concurrency (min 1).
  std::size_t shards = 0;
  // Max outstanding prefetches per user (the scheduler window). Must be >= 1.
  std::size_t max_outstanding_prefetches = 32;
  // Per-user bound on jobs *queued* behind the outstanding window; overflow
  // evicts the lowest-priority queued job (reported as a skipped prefetch,
  // reason=queue_full — it was never issued). 0 = unbounded (historical
  // behaviour).
  std::size_t max_queued_prefetches = 0;
  // Per-user prefetch-cache footprint caps (LRU eviction beyond these);
  // 0 = unlimited.
  std::size_t cache_max_entries = 4096;
  Bytes cache_max_bytes = megabytes(64);
  // Engine-wide bound on per-user state: at most max_users user contexts per
  // shard (0 = unlimited); users idle for user_idle_timeout are evicted when
  // a new user arrives (nullopt = only the max_users cap applies).
  std::size_t max_users = 4096;
  std::optional<Duration> user_idle_timeout = minutes(30);
  // Prefetch priority = time_weight * avg_response_ms + hit_weight * hit_rate
  // (paper §5). Zeroing both degrades the scheduler to FIFO (ablation).
  double scheduler_time_weight = 1.0;
  double scheduler_hit_weight = 200.0;
  // Cost-aware prefetch policy (value-based admission, budget pacing, learned
  // expiry — DESIGN.md §5j). Off by default; ProxyConfig carries the same
  // block in its serialized `global.policy` object.
  policy::PolicyOptions policy;

  // --- live transport (LiveProxyServer) --------------------------------------

  // Bound on one whole origin exchange (waiting for a connection, connect,
  // send, response), enforced by a loop timer; past it the exchange resolves
  // as a 504. Must be > 0: nothing else frees a client connection held by a
  // hung origin.
  Duration request_deadline = seconds(15);
  // Event-loop runtime (DESIGN.md §5g). loop_threads reactor threads share
  // the accept load via SO_REUSEPORT (0 = hardware_concurrency); each runs
  // one event loop driving its client connections, the engine events for
  // them, and their origin exchanges. They are the proxy's only threads.
  std::size_t loop_threads = 0;
  // Event-loop I/O backend (DESIGN.md §5l) under the servers' completion-op
  // I/O: "epoll" (ops on readiness, the default), "uring" (ops as io_uring
  // SQEs; construction fails on kernels without the required support), or
  // "auto" (uring when supported, else epoll). "" defers to the APPX_IO_BACKEND environment variable
  // (default epoll), so whole test/bench suites can be re-run under a
  // different backend without touching call sites.
  std::string io_backend;
  // listen(2) accept-queue depth per listener; 0 = SOMAXCONN. The queue must
  // absorb connection storms (an open-loop ramp to 10k clients): when it
  // fills, the kernel silently drops SYNs and clients see connect timeouts.
  // Shrink only to deliberately shed load at the kernel boundary.
  int listen_backlog = 0;
  // File descriptors the server wants available (connections + listeners +
  // epoll/eventfd/timer overhead). At startup the soft RLIMIT_NOFILE is
  // raised to at least this (up to the hard limit); if the hard limit is
  // below it, construction fails fast with an actionable error instead of
  // the runtime dying mid-run with EMFILE at ~1k connections. 0 skips the
  // check.
  std::size_t min_file_descriptors = 1024;
  // A client connection idle (or dribbling an incomplete request — slow
  // loris) this long is closed. 0 disables the idle timer.
  Duration conn_idle_timeout = seconds(60);
  // Upstream keep-alive: each loop parks at most this many idle connections
  // per origin host (0 disables keep-alive — every fetch reconnects); an
  // origin FIN evicts a parked connection at once, and one parked longer
  // than upstream_idle_timeout is discarded instead of reused. It also caps
  // each loop's concurrent prefetch exchanges per origin host (at least 1);
  // further prefetches wait in a FIFO, while client misses never wait.
  std::size_t upstream_pool_per_host = 8;
  Duration upstream_idle_timeout = seconds(30);
  // Per-message size bounds on client connections (431/413 beyond them).
  // Mirrors net::ReaderLimits without a core->net dependency.
  struct ReaderBounds {
    std::size_t max_head_bytes = 64 * 1024;
    std::size_t max_body_bytes = 8 * 1024 * 1024;
  };
  ReaderBounds reader_limits;
  // Observability: capacity of the request-trace ring served at /appx/trace
  // (>= 1), and optional periodic JSON metrics snapshots (empty path
  // disables).
  std::size_t trace_ring_capacity = 128;
  std::string metrics_snapshot_path;
  Duration metrics_snapshot_interval = seconds(10);
  // Durable learned state (DESIGN.md §5k): binary engine-state snapshot.
  // Empty path disables. When set, the live server restores from the file at
  // startup (missing/corrupt/future-version snapshots degrade to a logged
  // cold start, never a crash) and a background writer re-dumps the learned
  // state every state_snapshot_interval via write-to-temp + atomic rename.
  std::string state_snapshot_path;
  Duration state_snapshot_interval = seconds(30);

  // Reject out-of-domain values with a message naming the field. Engines and
  // servers call throw_if_error() on this at construction — bad options fail
  // fast instead of being silently clamped.
  util::Error validate() const;

  // Snapshot the runtime caps a serialized ProxyConfig carries. The returned
  // options keep all transport defaults.
  static EngineOptions from_config(const ProxyConfig& config);
};

}  // namespace appx::core

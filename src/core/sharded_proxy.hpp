// The APPx engine: N independent ProxyEngine shards behind one session API.
// Every front end (the live server, the simulator testbed, the tools) hosts
// this class; single-shard runs use EngineOptions::shards = 1.
//
// The paper keeps all run-time state per user (§2/§5), which makes the
// engine embarrassingly shardable: a user's every event touches only its own
// learning/cache/scheduler state. ShardedProxyEngine exploits that —
//
//   * users are assigned to shards by fnv1a(user) % shard_count (stable, so
//     a UserId's shard never changes);
//   * each shard is a ProxyEngine with its own mutex, its own user
//     slot table, its own dispatch counters and a probability-coin stream
//     seeded seed ^ shard;
//   * all shards match against the caller's ONE signature set: a built set
//     is immutable (compiled hole shapes, a complete dispatch index), so
//     concurrent matching needs no copy and no lock;
//   * all shards contribute deltas into ONE shared obs::MetricsRegistry, so
//     /appx/metrics, stats() aggregation and the prefetch-accounting
//     invariant (responses + failures + dropped == issued) hold fleet-wide.
//
// Events for users on different shards proceed in parallel; the per-shard
// lock is held only for the engine event itself (microseconds), never for
// network I/O. thread_safe() is true: front ends drive sessions from many
// threads with no global engine lock.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine_options.hpp"
#include "core/persist.hpp"
#include "core/proxy.hpp"
#include "core/session.hpp"
#include "obs/metrics.hpp"

namespace appx::core {

class ShardedProxyEngine final : public ProxyLike {
 public:
  // `signatures` and `config` must outlive the engine; every shard borrows
  // them. options.shards == 0 picks hardware_concurrency (min 1). Throws on
  // invalid options.
  ShardedProxyEngine(const SignatureSet* signatures, const ProxyConfig* config,
                     EngineOptions options = {});

  // --- session API (thread-safe; see core/session.hpp) ----------------------

  UserId resolve_user(std::string_view user, SimTime now) override;
  void on_request(UserId& user, const http::Request& request, SimTime now,
                  Decision* out) override;
  void on_response(UserId& user, const http::Request& request, const http::Response& response,
                   SimTime now, Decision* out) override;
  void on_prefetch_response(UserId& user, const PrefetchJob& job,
                            const http::Response& response, SimTime now,
                            double response_time_ms, Decision* out) override;
  void on_prefetch_dropped(UserId& user, const PrefetchJob& job, SimTime now) override;
  void pump(UserId& user, SimTime now, Decision* out) override;
  bool thread_safe() const override { return true; }

  // --- durable learned state (DESIGN.md §5k) --------------------------------
  //
  // Sections, in this order: "users" (u32 count, then one `str name | u64
  // len | payload` entry per user — see ProxyEngine::persist_users), then
  // "policy.model" (the shared per-app value model), then
  // "scheduler.sig_stats/<i>" per shard. An export_user blob holds one
  // "user" section: a single entry in the same framing. User entries from
  // EVERY shard merge into the one "users" section and restore re-routes
  // each user by hash, so a snapshot taken under one shard layout restores
  // under another, and round-trips byte for byte through it.
  //
  // A restore or import that fails (SnapshotError) leaves none of the users
  // it created; users that already existed keep what was merged into them.
  static constexpr std::uint32_t kUsersSectionVersion = 1;
  void snapshot_to(SnapshotBuilder& builder) const override;
  std::size_t restore_from(const SnapshotView& view, SimTime now) override;
  std::vector<std::uint8_t> export_user(std::string_view user) const override;
  bool import_user(const std::vector<std::uint8_t>& blob, SimTime now) override;

  // --- introspection --------------------------------------------------------

  // Fleet-wide stats: every shard's instruments point into the shared
  // registry, so any shard's compatibility view reads the aggregated totals.
  const ProxyStats& stats() const override { return shards_.front()->engine->stats(); }
  obs::MetricsRegistry* metrics() override { return &registry_; }
  const obs::MetricsRegistry* metrics() const { return &registry_; }

  std::size_t shard_count() const { return shards_.size(); }
  // Direct access to one shard (tests, stats drill-down). NOT synchronised;
  // use only while no other thread drives the engine.
  ProxyEngine& shard(std::size_t i) { return *shards_[i]->engine; }
  const ProxyEngine& shard(std::size_t i) const { return *shards_[i]->engine; }
  // Which shard owns this user name.
  std::size_t shard_index_for(std::string_view user) const;

  // Users resident across all shards, read from the shared registry gauge
  // every shard maintains by delta (safe concurrently with engine events;
  // users_.size() of individual shards would race with their locks).
  std::size_t user_count() const;

  // Per-user drill-down, routed to the owning shard under its lock.
  const LearningEngine* learning_for(const std::string& user) const;
  const PrefetchCache* cache_for(const std::string& user) const;

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::unique_ptr<ProxyEngine> engine;
  };

  Shard& shard_for(const UserId& id) const;
  // Read one user entry and merge it into the owning shard; returns the name
  // when the entry created that user.
  std::optional<std::string> restore_entry(ByteReader& in, SimTime now);

  // Declared before shards_: shard engines and their per-user state hold
  // pointers into the registry and deposit gauge deltas on destruction.
  obs::MetricsRegistry registry_;
  // One per-app value model shared by all shards (internally synchronized):
  // a signature's worth is a property of the app's request graph, so
  // fleet-wide evidence pools here instead of each shard re-exploring it.
  // Declared before shards_: per-user cache destructors fire hooks into it.
  policy::SignatureModel sig_model_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace appx::core

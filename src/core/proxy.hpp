// The acceleration proxy engine (paper §4.5, Fig. 10) — one shard.
//
// Transport-agnostic: the engine consumes observed events (client request,
// origin response, prefetch response) with the session API's contracts (core/
// session.hpp) and fills Decisions (serve-from-cache or forward; prefetch jobs
// to issue). The simulator — or a real socket front end — owns the wire.
//
// Per-user isolation: prefetched responses and learned run-time state are
// never shared across users (paper §2/§5: "prefetched responses are not
// shared across users, and the prototype distinguishes users by IP").
//
// A ProxyEngine is one shard of a ShardedProxyEngine (core/sharded_proxy.hpp),
// the APPx engine that front ends host. Only ShardedProxyEngine constructs
// shards. It owns the metrics registry and the per-app value model that all
// shards share, serialises each shard's events behind that shard's mutex,
// and frames the shards' learned state into snapshot sections. User state
// lives in a slot table so a resolved UserId routes events in O(1); evicting
// a user recycles its slot under a bumped generation (see core/user_id.hpp).
#pragma once

#include <map>
#include <memory>
#include <set>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/cache.hpp"
#include "core/config.hpp"
#include "core/engine_options.hpp"
#include "core/learning.hpp"
#include "core/scheduler.hpp"
#include "core/session.hpp"
#include "core/signature.hpp"
#include "obs/metrics.hpp"
#include "policy/admission.hpp"
#include "policy/model.hpp"
#include "policy/pacer.hpp"
#include "util/byte_io.hpp"
#include "util/units.hpp"

namespace appx::core {

class ProxyEngine {
 public:
  // --- session API (core/session.hpp contracts; the caller serialises) ------

  UserId resolve_user(std::string_view user, SimTime now);
  void on_request(UserId& user, const http::Request& request, SimTime now, Decision* out);
  void on_response(UserId& user, const http::Request& request, const http::Response& response,
                   SimTime now, Decision* out);
  void on_prefetch_response(UserId& user, const PrefetchJob& job,
                            const http::Response& response, SimTime now,
                            double response_time_ms, Decision* out);
  void on_prefetch_dropped(UserId& user, const PrefetchJob& job, SimTime now);
  void pump(UserId& user, SimTime now, Decision* out);

  // --- durable learned state (DESIGN.md §5k) --------------------------------
  //
  // A user's entry payload: budget spend, then the resolved-wildcard and
  // dependency-flow facets, each framed with its own version and length.
  // ShardedProxyEngine frames the payloads into snapshot sections. Cache
  // bodies and scheduler queues are deliberately NOT persisted: a restart
  // comes back with a cold cache but warm models, and restored flow instances
  // re-issue their prefetches on the next relevant observation.

  // Calls visit(name, payload) for every resident user, in name order.
  template <typename Visit>
  void persist_users(Visit&& visit) const {
    for (const auto& [name, slot] : users_) {
      ByteWriter payload;
      persist_user(*slots_[slot].state, payload);
      visit(name, payload);
    }
  }
  // One user's payload; false (nothing written) when the user is not resident.
  bool persist_user(std::string_view user, ByteWriter& payload) const;
  // Merge a payload into the user's state, creating the user if needed;
  // returns whether it did. A payload that fails to decode throws and leaves
  // no user this call created.
  bool restore_user(std::string_view user, ByteReader& payload, SimTime now);
  // Drop a resident user's state (undoing a restore that created it).
  void forget_user(std::string_view user);
  // This shard's advisory per-signature priority stats.
  void persist_sig_stats(ByteWriter& out) const { sig_stats_.persist(out); }
  void restore_sig_stats(ByteReader& in, std::uint32_t version) {
    sig_stats_.restore(in, version);
  }

  // --- introspection --------------------------------------------------------

  // Compatibility snapshot of the shared metrics registry (fleet-wide, since
  // every shard contributes deltas). Repeated calls refresh the same object,
  // so a held reference stays valid and re-reads the registry on the next
  // stats() call.
  const ProxyStats& stats() const;
  const SignatureStats& signature_stats() const { return sig_stats_; }

  const EngineOptions& options() const { return options_; }
  // The signature set this engine matches against (not owned).
  const SignatureSet* signatures() const { return signatures_; }
  const DispatchCounters& dispatch_counters() const { return dispatch_; }
  const LearningEngine* learning_for(const std::string& user) const;
  const PrefetchCache* cache_for(const std::string& user) const;
  // Users resident in THIS shard. Fleet-wide counts come from the
  // appx_proxy_users registry gauge, which every shard maintains by delta.
  std::size_t user_count() const { return users_.size(); }

 private:
  friend class ShardedProxyEngine;
  // `signatures`, `config`, `registry` and `model` must outlive the shard;
  // `options` were validated by the owner. `registry` and `model` are shared
  // with the sibling shards: metric updates are deltas, so contributions
  // aggregate, and signature evidence pools fleet-wide. `shard_index` is
  // stamped into the UserIds this shard mints.
  ProxyEngine(const SignatureSet* signatures, const ProxyConfig* config, EngineOptions options,
              obs::MetricsRegistry& registry, std::uint32_t shard_index,
              policy::SignatureModel& model);

  struct UserState {
    UserState(const SignatureSet* signatures, const ProxyConfig& config,
              const EngineOptions& options, DispatchCounters* dispatch)
        : learning(signatures, &config.host_apps, dispatch),
          pacer(policy::BudgetPacer::Options{
              options.policy.enabled ? config.data_budget.value_or(0) : 0,
              options.policy.budget_window, options.policy.hit_byte_refund}),
          cache(PrefetchCache::Limits{options.cache_max_entries, options.cache_max_bytes}),
          scheduler(PrefetchScheduler::Weights{options.scheduler_time_weight,
                                               options.scheduler_hit_weight},
                    options.max_outstanding_prefetches, options.max_queued_prefetches) {}
    UserId id;  // the handle minted for this user (name, shard, slot, gen)
    LearningEngine learning;
    // Declared before the cache: its usage hooks may refund the pacer, and
    // the `wasted` hook fires from the cache destructor.
    policy::BudgetPacer pacer;
    PrefetchCache cache;
    PrefetchScheduler scheduler;
    SimTime last_active = 0;        // for idle-user eviction
    Bytes prefetch_bytes_used = 0;  // against config.data_budget
    std::set<std::string> inflight;  // cache keys with an outstanding prefetch
    // Cache keys of client requests currently being forwarded: prefetching
    // these would duplicate bytes already on their way to the proxy.
    std::set<std::string> forwarding;
    // Cache keys already prefetched since the user's last client request.
    // Anti-thrash guard for the bounded cache: once eviction can remove a
    // freshly prefetched entry, chained learning would otherwise re-admit it
    // at once, and a cyclic dependency graph would prefetch forever. One
    // attempt per key per client "generation" keeps every chain finite.
    std::set<std::string> prefetched_generation;
  };

  // Slot table: UserIds index into it directly; the generation distinguishes
  // the current occupant from stale handles to an evicted predecessor.
  struct Slot {
    std::uint32_t generation = 0;
    std::unique_ptr<UserState> state;
  };

  // State for a resolved id, touching last_active. Re-interns (and updates
  // `id`) when the user was evicted since the id was minted.
  UserState& state_for(UserId& id, SimTime now);
  // App owning a signature (for the per-app value model); empty if unknown.
  std::string_view app_of(std::string_view sig_id) const;
  void persist_user(const UserState& state, ByteWriter& payload) const;
  void release_slot(std::uint32_t slot);
  void evict_idle_users(SimTime now, std::uint32_t keep_slot);
  void admit_prefetches(UserState& state, std::vector<ReadyPrefetch> ready, SimTime now);
  // Move issuable jobs off the scheduler onto the Decision, stamping identity.
  void drain_scheduler(UserState& state, Decision* out);

  // Registry metrics resolved once at construction; hot paths bump these
  // pointers and never touch the registry lock. All updates are increments /
  // deltas so shards sharing one registry aggregate instead of clobbering.
  struct Instruments {
    obs::Counter* client_requests = nullptr;
    obs::Counter* cache_hits = nullptr;
    obs::Counter* cache_expired = nullptr;
    obs::Counter* forwarded = nullptr;
    obs::Counter* prefetches_issued = nullptr;
    obs::Counter* prefetch_responses = nullptr;
    obs::Counter* prefetch_failures = nullptr;
    obs::Counter* skipped_disabled = nullptr;
    obs::Counter* skipped_probability = nullptr;
    obs::Counter* skipped_condition = nullptr;
    obs::Counter* skipped_budget = nullptr;
    obs::Counter* skipped_duplicate = nullptr;
    obs::Counter* skipped_refetch = nullptr;
    obs::Counter* skipped_queue_full = nullptr;
    obs::Counter* policy_admitted = nullptr;
    obs::Counter* policy_rejected_value = nullptr;
    obs::Counter* policy_rejected_budget = nullptr;
    obs::Counter* wasted_entries = nullptr;
    obs::Counter* wasted_bytes = nullptr;
    obs::Counter* forward_cached = nullptr;
    obs::Counter* prefetches_dropped = nullptr;
    obs::Counter* evicted_lru = nullptr;
    obs::Counter* evicted_expired = nullptr;
    obs::Counter* users_evicted = nullptr;
    obs::Counter* bytes_origin_to_proxy = nullptr;
    obs::Counter* bytes_prefetched = nullptr;
    obs::Counter* bytes_served_from_cache = nullptr;
    obs::Gauge* cache_entries = nullptr;
    obs::Gauge* cache_bytes = nullptr;
    obs::Gauge* users = nullptr;
    obs::Gauge* prefetch_queued = nullptr;
    obs::Gauge* prefetch_outstanding = nullptr;
    // Admission threshold in micro-units (gauges are integral): the exported
    // value is threshold(ms saved per KB) × 1e6.
    obs::Gauge* policy_threshold = nullptr;
    obs::Histogram* prefetch_response_time_us = nullptr;
  };

  const SignatureSet* signatures_;
  const ProxyConfig* config_;
  EngineOptions options_;
  // This engine's signature lookups (the set itself may be shared by shards).
  DispatchCounters dispatch_;
  std::vector<std::string> ignored_headers_;  // config add_header names
  // Reused cache-key buffer (DESIGN.md §5h): engine events are serialized
  // per shard (the shard's mutex), so the hit path renders its lookup key
  // without allocating.
  std::string key_scratch_;
  std::uint32_t shard_index_ = 0;
  std::uint64_t seed_;
  // Cost-aware policy state (DESIGN.md §5j), keyed per app and shared with
  // the sibling shards.
  policy::SignatureModel& sig_model_;
  policy::AdmissionController admission_;
  Instruments inst_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::map<std::string, std::uint32_t, std::less<>> users_;  // name -> slot
  SignatureStats sig_stats_;
  mutable ProxyStats stats_view_;
};

}  // namespace appx::core

// Tests for the sharded runtime: multi-threaded shard parallelism vs a
// single-shard reference, seed-fixed determinism, the fleet-wide metrics
// balance invariant, UserId interning/generation semantics, and
// EngineOptions validation. Run under ASan and TSan in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/engine_options.hpp"
#include "core/proxy.hpp"
#include "core/session.hpp"
#include "core/sharded_proxy.hpp"
#include "wish_fixture.hpp"

namespace appx::core {
namespace {

using testfix::make_feed_request;
using testfix::make_feed_response;
using testfix::make_product_request;
using testfix::make_product_response;
using testfix::make_wish_set;

// Answer every surfaced prefetch job from a canned origin, chaining through
// the Decisions the completions produce, until the engine goes quiet.
void resolve_prefetches(ProxyLike& engine, std::vector<PrefetchJob> jobs, SimTime now) {
  while (!jobs.empty()) {
    std::vector<PrefetchJob> next;
    for (PrefetchJob& job : jobs) {
      http::Response resp;
      if (job.request.uri.path == "/product/get") {
        const auto fields = job.request.form_fields();
        resp = make_product_response("m_" + fields[0].second, 1500);
      } else if (job.request.uri.path == "/img") {
        resp.opaque_payload = kilobytes(300);
      } else {
        resp.body = "{}";
      }
      Decision chained;
      engine.on_prefetch_response(job.uid, job, resp, now, 100.0, &chained);
      for (PrefetchJob& j : chained.prefetches) next.push_back(std::move(j));
    }
    jobs = std::move(next);
  }
}

// The canonical wish workload for one user: feed -> product(a) teaches the
// run-time values and fans out sibling prefetches -> product(b)/product(c)
// should come back from the cache. Returns the number of cache hits seen.
std::size_t drive_user(ProxyLike& engine, const std::string& user) {
  Session session = engine.session(user, 0);
  std::size_t hits = 0;

  Decision feed = session.on_request(make_feed_request(), 0);
  EXPECT_EQ(feed.served, nullptr);
  Decision learned = session.on_response(make_feed_request(), make_feed_response({"a", "b", "c"}), 0);
  resolve_prefetches(engine, std::move(learned.prefetches), 0);

  Decision first = session.on_request(make_product_request("a"), 1);
  EXPECT_EQ(first.served, nullptr) << "run-time values unknown before the first product";
  Decision taught = session.on_response(make_product_request("a"), make_product_response("m", 1), 1);
  resolve_prefetches(engine, std::move(taught.prefetches), 1);

  for (const std::string cid : {"b", "c"}) {
    Decision d = session.on_request(make_product_request(cid), 2);
    if (d.served != nullptr) ++hits;
    resolve_prefetches(engine, std::move(d.prefetches), 2);
  }
  return hits;
}

TEST(ShardedProxy, UsersLandOnStableShards) {
  const SignatureSet set = make_wish_set();
  ProxyConfig config;
  EngineOptions options;
  options.shards = 4;
  ShardedProxyEngine engine(&set, &config, options);
  ASSERT_EQ(engine.shard_count(), 4u);

  for (int i = 0; i < 32; ++i) {
    const std::string user = "user" + std::to_string(i);
    const UserId id = engine.resolve_user(user, 0);
    EXPECT_TRUE(id.valid());
    EXPECT_EQ(id.shard(), engine.shard_index_for(user));
    EXPECT_EQ(id.name(), user);
    // Resolving again returns the same identity (same slot, same generation).
    const UserId again = engine.resolve_user(user, 0);
    EXPECT_EQ(again.shard(), id.shard());
    EXPECT_EQ(again.slot(), id.slot());
    EXPECT_EQ(again.generation(), id.generation());
  }
  EXPECT_EQ(engine.user_count(), 32u);
}

TEST(ShardedProxy, MultiThreadedDisjointUsersMatchSingleShardRun) {
  const SignatureSet set = make_wish_set();
  ProxyConfig config;
  config.default_expiration = seconds(3600);

  constexpr int kThreads = 8;
  constexpr int kUsersPerThread = 4;

  // Sharded engine driven by K threads over disjoint users: no external
  // locking — the shards synchronise themselves.
  EngineOptions options;
  options.shards = 4;
  options.seed = 11;
  ShardedProxyEngine sharded(&set, &config, options);
  ASSERT_TRUE(sharded.thread_safe());

  std::atomic<std::size_t> total_hits{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int u = 0; u < kUsersPerThread; ++u) {
        const std::string user = "user" + std::to_string(t) + "_" + std::to_string(u);
        total_hits += drive_user(sharded, user);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Reference: one single-shard engine, same workload, single-threaded.
  // Per-user isolation means every user's end state must be identical.
  ProxyEngine reference(&set, &config, 11);
  std::size_t reference_hits = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (int u = 0; u < kUsersPerThread; ++u) {
      reference_hits += drive_user(reference, "user" + std::to_string(t) + "_" + std::to_string(u));
    }
  }

  EXPECT_EQ(total_hits.load(), reference_hits);
  EXPECT_EQ(total_hits.load(),
            static_cast<std::size_t>(2 * kThreads * kUsersPerThread))
      << "both sibling products must be served from the prefetch cache";
  EXPECT_EQ(sharded.user_count(), static_cast<std::size_t>(kThreads * kUsersPerThread));
  EXPECT_EQ(sharded.user_count(), reference.user_count());

  // Per-user cache state is identical between the parallel sharded run and
  // the serial single-shard run.
  for (int t = 0; t < kThreads; ++t) {
    for (int u = 0; u < kUsersPerThread; ++u) {
      const std::string user = "user" + std::to_string(t) + "_" + std::to_string(u);
      const PrefetchCache* sharded_cache = sharded.cache_for(user);
      const PrefetchCache* reference_cache = reference.cache_for(user);
      ASSERT_NE(sharded_cache, nullptr) << user;
      ASSERT_NE(reference_cache, nullptr) << user;
      EXPECT_EQ(sharded_cache->size(), reference_cache->size()) << user;
      EXPECT_EQ(sharded_cache->bytes(), reference_cache->bytes()) << user;
      EXPECT_NE(sharded.learning_for(user), nullptr) << user;
    }
  }

  // Fleet-wide totals match the serial run.
  const ProxyStats& sharded_stats = sharded.stats();
  const ProxyStats& reference_stats = reference.stats();
  EXPECT_EQ(sharded_stats.client_requests, reference_stats.client_requests);
  EXPECT_EQ(sharded_stats.cache_hits, reference_stats.cache_hits);
  EXPECT_EQ(sharded_stats.prefetches_issued, reference_stats.prefetches_issued);
  EXPECT_EQ(sharded_stats.prefetch_responses, reference_stats.prefetch_responses);
}

TEST(ShardedProxy, ShardsShareOneSignatureSet) {
  const SignatureSet set = make_wish_set();
  ProxyConfig config;
  EngineOptions options;
  options.shards = 4;
  ShardedProxyEngine engine(&set, &config, options);
  ASSERT_EQ(engine.shard_count(), 4u);
  for (std::size_t i = 0; i < engine.shard_count(); ++i) {
    EXPECT_EQ(engine.shard(i).signatures(), &set) << "shard " << i << " matches against a copy";
  }
}

TEST(SharedSignatureSet, ConcurrentMatchesAgreeWithSingleThread) {
  // One set, matched from several threads at once with no lock. The feed
  // signature's offset and count holes have shapes other than ".*" ((0|-1)
  // and (30|1)), so matches run their compiled DFAs.
  const SignatureSet shared = make_wish_set();
  std::vector<http::Request> requests;
  const auto feed_with = [](const char* name, const char* value) {
    http::Request req = make_feed_request();
    req.uri.set_query_param(name, value);
    return req;
  };
  requests.push_back(make_feed_request());
  requests.push_back(feed_with("offset", "-1"));
  requests.push_back(feed_with("offset", "7"));   // violates (0|-1)
  requests.push_back(feed_with("count", "1"));
  requests.push_back(feed_with("count", "300"));  // violates (30|1)
  requests.push_back(make_product_request("a"));
  requests.push_back(make_product_request("b", /*with_credit=*/true));
  http::Request unknown = make_feed_request();
  unknown.uri.path = "/api/get-feed2";
  requests.push_back(unknown);

  // Reference: a separate copy of the set, matched on this thread alone.
  const SignatureSet reference = SignatureSet::deserialize(shared.serialize());
  std::vector<std::string> expected_ids;
  std::vector<Bindings> expected_bindings;
  for (const http::Request& req : requests) {
    const TransactionSignature* sig = reference.match_request(req);
    expected_ids.push_back(sig != nullptr ? sig->id : "");
    expected_bindings.push_back(sig != nullptr ? *sig->match(req) : Bindings{});
  }
  ASSERT_EQ(expected_ids[0], shared.find_by_label("wish.feed")->id);
  ASSERT_EQ(expected_ids[2], "") << "the (0|-1) shape must reject offset=7";
  ASSERT_EQ(expected_ids[4], "") << "the (30|1) shape must reject count=300";

  constexpr int kThreads = 4;
  constexpr int kRounds = 300;
  DispatchCounters counters[kThreads];
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < requests.size(); ++i) {
          const std::size_t idx = (i + static_cast<std::size_t>(t + round)) % requests.size();
          const TransactionSignature* sig = shared.match_request(requests[idx], "", &counters[t]);
          const std::string id = sig != nullptr ? sig->id : "";
          if (id != expected_ids[idx]) ++mismatches;
          if (sig != nullptr && *sig->match(requests[idx]) != expected_bindings[idx]) ++mismatches;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  for (const DispatchCounters& c : counters) {
    EXPECT_EQ(c.lookups.load(), static_cast<std::int64_t>(kRounds * requests.size()));
  }
}

TEST(ShardedProxy, BalanceInvariantHoldsAcrossShardsUnderFailuresAndDrops) {
  const SignatureSet set = make_wish_set();
  ProxyConfig config;
  EngineOptions options;
  options.shards = 3;
  ShardedProxyEngine engine(&set, &config, options);

  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string user = "bal" + std::to_string(t);
      Session session = engine.session(user, 0);
      session.on_request(make_feed_request(), 0);
      Decision learned =
          session.on_response(make_feed_request(), make_feed_response({"a", "b", "c", "d"}), 0);
      session.on_request(make_product_request("a"), 1);
      Decision taught =
          session.on_response(make_product_request("a"), make_product_response("m", 1), 1);
      std::vector<PrefetchJob> jobs = std::move(learned.prefetches);
      for (PrefetchJob& j : taught.prefetches) jobs.push_back(std::move(j));
      // Resolve each issued job exactly once, mixing all three outcomes.
      std::size_t n = 0;
      while (!jobs.empty()) {
        std::vector<PrefetchJob> next;
        for (PrefetchJob& job : jobs) {
          Decision chained;
          switch (n++ % 3) {
            case 0: {  // success
              http::Response ok = make_product_response("m_x", 9);
              engine.on_prefetch_response(job.uid, job, ok, 2, 50.0, &chained);
              break;
            }
            case 1: {  // failure (non-2xx)
              http::Response fail;
              fail.status = 503;
              engine.on_prefetch_response(job.uid, job, fail, 2, 50.0, &chained);
              break;
            }
            default: {  // dropped; the freed window slot may surface more jobs
              engine.on_prefetch_dropped(job.uid, job, 2);
              engine.pump(job.uid, 2, &chained);
              break;
            }
          }
          for (PrefetchJob& j : chained.prefetches) next.push_back(std::move(j));
        }
        jobs = std::move(next);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const ProxyStats& stats = engine.stats();
  EXPECT_GT(stats.prefetches_issued, 0u);
  EXPECT_GT(stats.prefetch_failures, 0u);
  EXPECT_GT(stats.prefetches_dropped, 0u);
  // Every issued job resolved exactly once — fleet-wide, counted in the one
  // shared registry all shards contribute deltas to.
  EXPECT_EQ(stats.prefetch_responses + stats.prefetch_failures + stats.prefetches_dropped,
            stats.prefetches_issued);
  const obs::MetricsRegistry* registry = engine.metrics();
  ASSERT_NE(registry, nullptr);
  EXPECT_EQ(registry->counter_value("appx_prefetch_responses_total") +
                registry->counter_value("appx_prefetch_failures_total") +
                registry->counter_value("appx_prefetch_dropped_total"),
            registry->counter_value("appx_prefetch_issued_total"));
}

TEST(ShardedProxy, SeedFixedRunsAreReproduciblePerShard) {
  const SignatureSet set = make_wish_set();
  ProxyConfig config;
  // Make the probability coin matter: issued counts now depend on the
  // per-shard seed streams, which must be derived deterministically.
  config.global_probability = 0.5;

  const auto run = [&](std::uint64_t seed) {
    EngineOptions options;
    options.shards = 4;
    options.seed = seed;
    ShardedProxyEngine engine(&set, &config, options);
    for (int i = 0; i < 12; ++i) drive_user(engine, "det" + std::to_string(i));
    std::map<std::string, std::size_t> cache_sizes;
    for (int i = 0; i < 12; ++i) {
      const std::string user = "det" + std::to_string(i);
      const PrefetchCache* cache = engine.cache_for(user);
      cache_sizes[user] = cache == nullptr ? 0 : cache->size();
    }
    const ProxyStats& stats = engine.stats();
    return std::make_tuple(stats.prefetches_issued, stats.cache_hits,
                           stats.skipped_probability, cache_sizes);
  };

  const auto first = run(99);
  const auto second = run(99);
  EXPECT_EQ(first, second) << "same seed, same shard layout -> identical outcomes";
  // The coin was actually exercised (otherwise this test proves nothing).
  EXPECT_GT(std::get<2>(first), 0u);
}

TEST(ShardedProxy, StaleUserIdIsTransparentlyReinterned) {
  const SignatureSet set = make_wish_set();
  ProxyConfig config;
  config.user_idle_timeout = seconds(30);
  EngineOptions options = EngineOptions::from_config(config);
  options.shards = 2;
  ShardedProxyEngine engine(&set, &config, options);

  UserId stale = engine.resolve_user("sleeper", 0);
  const std::uint32_t old_generation = stale.generation();
  // Another user on the SAME shard arrives much later; the idle sweep evicts
  // "sleeper" and recycles its slot under a bumped generation.
  const std::size_t shard = engine.shard_index_for("sleeper");
  std::string neighbour;
  for (int i = 0;; ++i) {
    neighbour = "n" + std::to_string(i);
    if (engine.shard_index_for(neighbour) == shard && neighbour != "sleeper") break;
  }
  engine.resolve_user(neighbour, minutes(10));

  // Driving an event with the stale handle must not throw and must update
  // the handle in place to the re-interned identity.
  Decision d;
  engine.on_request(stale, make_feed_request(), minutes(10) + 1, &d);
  EXPECT_TRUE(stale.valid());
  EXPECT_EQ(stale.name(), "sleeper");
  EXPECT_EQ(stale.shard(), shard);
  EXPECT_NE(engine.cache_for("sleeper"), nullptr);
  // Either the slot was recycled (generation bump) or a fresh slot was used;
  // both are fine as long as events route to live state.
  EXPECT_TRUE(stale.generation() != old_generation || stale.slot() != 0 ||
              engine.user_count() >= 1);
}

TEST(ShardedProxy, InvalidUserIdIsRejected) {
  const SignatureSet set = make_wish_set();
  ProxyConfig config;
  EngineOptions options;
  options.shards = 2;
  ShardedProxyEngine engine(&set, &config, options);
  UserId unresolved;
  Decision d;
  EXPECT_THROW(engine.on_request(unresolved, make_feed_request(), 0, &d), InvalidArgumentError);
}

// --- EngineOptions::validate ------------------------------------------------

TEST(EngineOptions, DefaultsValidate) {
  const EngineOptions options;
  const util::Error error = options.validate();
  EXPECT_TRUE(error.ok()) << error.message();
}

TEST(EngineOptions, ValidateNamesTheBadField) {
  const auto expect_rejects = [](EngineOptions options, const std::string& field) {
    const util::Error error = options.validate();
    ASSERT_FALSE(error.ok()) << "expected rejection for " << field;
    EXPECT_NE(error.message().find(field), std::string::npos) << error.message();
  };

  EngineOptions zero_window;
  zero_window.max_outstanding_prefetches = 0;
  expect_rejects(zero_window, "max_outstanding_prefetches");

  EngineOptions bad_idle;
  bad_idle.user_idle_timeout = Duration{0};
  expect_rejects(bad_idle, "user_idle_timeout");

  EngineOptions nan_weight;
  nan_weight.scheduler_time_weight = std::nan("");
  expect_rejects(nan_weight, "scheduler_time_weight");

  EngineOptions negative_weight;
  negative_weight.scheduler_hit_weight = -1.0;
  expect_rejects(negative_weight, "scheduler_hit_weight");

  EngineOptions negative_timeout;
  negative_timeout.request_deadline = -seconds(1);
  expect_rejects(negative_timeout, "request_deadline");

  // Nothing else bounds a hung origin exchange.
  EngineOptions zero_deadline;
  zero_deadline.request_deadline = Duration{0};
  expect_rejects(zero_deadline, "request_deadline");

  EngineOptions negative_backlog;
  negative_backlog.listen_backlog = -1;
  expect_rejects(negative_backlog, "listen_backlog");

  EngineOptions zero_head;
  zero_head.reader_limits.max_head_bytes = 0;
  expect_rejects(zero_head, "max_head_bytes");

  EngineOptions zero_trace;
  zero_trace.trace_ring_capacity = 0;
  expect_rejects(zero_trace, "trace_ring_capacity");

  EngineOptions bad_snapshot;
  bad_snapshot.metrics_snapshot_path = "/tmp/snap.json";
  bad_snapshot.metrics_snapshot_interval = 0;
  expect_rejects(bad_snapshot, "metrics_snapshot_interval");
}

TEST(EngineOptions, EnginesRejectInvalidOptionsAtConstruction) {
  const SignatureSet set = make_wish_set();
  ProxyConfig config;
  EngineOptions bad;
  bad.max_outstanding_prefetches = 0;
  EXPECT_THROW(ProxyEngine(&set, &config, bad), InvalidArgumentError);
  EXPECT_THROW(ShardedProxyEngine(&set, &config, bad), InvalidArgumentError);
}

TEST(EngineOptions, FromConfigSnapshotsRuntimeCaps) {
  ProxyConfig config;
  config.max_outstanding_prefetches = 7;
  config.cache_max_entries = 11;
  config.cache_max_bytes = 1234;
  config.max_users = 5;
  config.user_idle_timeout = seconds(42);
  config.scheduler_time_weight = 2.0;
  config.scheduler_hit_weight = 3.0;
  const EngineOptions options = EngineOptions::from_config(config);
  EXPECT_EQ(options.max_outstanding_prefetches, 7u);
  EXPECT_EQ(options.cache_max_entries, 11u);
  EXPECT_EQ(options.cache_max_bytes, 1234);
  EXPECT_EQ(options.max_users, 5u);
  EXPECT_EQ(options.user_idle_timeout, seconds(42));
  EXPECT_DOUBLE_EQ(options.scheduler_time_weight, 2.0);
  EXPECT_DOUBLE_EQ(options.scheduler_hit_weight, 3.0);
}

}  // namespace
}  // namespace appx::core

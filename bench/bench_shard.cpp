// Sharded-runtime microbenchmark (google-benchmark): engine-event throughput
// of the single-mutex runtime (a one-shard ShardedProxyEngine behind one
// external lock — the pre-sharding LiveProxyServer arrangement) vs an
// eight-shard ShardedProxyEngine, where each user's events take only the
// owning shard's lock.
//
// The measured event is a warm cache-hit on_request: a full engine event
// (cache lookup, per-signature hit-rate accounting, metrics, Decision
// hand-off) with a critical section of a few hundred nanoseconds — the
// regime where one global mutex serialises everything and the per-shard
// locks stay uncontended. One user per benchmark thread, users pinned to
// distinct shards.
#include <benchmark/benchmark.h>

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/engine_options.hpp"
#include "core/session.hpp"
#include "core/sharded_proxy.hpp"
#include "../tests/wish_fixture.hpp"

namespace {

using namespace appx;
using testfix::make_feed_request;
using testfix::make_feed_response;
using testfix::make_product_request;
using testfix::make_product_response;
using testfix::make_wish_set;

constexpr int kMaxThreads = 8;
// Resident background users, as on a loaded proxy: string-keyed routing pays
// its map lookups against this population on every event, UserId routing
// does not.
constexpr int kBackgroundUsers = 4096;

// Resolve every surfaced prefetch job from a canned origin so the user's
// cache ends up warm (products "b" and "c" resident).
void resolve_prefetches(core::ProxyLike& engine, std::vector<core::PrefetchJob> jobs) {
  while (!jobs.empty()) {
    std::vector<core::PrefetchJob> next;
    for (core::PrefetchJob& job : jobs) {
      http::Response resp;
      if (job.request.uri.path == "/product/get") {
        resp = make_product_response("m", 1500);
      } else if (job.request.uri.path == "/img") {
        resp.opaque_payload = kilobytes(300);
      } else {
        resp.body = "{}";
      }
      core::Decision chained;
      engine.on_prefetch_response(job.uid, job, resp, 0, 100.0, &chained);
      for (core::PrefetchJob& j : chained.prefetches) next.push_back(std::move(j));
    }
    jobs = std::move(next);
  }
}

void warm_user(core::ProxyLike& engine, const std::string& user) {
  core::Session session = engine.session(user, 0);
  session.on_request(make_feed_request(), 0);
  resolve_prefetches(engine,
                     session.on_response(make_feed_request(), make_feed_response({"a", "b", "c"}), 0)
                         .prefetches);
  session.on_request(make_product_request("a"), 0);
  resolve_prefetches(
      engine,
      session.on_response(make_product_request("a"), make_product_response("m", 1), 0).prefetches);
}

// --- single-mutex runtime ---------------------------------------------------

struct SingleMutexRuntime {
  core::SignatureSet set = make_wish_set();
  core::ProxyConfig config;
  std::mutex mutex;  // the one global engine lock
  std::unique_ptr<core::ShardedProxyEngine> engine;
  std::vector<std::string> users;

  SingleMutexRuntime() {
    config.default_expiration = minutes(30);
    config.max_users = kBackgroundUsers + kMaxThreads + 1;
    engine = std::make_unique<core::ShardedProxyEngine>(&set, &config,
                                                        testfix::one_shard(config, 7));
    for (int t = 0; t < kMaxThreads; ++t) {
      users.push_back("u" + std::to_string(t));
      warm_user(*engine, users.back());
    }
    for (int i = 0; i < kBackgroundUsers; ++i) {
      engine->resolve_user("resident-user-" + std::to_string(i), 0);
    }
  }
};

void BM_EngineEventSingleMutex(benchmark::State& state) {
  static SingleMutexRuntime* rt = new SingleMutexRuntime();
  core::Session session;
  {
    std::lock_guard<std::mutex> lock(rt->mutex);
    session = rt->engine->session(rt->users[state.thread_index()], 1);
  }
  const http::Request request = make_product_request("b");
  for (auto _ : state) {
    std::lock_guard<std::mutex> lock(rt->mutex);
    core::Decision d = session.on_request(request, 1);
    benchmark::DoNotOptimize(d.served);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineEventSingleMutex)->Threads(1)->UseRealTime();
BENCHMARK(BM_EngineEventSingleMutex)->Threads(kMaxThreads)->UseRealTime();

// --- sharded runtime --------------------------------------------------------

struct ShardedRuntime {
  core::SignatureSet set = make_wish_set();
  core::ProxyConfig config;
  std::unique_ptr<core::ShardedProxyEngine> engine;
  std::vector<std::string> users;  // users[t] lands on shard t

  ShardedRuntime() {
    config.default_expiration = minutes(30);
    core::EngineOptions options;
    options.shards = kMaxThreads;
    options.seed = 7;
    options.max_users = kBackgroundUsers + kMaxThreads + 1;
    engine = std::make_unique<core::ShardedProxyEngine>(&set, &config, options);
    for (int i = 0; i < kBackgroundUsers; ++i) {
      engine->resolve_user("resident-user-" + std::to_string(i), 0);
    }
    for (int t = 0; t < kMaxThreads; ++t) {
      std::string name;
      for (int i = 0;; ++i) {
        name = "u" + std::to_string(t) + "_" + std::to_string(i);
        if (engine->shard_index_for(name) == static_cast<std::size_t>(t)) break;
      }
      users.push_back(name);
      warm_user(*engine, name);
    }
  }
};

void BM_EngineEventSharded(benchmark::State& state) {
  static ShardedRuntime* rt = new ShardedRuntime();
  // thread_safe() engine: no external lock, the shard lock inside the event
  // is the only synchronisation.
  core::Session session = rt->engine->session(rt->users[state.thread_index()], 1);
  const http::Request request = make_product_request("b");
  for (auto _ : state) {
    core::Decision d = session.on_request(request, 1);
    benchmark::DoNotOptimize(d.served);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineEventSharded)->Threads(1)->UseRealTime();
BENCHMARK(BM_EngineEventSharded)->Threads(kMaxThreads)->UseRealTime();

// --- runtime dispatch overhead ----------------------------------------------
//
// Isolates the cost the sharding redesign removes from every event: the
// global contended mutex plus string-keyed user routing of the legacy API,
// vs an uncontended shard lock plus O(1) UserId slot routing. The engine
// work itself (matching, cache, learning) is identical code either way, so
// this pair — an empty-scheduler pump, the cheapest event — is the pure
// runtime overhead per event. On a single-core host the full-event pair
// above shows parity (the event body dominates and there is no parallelism
// to reclaim); this pair and multi-core hosts show the redesign's gain.

void BM_EventDispatchSingleMutex(benchmark::State& state) {
  static SingleMutexRuntime* rt = new SingleMutexRuntime();
  const std::string& user = rt->users[state.thread_index()];
  for (auto _ : state) {
    std::lock_guard<std::mutex> lock(rt->mutex);
    // Legacy call pattern: resolve the user by name, surface pending jobs.
    core::UserId id = rt->engine->resolve_user(user, 1);
    core::Decision out;
    rt->engine->pump(id, 1, &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventDispatchSingleMutex)->Threads(1)->UseRealTime();
BENCHMARK(BM_EventDispatchSingleMutex)->Threads(kMaxThreads)->UseRealTime();

void BM_EventDispatchSharded(benchmark::State& state) {
  static ShardedRuntime* rt = new ShardedRuntime();
  core::Session session = rt->engine->session(rt->users[state.thread_index()], 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.take_prefetches(1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventDispatchSharded)->Threads(1)->UseRealTime();
BENCHMARK(BM_EventDispatchSharded)->Threads(kMaxThreads)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();

// `livebench proxy`: the system under test, configured as deployed.
//
// ShardedProxyEngine behind LiveProxyServer, built from the app's analysis,
// eval::deployment_config and EngineOptions::from_config with the cost-aware
// policy on at its defaults (as `appx gen-config` deploys it). Only
// deployment settings are set here: seed, descriptor floor, client idle
// timeout and the upstream map. With --trace 1 the engine is wrapped in a
// core::ProxyLike decorator that times every engine call from outside and
// writes the records to --spans at exit.
//
//   livebench proxy --app wish --seed S --origin-port P [--trace 0|1 --spans F]
//
// Prints "READY <port> <analysis_ms> <serve_ms>" once listening; serves until
// stdin reaches EOF, then prints one JSON line read from the engine's metrics
// registry.
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "core/engine_options.hpp"
#include "core/sharded_proxy.hpp"
#include "eval/experiments.hpp"
#include "net/servers.hpp"
#include "obs/metrics.hpp"

namespace livebench {

using namespace appx;

namespace {

// One timed engine call. kind: R on_request, S on_response, P
// on_prefetch_response, D on_prefetch_dropped, U pump.
//   R: a = served from cache, b = jobs emitted
//   S: a = origin status,     b = jobs emitted
//   P: a = response_time_ms in µs, b = jobs emitted, c = when the job was
//      emitted (exit of the parent call); parent = id of that call
struct Row {
  char kind;
  std::uint64_t id;
  std::uint64_t parent;
  std::string user;
  std::int64_t t0, t1;
  std::int64_t a = 0, b = 0, c = 0;
};

// Times every call into the wrapped engine and links each prefetch response
// to the call whose Decision emitted its job. Rows go to per-thread buffers
// (one TracingEngine per process: the buffer pointer is thread_local);
// nothing is written until exit.
class TracingEngine final : public core::ProxyLike {
 public:
  explicit TracingEngine(core::ProxyLike* inner) : inner_(inner) {}

  core::UserId resolve_user(std::string_view user, SimTime now) override {
    return inner_->resolve_user(user, now);
  }
  void on_request(core::UserId& user, const http::Request& request, SimTime now,
                  core::Decision* out) override {
    const std::size_t before = out->prefetches.size();
    const std::int64_t t0 = mono_us();
    inner_->on_request(user, request, now, out);
    const std::int64_t t1 = mono_us();
    const std::uint64_t id = next_id();
    note_jobs(*out, before, id, t1);
    push({'R', id, 0, user.name(), t0, t1, out->served ? 1 : 0,
          static_cast<std::int64_t>(out->prefetches.size() - before)});
  }
  void on_response(core::UserId& user, const http::Request& request,
                   const http::Response& response, SimTime now, core::Decision* out) override {
    const std::size_t before = out->prefetches.size();
    const std::int64_t t0 = mono_us();
    inner_->on_response(user, request, response, now, out);
    const std::int64_t t1 = mono_us();
    const std::uint64_t id = next_id();
    note_jobs(*out, before, id, t1);
    push({'S', id, 0, user.name(), t0, t1, response.status,
          static_cast<std::int64_t>(out->prefetches.size() - before)});
  }
  void on_prefetch_response(core::UserId& user, const core::PrefetchJob& job,
                            const http::Response& response, SimTime now, double response_time_ms,
                            core::Decision* out) override {
    const Emitted origin = take_job(job);
    const std::size_t before = out->prefetches.size();
    const std::int64_t t0 = mono_us();
    inner_->on_prefetch_response(user, job, response, now, response_time_ms, out);
    const std::int64_t t1 = mono_us();
    const std::uint64_t id = next_id();
    note_jobs(*out, before, id, t1);
    push({'P', id, origin.parent, user.name(), t0, t1,
          static_cast<std::int64_t>(response_time_ms * 1000.0),
          static_cast<std::int64_t>(out->prefetches.size() - before), origin.at});
  }
  void on_prefetch_dropped(core::UserId& user, const core::PrefetchJob& job,
                           SimTime now) override {
    const Emitted origin = take_job(job);
    const std::int64_t t0 = mono_us();
    inner_->on_prefetch_dropped(user, job, now);
    push({'D', next_id(), origin.parent, user.name(), t0, mono_us()});
  }
  void pump(core::UserId& user, SimTime now, core::Decision* out) override {
    const std::size_t before = out->prefetches.size();
    const std::int64_t t0 = mono_us();
    inner_->pump(user, now, out);
    const std::int64_t t1 = mono_us();
    const std::uint64_t id = next_id();
    note_jobs(*out, before, id, t1);
    push({'U', id, 0, user.name(), t0, t1, 0,
          static_cast<std::int64_t>(out->prefetches.size() - before)});
  }
  bool thread_safe() const override { return inner_->thread_safe(); }
  const core::ProxyStats& stats() const override { return inner_->stats(); }
  obs::MetricsRegistry* metrics() override { return inner_->metrics(); }

  void write(const std::string& path) {
    std::ofstream out(path);
    const std::lock_guard<std::mutex> lock(buffers_mutex_);
    for (const auto& buffer : buffers_) {
      for (const Row& r : *buffer) {
        out << r.kind << '\t' << r.id << '\t' << r.parent << '\t' << r.user << '\t' << r.t0
            << '\t' << r.t1 << '\t' << r.a << '\t' << r.b << '\t' << r.c << '\n';
      }
    }
  }

 private:
  struct Emitted {
    std::uint64_t parent = 0;
    std::int64_t at = 0;
  };

  std::uint64_t next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  static std::string job_key(const core::PrefetchJob& job) {
    std::string key = job.user;
    key += '\x1f';
    key += job.cache_key;
    return key;
  }

  void note_jobs(const core::Decision& out, std::size_t from, std::uint64_t parent,
                 std::int64_t at) {
    if (out.prefetches.size() == from) return;
    const std::lock_guard<std::mutex> lock(jobs_mutex_);
    for (std::size_t i = from; i < out.prefetches.size(); ++i) {
      jobs_[job_key(out.prefetches[i])] = {parent, at};
    }
  }

  Emitted take_job(const core::PrefetchJob& job) {
    const std::lock_guard<std::mutex> lock(jobs_mutex_);
    const auto it = jobs_.find(job_key(job));
    if (it == jobs_.end()) return {};
    const Emitted e = it->second;
    jobs_.erase(it);
    return e;
  }

  void push(Row row) {
    thread_local std::vector<Row>* buffer = nullptr;
    if (buffer == nullptr) {
      const std::lock_guard<std::mutex> lock(buffers_mutex_);
      buffers_.push_back(std::make_unique<std::vector<Row>>());
      buffer = buffers_.back().get();
      buffer->reserve(1 << 16);
    }
    buffer->push_back(std::move(row));
  }

  core::ProxyLike* inner_;
  std::atomic<std::uint64_t> next_id_{1};
  std::mutex jobs_mutex_;
  std::unordered_map<std::string, Emitted> jobs_;
  std::mutex buffers_mutex_;
  std::vector<std::unique_ptr<std::vector<Row>>> buffers_;
};

// Sum of every counter series whose name starts with `prefix` (labelled
// series included); -1 when there is none.
std::int64_t counter_total(const obs::MetricsRegistry& registry, const std::string& prefix) {
  const json::Value snapshot = registry.to_json();
  const json::Value* counters = snapshot.find("counters");
  if (counters == nullptr || !counters->is_object()) return -1;
  std::int64_t total = -1;
  for (const auto& [name, value] : counters->as_object()) {
    if (name.rfind(prefix, 0) != 0) continue;
    total = std::max<std::int64_t>(total, 0) + value.as_int();
  }
  return total;
}

}  // namespace

int run_proxy(const Args& args) {
  const auto t_start = mono_us();
  const std::string app_name = args.str("app", "wish");
  const eval::AnalyzedApp app = eval::analyze_app(make_app(app_name));
  const auto t_analyzed = mono_us();

  core::ProxyConfig config = eval::deployment_config(app);
  config.policy.enabled = true;
  core::EngineOptions options = core::EngineOptions::from_config(config);
  options.seed = static_cast<std::uint64_t>(args.num("seed", 1));
  options.min_file_descriptors = 4096;
  // Interaction think times run to tens of seconds; an idle client
  // connection must outlive them.
  options.conn_idle_timeout = minutes(30);

  core::ShardedProxyEngine engine(&app.analysis.signatures, &config, options);
  std::unique_ptr<TracingEngine> tracer;
  core::ProxyLike* served = &engine;
  if (args.num("trace", 0) != 0) {
    tracer = std::make_unique<TracingEngine>(&engine);
    served = tracer.get();
  }
  net::LiveProxyServer::UpstreamMap upstreams;
  const auto origin_port = static_cast<std::uint16_t>(args.num("origin-port", 0));
  for (const apps::EndpointSpec& ep : app.spec.endpoints) upstreams[ep.host] = origin_port;
  net::LiveProxyServer proxy(served, std::move(upstreams), 0, options);
  const auto t_listening = mono_us();

  std::printf("READY %u %.3f %.3f\n", static_cast<unsigned>(proxy.port()),
              static_cast<double>(t_analyzed - t_start) / 1000.0,
              static_cast<double>(t_listening - t_analyzed) / 1000.0);
  std::fflush(stdout);
  char byte;
  while (::read(STDIN_FILENO, &byte, 1) > 0) {
  }
  proxy.stop();

  if (tracer) tracer->write(args.str("spans", "proxy_spans.tsv"));
  const std::int64_t rejected = counter_total(*engine.metrics(), "appx_policy_rejected_total");
  std::printf("{\"policy_rejected\": %lld}\n", static_cast<long long>(rejected));
  return 0;
}

}  // namespace livebench

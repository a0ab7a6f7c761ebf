// bench_syscalls: syscalls/request on the serving data plane's warm-hit
// path, per event-loop backend (DESIGN.md §5l).
//
// Runs the full live stack in-process — wish origin, sharded engine,
// LiveProxyServer on ONE loop thread — primes the prefetch cache exactly the
// way the end-to-end tests do (feed → first detail → drain_prefetches), then
// drives C concurrent keep-alive clients through repeated cache-hit detail
// requests and diffs the net::sys syscall counters across the measured
// window. The counters cover only the serving plane (reactor waits,
// epoll_ctl, conn recv/sendmsg, accept4, eventfd wakes, io_uring
// enter/register); blocking client and upstream sockets are deliberately
// uncounted — see src/net/syscount.hpp.
//
// It also links the counting operator new/delete (obs/hook/alloc_hook.cpp)
// and reports heap allocations per request made on the proxy's loop thread,
// read from the thread-local counters by tasks posted to that loop at both
// ends of the window — the real serving path's allocation figure, where
// bench_alloc measures a rebuilt component pipeline.
//
// A second window pipelines: each client writes kPipelineDepth warm-hit
// requests in one segment, then reads their responses, so one recv and one
// sendmsg batch serve the whole group.
//
// One section per backend: epoll always, uring when the kernel supports it.
// Output is a JSON object on stdout (recorded in BENCH_micro.json under
// "syscall_plane"). With `--budget <file.json>` it doubles as the CI gate:
// exits nonzero when a backend exceeds its absolute syscalls/request or
// epoll_ctl/request budget, uring fails the required relative drop vs
// epoll, or a backend's pipelined syscalls/request exceed the given share
// of its own unpipelined figure (a ratio within one run, so it holds on a
// busy host and a quiet one alike).
//
// Usage: bench_syscalls [--conns N] [--requests N] [--budget bench/syscall_budget.json]
#include <algorithm>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/analyzer.hpp"
#include "apps/catalog.hpp"
#include "apps/compiler.hpp"
#include "apps/server.hpp"
#include "core/sharded_proxy.hpp"
#include "json/json.hpp"
#include "net/event_loop.hpp"
#include "net/http_io.hpp"
#include "net/servers.hpp"
#include "net/socket.hpp"
#include "net/syscount.hpp"
#include "obs/alloc.hpp"
#include "util/byte_io.hpp"
#include "util/error.hpp"

namespace {

using namespace appx;

constexpr const char* kUser = "bench";
constexpr std::size_t kPipelineDepth = 4;

http::Request feed_request(const apps::AppSpec& spec) {
  http::Request req;
  req.method = "POST";
  req.uri = http::Uri::parse("https://" + spec.endpoint("feed").host + "/api/get-feed");
  req.uri.add_query_param("offset", "0");
  req.uri.add_query_param("count", "30");
  req.headers.set("Cookie", "c0");
  req.headers.set("User-Agent", "ua");
  req.set_form_fields({{"_client", "android"}, {"_ver", "4.13.0"}});
  return req;
}

// The detail request the app would issue for feed item `index` (same
// construction as the end-to-end tests: dependency fields resolved from the
// feed body).
http::Request detail_request(const apps::AppSpec& spec, apps::OriginServer& origin,
                             std::size_t index) {
  http::Request req;
  req.method = "POST";
  req.uri = http::Uri::parse("https://" + spec.endpoint("detail").host + "/product/get");
  req.headers.set("Cookie", "c0");
  req.headers.set("User-Agent", "ua");
  const auto feed_body = json::parse(origin.serve(feed_request(spec)).body);
  http::FormFields fields;
  const apps::EndpointSpec& detail = spec.endpoint("detail");
  for (const apps::FieldSpec& f : detail.fields) {
    if (f.loc != core::FieldLocation::kBody || f.conditional) continue;
    if (f.value.kind == apps::ValueSpec::Kind::kDep) {
      std::string path = f.value.dep_path;
      const auto star = path.find("[*]");
      if (star != std::string::npos) path.replace(star, 3, "[" + std::to_string(index) + "]");
      fields.emplace_back(f.name,
                          json::Path(path).resolve_first(feed_body)->scalar_to_string());
    } else if (f.value.kind == apps::ValueSpec::Kind::kEnv) {
      fields.emplace_back(f.name, spec.env_defaults.at(f.value.text));
    } else {
      fields.emplace_back(f.name, f.value.text);
    }
  }
  req.set_form_fields(fields);
  return req;
}

// Minimal blocking keep-alive client (its own syscalls are uncounted).
class Client {
 public:
  explicit Client(std::uint16_t port)
      : stream_(net::TcpStream::connect("127.0.0.1", port)), reader_(&stream_) {}

  http::Response send(http::Request req) {
    req.headers.set("X-Appx-User", kUser);
    net::write_request(stream_, req);
    return read();
  }

  // Write `wire` (several serialized requests) in one segment and read `n`
  // responses; returns how many were cache hits.
  std::size_t send_pipelined(const std::string& wire, std::size_t n) {
    stream_.write_all(wire);
    std::size_t hits = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (read().headers.get("X-Appx-Cache").value_or("") == "hit") ++hits;
    }
    return hits;
  }

 private:
  http::Response read() {
    auto response = reader_.read_response();
    if (!response) throw Error("bench_syscalls: server closed connection");
    return std::move(*response);
  }

  net::TcpStream stream_;
  net::HttpReader reader_;
};

struct BackendResult {
  std::string backend;
  std::size_t requests = 0;
  std::size_t hits = 0;
  std::uint64_t origin_requests = 0;  // in-window origin traffic (should be ~0)
  net::sys::Counters delta;
  double per_request = 0;
  double ctl_per_request = 0;
  std::uint64_t loop_allocs = 0;  // heap allocations on the proxy's loop thread
  double loop_allocs_per_request = 0;
  // The pipelined window (kPipelineDepth requests per segment).
  std::size_t pipelined_requests = 0;
  std::size_t pipelined_hits = 0;
  net::sys::Counters pipelined_delta;
  double pipelined_per_request = 0;
  double pipelined_ratio = 0;  // pipelined / unpipelined syscalls per request
};

// The loop thread's allocation count so far, read by a task posted to it.
std::uint64_t loop_allocations(net::EventLoop& loop) {
  std::promise<std::uint64_t> count;
  loop.post([&count] { count.set_value(obs::thread_alloc_counters().allocations); });
  return count.get_future().get();
}

BackendResult measure(const std::string& backend, std::size_t conns,
                      std::size_t requests_per_conn) {
  const apps::AppSpec spec = apps::make_wish();
  apps::OriginServer origin(&spec);
  const analysis::AnalysisResult analysis = analysis::analyze(apps::compile_app(spec));
  core::ProxyConfig config;
  config.default_expiration = minutes(30);
  core::EngineOptions engine_options;
  engine_options.seed = 3;
  engine_options.loop_threads = 1;
  engine_options.io_backend = backend;
  core::ShardedProxyEngine engine(&analysis.signatures, &config, engine_options);
  net::LiveOriginServer upstream(&origin, 0, /*loop_threads=*/1, backend);
  net::LiveProxyServer::UpstreamMap upstreams;
  for (const apps::EndpointSpec& ep : spec.endpoints) upstreams[ep.host] = upstream.port();
  net::LiveProxyServer proxy(&engine, std::move(upstreams), 0, engine_options);

  // Prime: the feed teaches the item list, the first detail teaches the
  // run-time values, and drain waits for the sibling prefetches to land.
  {
    Client primer(proxy.port());
    if (!primer.send(feed_request(spec)).ok()) throw Error("bench_syscalls: feed failed");
    if (!primer.send(detail_request(spec, origin, 0)).ok()) {
      throw Error("bench_syscalls: prime detail failed");
    }
    proxy.drain_prefetches();
  }

  const http::Request hit_req = detail_request(spec, origin, 1);

  // Warm every connection first (connect, accept, first exchange) so the
  // measured window holds only steady-state keep-alive traffic.
  std::vector<std::unique_ptr<Client>> clients;
  clients.reserve(conns);
  for (std::size_t c = 0; c < conns; ++c) {
    clients.push_back(std::make_unique<Client>(proxy.port()));
    if (clients.back()->send(hit_req).headers.get("X-Appx-Cache").value_or("") != "hit") {
      throw Error("bench_syscalls: warmup request was not a cache hit");
    }
  }

  const std::uint64_t origin_before = upstream.requests_served();
  const std::uint64_t allocs_before = loop_allocations(proxy.loop(0));
  const net::sys::Counters before = net::sys::snapshot();
  std::vector<std::thread> threads;
  std::vector<std::size_t> hits(conns, 0);
  threads.reserve(conns);
  for (std::size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t r = 0; r < requests_per_conn; ++r) {
        const http::Response response = clients[c]->send(hit_req);
        if (response.headers.get("X-Appx-Cache").value_or("") == "hit") ++hits[c];
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const net::sys::Counters after = net::sys::snapshot();
  const std::uint64_t allocs_after = loop_allocations(proxy.loop(0));
  const std::uint64_t origin_after = upstream.requests_served();

  BackendResult result;
  result.backend = backend;
  result.requests = conns * requests_per_conn;
  for (const std::size_t h : hits) result.hits += h;
  result.origin_requests = origin_after - origin_before;
  result.delta = after - before;
  const auto per_request = [&](std::uint64_t n) {
    return static_cast<double>(n) / static_cast<double>(result.requests);
  };
  result.per_request = per_request(result.delta.total());
  result.ctl_per_request = per_request(result.delta.ctl);
  result.loop_allocs = allocs_after - allocs_before;
  result.loop_allocs_per_request = per_request(result.loop_allocs);

  // Pipelined window: the same number of requests, kPipelineDepth per segment.
  std::string wire;
  {
    http::Request tagged = hit_req;
    tagged.headers.set("X-Appx-User", kUser);
    for (std::size_t i = 0; i < kPipelineDepth; ++i) wire += tagged.serialize();
  }
  const std::size_t rounds = std::max<std::size_t>(1, requests_per_conn / kPipelineDepth);
  std::vector<std::size_t> pipelined_hits(conns, 0);
  threads.clear();
  const net::sys::Counters pipelined_before = net::sys::snapshot();
  for (std::size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t r = 0; r < rounds; ++r) {
        pipelined_hits[c] += clients[c]->send_pipelined(wire, kPipelineDepth);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  result.pipelined_delta = net::sys::snapshot() - pipelined_before;
  result.pipelined_requests = conns * rounds * kPipelineDepth;
  for (const std::size_t h : pipelined_hits) result.pipelined_hits += h;
  result.pipelined_per_request = static_cast<double>(result.pipelined_delta.total()) /
                                 static_cast<double>(result.pipelined_requests);
  result.pipelined_ratio =
      result.per_request > 0 ? result.pipelined_per_request / result.per_request : 0.0;
  return result;
}

void print_result(const BackendResult& r, bool last) {
  std::printf("    \"%s\": {\n", r.backend.c_str());
  std::printf("      \"syscalls_per_request\": %.2f,\n", r.per_request);
  std::printf("      \"epoll_ctl_per_request\": %.3f,\n", r.ctl_per_request);
  if (appx::obs::alloc_counting_active()) {
    std::printf("      \"loop_allocs_per_request\": %.2f, \"loop_allocs\": %llu,\n",
                r.loop_allocs_per_request, static_cast<unsigned long long>(r.loop_allocs));
  } else {
    std::printf("      \"loop_allocs_per_request\": null,\n");
  }
  std::printf("      \"requests\": %zu, \"hits\": %zu, \"origin_requests_in_window\": %llu,\n",
              r.requests, r.hits, static_cast<unsigned long long>(r.origin_requests));
  std::printf("      \"pipelined\": {\"depth\": %zu, \"syscalls_per_request\": %.2f, "
              "\"ratio_vs_unpipelined\": %.3f, \"requests\": %zu, \"hits\": %zu, "
              "\"read\": %llu, \"write\": %llu, \"wait\": %llu, \"enter\": %llu},\n",
              kPipelineDepth, r.pipelined_per_request, r.pipelined_ratio, r.pipelined_requests,
              r.pipelined_hits, static_cast<unsigned long long>(r.pipelined_delta.read),
              static_cast<unsigned long long>(r.pipelined_delta.write),
              static_cast<unsigned long long>(r.pipelined_delta.wait),
              static_cast<unsigned long long>(r.pipelined_delta.enter));
  std::printf("      \"breakdown_total\": {\"wait\": %llu, \"ctl\": %llu, \"read\": %llu, "
              "\"write\": %llu, \"accept\": %llu, \"wake\": %llu, \"enter\": %llu, "
              "\"register\": %llu}\n",
              static_cast<unsigned long long>(r.delta.wait),
              static_cast<unsigned long long>(r.delta.ctl),
              static_cast<unsigned long long>(r.delta.read),
              static_cast<unsigned long long>(r.delta.write),
              static_cast<unsigned long long>(r.delta.accept),
              static_cast<unsigned long long>(r.delta.wake),
              static_cast<unsigned long long>(r.delta.enter),
              static_cast<unsigned long long>(r.delta.reg));
  std::printf("    }%s\n", last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t conns = 8;
  std::size_t requests_per_conn = 250;
  const char* budget_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_syscalls: missing value for %s\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--conns") conns = std::stoul(next());
    else if (arg == "--requests") requests_per_conn = std::stoul(next());
    else if (arg == "--budget") budget_path = next();
    else {
      std::fprintf(stderr, "bench_syscalls: unknown argument %s\n", argv[i]);
      return 2;
    }
  }

  const BackendResult epoll = measure("epoll", conns, requests_per_conn);
  const bool uring_available = appx::net::uring_supported();
  BackendResult uring;
  if (uring_available) uring = measure("uring", conns, requests_per_conn);

  const double drop =
      uring_available && epoll.per_request > 0
          ? 1.0 - uring.per_request / epoll.per_request
          : 0.0;

  std::printf("{\n  \"syscall_plane\": {\n");
  std::printf("    \"conns\": %zu, \"requests_per_conn\": %zu, \"nproc\": %u,\n", conns,
              requests_per_conn, std::thread::hardware_concurrency());
  std::printf("    \"note\": \"server-side syscalls per warm-hit request, one loop thread; "
              "in-code counters (src/net/syscount.hpp), client/upstream sockets "
              "uncounted\",\n");
  print_result(epoll, false);
  if (uring_available) {
    print_result(uring, false);
    std::printf("    \"uring_drop_vs_epoll\": %.3f\n", drop);
  } else {
    std::printf("    \"uring\": null\n");
  }
  std::printf("  }\n}\n");

  if (budget_path != nullptr) {
    const std::vector<std::uint8_t> raw = read_file(budget_path);
    const json::Value budget =
        json::parse(std::string_view(reinterpret_cast<const char*>(raw.data()), raw.size()));
    const double epoll_max = budget.at("epoll_syscalls_per_request").as_double();
    const double ctl_max = budget.at("epoll_ctl_per_request").as_double();
    const double pipelined_max = budget.at("pipelined_max_ratio_vs_unpipelined").as_double();
    const BackendResult* const results[] = {&epoll, &uring};
    for (const BackendResult* r : results) {
      if (r->backend.empty()) continue;  // uring unsupported: not measured
      if (r->ctl_per_request > ctl_max) {
        std::fprintf(stderr, "bench_syscalls: %s warm-hit path costs %.3f epoll_ctl/request, "
                             "budget %.3f\n",
                     r->backend.c_str(), r->ctl_per_request, ctl_max);
        return 1;
      }
      if (r->pipelined_ratio > pipelined_max) {
        std::fprintf(stderr, "bench_syscalls: %s pipelined warm hits cost %.2f syscalls/request, "
                             "%.2fx the unpipelined %.2f; budget %.2fx\n",
                     r->backend.c_str(), r->pipelined_per_request, r->pipelined_ratio,
                     r->per_request, pipelined_max);
        return 1;
      }
    }
    if (epoll.per_request > epoll_max) {
      std::fprintf(stderr, "bench_syscalls: epoll warm-hit path costs %.2f syscalls/request, "
                           "budget %.2f\n",
                   epoll.per_request, epoll_max);
      return 1;
    }
    if (!uring_available) {
      std::fprintf(stderr, "bench_syscalls: within budget (epoll %.2f <= %.2f); uring gates "
                           "skipped — kernel lacks io_uring support\n",
                   epoll.per_request, epoll_max);
      return 0;
    }
    const double uring_max = budget.at("uring_syscalls_per_request").as_double();
    const double min_drop = budget.at("uring_min_drop_vs_epoll").as_double();
    if (uring.per_request > uring_max) {
      std::fprintf(stderr, "bench_syscalls: uring warm-hit path costs %.2f syscalls/request, "
                           "budget %.2f\n",
                   uring.per_request, uring_max);
      return 1;
    }
    if (drop < min_drop) {
      std::fprintf(stderr, "bench_syscalls: uring drops only %.0f%% of epoll's "
                           "syscalls/request (%.2f -> %.2f); budget requires >= %.0f%%\n",
                   drop * 100, epoll.per_request, uring.per_request, min_drop * 100);
      return 1;
    }
    std::fprintf(stderr, "bench_syscalls: within budget (epoll %.2f <= %.2f, uring %.2f <= "
                         "%.2f, drop %.0f%% >= %.0f%%, pipelined/unpipelined epoll %.2f uring "
                         "%.2f <= %.2f)\n",
                 epoll.per_request, epoll_max, uring.per_request, uring_max, drop * 100,
                 min_drop * 100, epoll.pipelined_ratio, uring.pipelined_ratio, pipelined_max);
  }
  return 0;
}

// Integration tests for the real-socket front end: loopback origin servers,
// the live proxy, HTTP framing, and the end-to-end acceleration flow over
// actual TCP connections.
#include <gtest/gtest.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/analyzer.hpp"
#include "apps/catalog.hpp"
#include "apps/compiler.hpp"
#include "core/baselines.hpp"
#include "core/sharded_proxy.hpp"
#include "net/event_loop.hpp"
#include "net/rlimit.hpp"
#include "net/servers.hpp"
#include "net/syscount.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace appx::net {
namespace {

// A minimal HTTP client over one keep-alive connection.
class TestClient {
 public:
  TestClient(std::uint16_t port, std::string user)
      : stream_(TcpStream::connect("127.0.0.1", port)), reader_(&stream_),
        user_(std::move(user)) {}

  http::Response send(http::Request request) {
    request.headers.set("X-Appx-User", user_);
    write_request(stream_, request);
    auto response = reader_.read_response();
    if (!response) throw Error("test client: connection closed");
    return *response;
  }

 private:
  TcpStream stream_;
  HttpReader reader_;
  std::string user_;
};

// An upstream that accepts connections, reads one request on each and then
// never answers: the classic hung origin. It records when each request
// arrived. Held connections stay open until the test ends.
class BlackHole {
 public:
  BlackHole() : listener_(0) {
    acceptor_ = std::thread([this] {
      while (true) {
        TcpStream stream = listener_.accept();
        if (!stream.valid()) return;
        try {
          stream.set_read_timeout(seconds(5));
          HttpReader reader(&stream);
          if (reader.read_request()) {
            const std::lock_guard<std::mutex> lock(mutex_);
            arrivals_.push_back(std::chrono::steady_clock::now());
          }
        } catch (const Error&) {
          // Closed or silent before a whole request arrived.
        }
        const std::lock_guard<std::mutex> lock(mutex_);
        held_.push_back(std::move(stream));
      }
    });
  }
  ~BlackHole() {
    listener_.close();
    if (acceptor_.joinable()) acceptor_.join();
  }
  std::uint16_t port() const { return listener_.port(); }
  std::vector<std::chrono::steady_clock::time_point> arrivals() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return arrivals_;
  }

 private:
  TcpListener listener_;
  std::thread acceptor_;
  mutable std::mutex mutex_;
  std::vector<TcpStream> held_;
  std::vector<std::chrono::steady_clock::time_point> arrivals_;
};

// A blocking origin with one thread per accepted connection, each running
// `serve`. The destructor stops accepting and joins every handler, which
// return once their peer closes. Declare it after the state `serve` uses.
class ThreadedOrigin {
 public:
  explicit ThreadedOrigin(std::function<void(TcpStream)> serve)
      : serve_(std::move(serve)), listener_(0) {
    acceptor_ = std::thread([this] {
      while (true) {
        TcpStream stream = listener_.accept();
        if (!stream.valid()) return;
        const std::lock_guard<std::mutex> lock(mutex_);
        handlers_.emplace_back(serve_, std::move(stream));
      }
    });
  }
  ~ThreadedOrigin() {
    listener_.close();
    if (acceptor_.joinable()) acceptor_.join();
    std::vector<std::thread> handlers;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      handlers.swap(handlers_);
    }
    for (std::thread& t : handlers) t.join();
  }
  std::uint16_t port() const { return listener_.port(); }

 private:
  std::function<void(TcpStream)> serve_;
  TcpListener listener_;
  std::thread acceptor_;
  std::mutex mutex_;
  std::vector<std::thread> handlers_;
};

// An origin that serves everything except detail lookups for items other
// than `allowed_cid`: those it swallows and never answers (a selectively
// hung backend). The client path stays healthy — only the proxy's
// sibling-item prefetches hit the hang.
class SelectiveHangOrigin {
 public:
  SelectiveHangOrigin(apps::OriginServer* origin, std::string allowed_cid)
      : origin_(origin), allowed_cid_(std::move(allowed_cid)) {}
  std::uint16_t port() const { return server_.port(); }
  std::size_t hung_requests() const { return hung_.load(); }

 private:
  void serve(TcpStream stream) {
    try {
      HttpReader reader(&stream);
      while (auto request = reader.read_request()) {
        if (should_hang(*request)) {
          ++hung_;
          // Swallow the request: the next read blocks until the proxy gives
          // up at its deadline and closes the connection.
          continue;
        }
        http::Response response;
        {
          const std::lock_guard<std::mutex> lock(origin_mutex_);
          response = origin_->serve(*request);
        }
        write_response(stream, response);
      }
    } catch (const Error&) {
      // Connection torn down mid-read at proxy deadline or test end.
    }
  }

  bool should_hang(const http::Request& request) const {
    if (request.uri.path != "/product/get") return false;
    for (const auto& [name, value] : request.form_fields()) {
      if (name == "cid") return value != allowed_cid_;
    }
    return true;
  }

  apps::OriginServer* origin_;
  std::string allowed_cid_;
  std::mutex origin_mutex_;
  std::atomic<std::size_t> hung_{0};
  ThreadedOrigin server_{[this](TcpStream s) { serve(std::move(s)); }};
};

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

TEST(LiveOrigin, ServesOverRealSockets) {
  const apps::AppSpec spec = apps::make_wish();
  apps::OriginServer origin(&spec);
  LiveOriginServer server(&origin);
  ASSERT_GT(server.port(), 0);

  TcpStream stream = TcpStream::connect("127.0.0.1", server.port());
  http::Request req;
  req.method = "POST";
  req.uri = http::Uri::parse("https://" + spec.endpoint("feed").host + "/api/get-feed");
  req.uri.add_query_param("offset", "0");
  req.uri.add_query_param("count", "30");
  req.headers.set("Cookie", "c");
  req.headers.set("User-Agent", "ua");
  req.set_form_fields({{"_client", "android"}, {"_ver", "4.13.0"}});
  write_request(stream, req);

  HttpReader reader(&stream);
  const auto response = reader.read_response();
  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(response->ok());
  const auto body = json::parse(response->body);
  EXPECT_EQ(json::Path("data.items[*].id").resolve(body).size(), 30u);

  // Keep-alive: a second request on the same connection.
  write_request(stream, req);
  const auto second = reader.read_response();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->body, response->body);
  server.stop();
  EXPECT_EQ(server.requests_served(), 2u);
}

TEST(LiveOrigin, UnknownPathIs404) {
  const apps::AppSpec spec = apps::make_wish();
  apps::OriginServer origin(&spec);
  LiveOriginServer server(&origin);
  TcpStream stream = TcpStream::connect("127.0.0.1", server.port());
  http::Request req;
  req.uri = http::Uri::parse("https://" + spec.endpoint("feed").host + "/definitely/not");
  write_request(stream, req);
  HttpReader reader(&stream);
  const auto response = reader.read_response();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 404);
}

class LiveProxyTest : public ::testing::Test {
 protected:
  LiveProxyTest()
      : spec_(apps::make_wish()),
        analysis_(analysis::analyze(apps::compile_app(spec_))),
        origin_(&spec_),
        origin_server_(&origin_) {
    config_.default_expiration = minutes(30);
    // The sharded runtime exactly as deployed: thread-safe, so the live
    // server drives shard-parallel sessions with no global engine lock.
    core::EngineOptions engine_options;
    engine_options.seed = 3;
    adapter_ = std::make_unique<core::ShardedProxyEngine>(&analysis_.signatures, &config_,
                                                          engine_options);
    // Every app host resolves to the single loopback origin.
    LiveProxyServer::UpstreamMap upstreams;
    for (const apps::EndpointSpec& ep : spec_.endpoints) {
      upstreams[ep.host] = origin_server_.port();
    }
    proxy_server_ = std::make_unique<LiveProxyServer>(adapter_.get(), std::move(upstreams));
  }

  http::Request feed_request() const {
    http::Request req;
    req.method = "POST";
    req.uri = http::Uri::parse("https://" + spec_.endpoint("feed").host + "/api/get-feed");
    req.uri.add_query_param("offset", "0");
    req.uri.add_query_param("count", "30");
    req.headers.set("Cookie", "c0");
    req.headers.set("User-Agent", "ua");
    req.set_form_fields({{"_client", "android"}, {"_ver", "4.13.0"}});
    return req;
  }

  // The detail request the app would issue for feed item `index`.
  http::Request detail_request(std::size_t index) const {
    http::Request req;
    req.method = "POST";
    req.uri = http::Uri::parse("https://" + spec_.endpoint("detail").host + "/product/get");
    req.headers.set("Cookie", "c0");
    req.headers.set("User-Agent", "ua");
    const auto feed_body = json::parse(origin_.serve(feed_request()).body);
    http::FormFields fields;
    const apps::EndpointSpec& detail = spec_.endpoint("detail");
    for (const apps::FieldSpec& f : detail.fields) {
      if (f.loc != core::FieldLocation::kBody || f.conditional) continue;
      if (f.value.kind == apps::ValueSpec::Kind::kDep) {
        std::string path = f.value.dep_path;
        const auto star = path.find("[*]");
        if (star != std::string::npos) path.replace(star, 3, "[" + std::to_string(index) + "]");
        fields.emplace_back(f.name,
                            json::Path(path).resolve_first(feed_body)->scalar_to_string());
      } else if (f.value.kind == apps::ValueSpec::Kind::kEnv) {
        fields.emplace_back(f.name, spec_.env_defaults.at(f.value.text));
      } else {
        fields.emplace_back(f.name, f.value.text);
      }
    }
    req.set_form_fields(fields);
    return req;
  }

  std::string feed_item_id(std::size_t index) const {
    const auto body = json::parse(origin_.serve(feed_request()).body);
    return json::Path("data.items[" + std::to_string(index) + "].id")
        .resolve_first(body)
        ->as_string();
  }

  apps::AppSpec spec_;
  analysis::AnalysisResult analysis_;
  apps::OriginServer origin_;
  LiveOriginServer origin_server_;
  core::ProxyConfig config_;
  std::unique_ptr<core::ShardedProxyEngine> adapter_;
  std::unique_ptr<LiveProxyServer> proxy_server_;
};

TEST_F(LiveProxyTest, ForwardsMissesTaggedAsMiss) {
  TestClient client(proxy_server_->port(), "u1");
  const auto response = client.send(feed_request());
  EXPECT_TRUE(response.ok());
  EXPECT_EQ(response.headers.get("X-Appx-Cache").value(), "miss");
  EXPECT_FALSE(json::parse(response.body).is_null());
}

TEST_F(LiveProxyTest, EndToEndPrefetchOverRealSockets) {
  TestClient client(proxy_server_->port(), "u1");
  // 1. Feed: the proxy learns the item list.
  ASSERT_TRUE(client.send(feed_request()).ok());
  // 2. First detail: a miss, but it teaches the run-time values; the proxy's
  //    prefetch worker then fetches the sibling items in the background.
  const auto first = client.send(detail_request(0));
  EXPECT_EQ(first.headers.get("X-Appx-Cache").value(), "miss");
  proxy_server_->drain_prefetches();
  // 3. A different item: served from the prefetch cache.
  const auto second = client.send(detail_request(1));
  EXPECT_EQ(second.headers.get("X-Appx-Cache").value(), "hit");
  // The served body is byte-identical to what the origin would return.
  EXPECT_EQ(second.body, origin_.serve(detail_request(1)).body);
}

TEST_F(LiveProxyTest, UsersIsolatedOverSockets) {
  TestClient u1(proxy_server_->port(), "u1");
  ASSERT_TRUE(u1.send(feed_request()).ok());
  u1.send(detail_request(0));
  proxy_server_->drain_prefetches();
  // u2 issues the same second request: the per-user cache must not leak.
  TestClient u2(proxy_server_->port(), "u2");
  const auto response = u2.send(detail_request(1));
  EXPECT_EQ(response.headers.get("X-Appx-Cache").value(), "miss");
}

TEST_F(LiveProxyTest, UnknownUpstreamHostIs502) {
  TestClient client(proxy_server_->port(), "u1");
  http::Request req;
  req.uri = http::Uri::parse("https://unmapped.example/x");
  const auto response = client.send(req);
  EXPECT_EQ(response.status, 502);
}

TEST_F(LiveProxyTest, GarbageInputClosesConnectionButServerSurvives) {
  {
    TcpStream garbage = TcpStream::connect("127.0.0.1", proxy_server_->port());
    garbage.write_all("NOT HTTP AT ALL\r\njunk junk junk\r\n\r\n");
    garbage.shutdown_write();
    char buf[64];
    while (garbage.read_some(buf, sizeof buf) > 0) {
    }  // proxy closes the connection
  }
  // The server keeps serving well-formed clients.
  TestClient client(proxy_server_->port(), "u9");
  EXPECT_TRUE(client.send(feed_request()).ok());
}

TEST_F(LiveProxyTest, ConcurrentClients) {
  // Several client threads hammer the proxy at once; everything stays
  // consistent and every response parses.
  constexpr int kClients = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([this, c, &failures] {
      try {
        TestClient client(proxy_server_->port(), "user" + std::to_string(c));
        if (!client.send(feed_request()).ok()) ++failures;
        for (int i = 0; i < 4; ++i) {
          if (!client.send(detail_request(static_cast<std::size_t>(i))).ok()) {
            ++failures;
          }
        }
      } catch (const Error&) {
        ++failures;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  proxy_server_->drain_prefetches();
}

TEST_F(LiveProxyTest, ClosedConnectionsAreReleased) {
  for (int i = 0; i < 5; ++i) {
    TestClient client(proxy_server_->port(), "u" + std::to_string(i));
    EXPECT_TRUE(client.send(feed_request()).ok());
  }  // each client disconnects here
  // The event loops need a beat to observe the EOFs and drop the conns.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (proxy_server_->open_connections() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(proxy_server_->open_connections(), 0u);
  // The origin side may legitimately stay nonzero: each loop parks keep-alive
  // upstream connections. They must be bounded by the per-loop cap.
  EXPECT_LE(origin_server_.open_connections(),
            proxy_server_->loop_thread_count() * proxy_server_->options().upstream_pool_per_host);
}

TEST_F(LiveProxyTest, OversizedRequestHeadIs431) {
  core::EngineOptions options;
  options.reader_limits.max_head_bytes = 512;
  LiveProxyServer::UpstreamMap upstreams;
  for (const apps::EndpointSpec& ep : spec_.endpoints) {
    upstreams[ep.host] = origin_server_.port();
  }
  LiveProxyServer proxy(adapter_.get(), std::move(upstreams), 0, options);

  TcpStream stream = TcpStream::connect("127.0.0.1", proxy.port());
  http::Request req = feed_request();
  req.headers.set("X-Huge", std::string(2048, 'h'));
  write_request(stream, req);
  HttpReader reader(&stream);
  const auto response = reader.read_response();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 431);
  proxy.stop();
}

TEST(LiveOrigin, OversizedRequestHeadIs431) {
  const apps::AppSpec spec = apps::make_wish();
  apps::OriginServer origin(&spec);
  LiveOriginServer server(&origin);
  TcpStream stream = TcpStream::connect("127.0.0.1", server.port());
  // Double the default 64 KiB head limit: the server must drain the unread
  // remainder before closing, or the RST would discard the 431 off the wire.
  stream.write_all("GET / HTTP/1.1\r\nX-Huge: " + std::string(128 * 1024, 'h') + "\r\n\r\n");
  HttpReader reader(&stream);
  const auto response = reader.read_response();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 431);
}

TEST_F(LiveProxyTest, HungUpstreamDegradesTo504WithinDeadline) {
  BlackHole hole;
  core::EngineOptions options;
  options.request_deadline = milliseconds(400);
  LiveProxyServer::UpstreamMap upstreams;
  for (const apps::EndpointSpec& ep : spec_.endpoints) upstreams[ep.host] = hole.port();
  LiveProxyServer proxy(adapter_.get(), std::move(upstreams), 0, options);

  TestClient client(proxy.port(), "uh");
  const auto started = std::chrono::steady_clock::now();
  const auto response = client.send(feed_request());
  EXPECT_EQ(response.status, 504);
  // Bounded by the request deadline, not a wedged thread (generous margin
  // for slow machines).
  EXPECT_LT(ms_since(started), 5000.0);
  // The proxy survives and keeps answering.
  EXPECT_EQ(client.send(feed_request()).status, 504);
  proxy.stop();
}

TEST_F(LiveProxyTest, HungPrefetchUpstreamDoesNotWedgeOtherUsers) {
  // The origin answers client traffic (feed, detail for item 0) but hangs on
  // detail lookups for every other item — exactly what the proxy's
  // sibling-item prefetches request. Those must resolve as 504 failures
  // within the deadline while client traffic and other users keep flowing.
  SelectiveHangOrigin hang(&origin_, feed_item_id(0));
  core::EngineOptions options;
  options.request_deadline = milliseconds(150);
  LiveProxyServer::UpstreamMap upstreams;
  for (const apps::EndpointSpec& ep : spec_.endpoints) upstreams[ep.host] = hang.port();
  LiveProxyServer proxy(adapter_.get(), std::move(upstreams), 0, options);

  // u1 kicks off prefetching; its sibling-detail prefetches hang.
  TestClient u1(proxy.port(), "u1");
  ASSERT_TRUE(u1.send(feed_request()).ok());
  ASSERT_TRUE(u1.send(detail_request(0)).ok());

  // While those prefetches time out in the background, a second user's
  // client-path requests stay fast.
  const auto started = std::chrono::steady_clock::now();
  TestClient u2(proxy.port(), "u2");
  EXPECT_TRUE(u2.send(feed_request()).ok());
  EXPECT_TRUE(u2.send(detail_request(0)).ok());
  EXPECT_LT(ms_since(started), 5000.0);

  proxy.drain_prefetches();
  const auto& stats = adapter_->stats();
  // The hang was actually exercised...
  EXPECT_GT(hang.hung_requests(), 0u);
  // ...and surfaced as deadline 504s -> prefetch failures, not wedges.
  EXPECT_GT(stats.prefetch_failures, 0u);
  // Every issued job was resolved exactly once: succeeded, failed or dropped.
  EXPECT_EQ(stats.prefetch_responses + stats.prefetch_failures + stats.prefetches_dropped,
            stats.prefetches_issued);
  // And the proxy still serves after the storm.
  EXPECT_TRUE(u1.send(feed_request()).ok());
  proxy.stop();
}

void raise_peak(std::atomic<std::size_t>& peak, std::size_t now) {
  std::size_t seen = peak.load();
  while (now > seen && !peak.compare_exchange_weak(seen, now)) {
  }
}

// An origin (thread per connection) that holds every /product/get response
// for `hold` and records the peak number of those requests in flight at once.
class SlowDetailOrigin {
 public:
  SlowDetailOrigin(apps::OriginServer* origin, std::chrono::milliseconds hold)
      : origin_(origin), hold_(hold) {}
  std::uint16_t port() const { return server_.port(); }
  std::size_t peak_detail_requests() const { return peak_.load(); }

 private:
  void serve(TcpStream stream) {
    try {
      HttpReader reader(&stream);
      while (auto request = reader.read_request()) {
        const bool detail = request->uri.path == "/product/get";
        if (detail) {
          raise_peak(peak_, ++in_flight_);
          std::this_thread::sleep_for(hold_);
        }
        http::Response response;
        {
          const std::lock_guard<std::mutex> lock(origin_mutex_);
          response = origin_->serve(*request);
        }
        if (detail) --in_flight_;
        write_response(stream, response);
      }
    } catch (const Error&) {
      // The proxy closed the connection.
    }
  }

  apps::OriginServer* origin_;
  std::chrono::milliseconds hold_;
  std::mutex origin_mutex_;
  std::atomic<std::size_t> in_flight_{0};
  std::atomic<std::size_t> peak_{0};
  ThreadedOrigin server_{[this](TcpStream s) { serve(std::move(s)); }};
};

TEST_F(LiveProxyTest, OneUsersPrefetchFanOutRunsConcurrently) {
  // Every job a Decision carries starts its origin exchange at once: the
  // sibling-item fan-out of one detail view is fetched in parallel, bounded
  // only by the user's scheduler window, not one job at a time.
  SlowDetailOrigin slow(&origin_, std::chrono::milliseconds(100));
  LiveProxyServer::UpstreamMap upstreams;
  for (const apps::EndpointSpec& ep : spec_.endpoints) upstreams[ep.host] = slow.port();
  LiveProxyServer proxy(adapter_.get(), std::move(upstreams));

  TestClient client(proxy.port(), "u1");
  ASSERT_TRUE(client.send(feed_request()).ok());
  ASSERT_TRUE(client.send(detail_request(0)).ok());  // fans out ~29 sibling jobs
  const auto started = std::chrono::steady_clock::now();
  proxy.drain_prefetches();
  EXPECT_LT(ms_since(started), 1500.0);
  EXPECT_GE(slow.peak_detail_requests(), 8u);

  const auto& stats = adapter_->stats();
  EXPECT_GT(stats.prefetches_issued, 8u);
  // Every issued job was resolved exactly once: succeeded, failed or dropped.
  EXPECT_EQ(stats.prefetch_responses + stats.prefetch_failures + stats.prefetches_dropped,
            stats.prefetches_issued);
  EXPECT_EQ(client.send(detail_request(1)).headers.get("X-Appx-Cache").value(), "hit");
  proxy.stop();
}

TEST_F(LiveProxyTest, NonThreadSafeEngineIsRefused) {
  // Every loop thread calls the engine; an engine that needs its caller to
  // serialise access (here a baseline) would race.
  core::LooxyEngine engine;
  ASSERT_FALSE(engine.thread_safe());
  EXPECT_THROW(LiveProxyServer(&engine, {}), InvalidArgumentError);
}

// --- /appx/* admin endpoints --------------------------------------------------

// Prometheus text -> {metric name (with labels) -> value} for non-comment lines.
std::map<std::string, double> parse_prometheus(std::string_view text) {
  std::map<std::string, double> values;
  std::istringstream lines{std::string(text)};
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.rfind(' ');
    if (space == std::string::npos) {
      ADD_FAILURE() << "unparsable exposition line: " << line;
      continue;
    }
    values[line.substr(0, space)] = std::stod(line.substr(space + 1));
  }
  return values;
}

http::Request admin_request(const std::string& path) {
  http::Request req;
  req.method = "GET";
  req.uri = http::Uri::parse("http://proxy.local" + path);
  return req;
}

TEST_F(LiveProxyTest, MetricsEndpointExportsBalancedCounters) {
  TestClient client(proxy_server_->port(), "u1");
  ASSERT_TRUE(client.send(feed_request()).ok());
  ASSERT_TRUE(client.send(detail_request(0)).ok());  // miss; fans out prefetches
  proxy_server_->drain_prefetches();
  ASSERT_EQ(client.send(detail_request(1)).headers.get("X-Appx-Cache").value(), "hit");

  const auto scrape = client.send(admin_request("/appx/metrics"));
  ASSERT_EQ(scrape.status, 200);
  EXPECT_EQ(scrape.headers.get("Content-Type").value_or(""), "text/plain; version=0.0.4");
  const auto metrics = parse_prometheus(scrape.body);

  // The exposition agrees with the engine's own view.
  const auto& stats = adapter_->stats();
  EXPECT_EQ(metrics.at("appx_proxy_client_requests_total"),
            static_cast<double>(stats.client_requests));
  EXPECT_EQ(metrics.at("appx_proxy_cache_hits_total"), static_cast<double>(stats.cache_hits));
  EXPECT_EQ(metrics.at("appx_prefetch_issued_total"),
            static_cast<double>(stats.prefetches_issued));
  EXPECT_GE(metrics.at("appx_proxy_client_requests_total"), 3.0);
  EXPECT_GE(metrics.at("appx_proxy_cache_hits_total"), 1.0);
  EXPECT_GT(metrics.at("appx_cache_entries"), 0.0);

  // Prefetch accounting balances fleet-wide (across every shard): each
  // issued job succeeded, failed, or was dropped — exactly once.
  EXPECT_EQ(metrics.at("appx_prefetch_responses_total") +
                metrics.at("appx_prefetch_failures_total") +
                metrics.at("appx_prefetch_dropped_total"),
            metrics.at("appx_prefetch_issued_total"));

  // Client latency histograms saw both paths.
  EXPECT_GE(metrics.at("appx_client_latency_us_count{path=\"hit\"}"), 1.0);
  EXPECT_GE(metrics.at("appx_client_latency_us_count{path=\"miss\"}"), 2.0);
}

TEST_F(LiveProxyTest, MetricsJsonEndpointParses) {
  TestClient client(proxy_server_->port(), "u1");
  ASSERT_TRUE(client.send(feed_request()).ok());

  const auto scrape = client.send(admin_request("/appx/metrics.json"));
  ASSERT_EQ(scrape.status, 200);
  EXPECT_EQ(scrape.headers.get("Content-Type").value_or(""), "application/json");
  const json::Value parsed = json::parse(scrape.body);
  EXPECT_EQ(parsed.at("counters").at("appx_proxy_client_requests_total").as_int(),
            static_cast<std::int64_t>(adapter_->stats().client_requests));
  ASSERT_NE(parsed.at("histograms").find("appx_client_latency_us{path=\"miss\"}"), nullptr);
}

TEST_F(LiveProxyTest, TraceEndpointRecordsLifecycles) {
  TestClient client(proxy_server_->port(), "u1");
  ASSERT_TRUE(client.send(feed_request()).ok());
  ASSERT_TRUE(client.send(detail_request(0)).ok());
  proxy_server_->drain_prefetches();
  ASSERT_TRUE(client.send(detail_request(1)).ok());

  const auto dump = client.send(admin_request("/appx/trace"));
  ASSERT_EQ(dump.status, 200);
  const json::Value parsed = json::parse(dump.body);
  EXPECT_GE(parsed.at("recorded").as_int(), 3);
  std::set<std::string> outcomes;
  for (const json::Value& trace : parsed.at("traces").as_array()) {
    outcomes.insert(trace.at("outcome").as_string());
    EXPECT_GE(trace.at("end_us").as_int(), trace.at("start_us").as_int());
  }
  EXPECT_TRUE(outcomes.count("miss")) << dump.body.view().substr(0, 400);
  EXPECT_TRUE(outcomes.count("hit"));
  EXPECT_TRUE(outcomes.count("prefetch"));
}

TEST_F(LiveProxyTest, UnknownAdminPathIs404AndSkipsEngine) {
  TestClient client(proxy_server_->port(), "ghost-user");
  const auto response = client.send(admin_request("/appx/nope"));
  EXPECT_EQ(response.status, 404);
  // Admin requests bypass the engine: no user state was created.
  EXPECT_EQ(adapter_->stats().client_requests, 0u);
  EXPECT_EQ(adapter_->metrics()->gauge_value("appx_proxy_users"), 0);
  EXPECT_EQ(adapter_->user_count(), 0u);
}

// --- event-loop runtime edge cases --------------------------------------------

TEST_F(LiveProxyTest, SlowLorisConnectionIsClosedByIdleTimer) {
  core::EngineOptions options;
  options.conn_idle_timeout = milliseconds(200);
  LiveProxyServer::UpstreamMap upstreams;
  for (const apps::EndpointSpec& ep : spec_.endpoints) {
    upstreams[ep.host] = origin_server_.port();
  }
  LiveProxyServer proxy(adapter_.get(), std::move(upstreams), 0, options);

  // Dribble a partial request head and go quiet. Bytes alone are not
  // "activity" — only complete requests are — so the idle timer must fire
  // and close the connection even though the peer wrote something.
  TcpStream stream = TcpStream::connect("127.0.0.1", proxy.port());
  stream.write_all("POST /api/get-feed HTTP/1.1\r\nHost: slow.example\r\nX-Dribble: ");
  stream.set_read_timeout(seconds(5));
  const auto started = std::chrono::steady_clock::now();
  char buf[64];
  EXPECT_EQ(stream.read_some(buf, sizeof buf), 0u);  // EOF: server closed
  EXPECT_LT(ms_since(started), 4000.0);
  proxy.stop();
}

TEST_F(LiveProxyTest, PipelinedRequestsInOneSegmentAnswerInOrder) {
  // Two complete requests in a single TCP segment: the reactor must parse
  // both out of one read and answer them in order.
  http::Request first = feed_request();
  first.headers.set("X-Appx-User", "pipeline");
  http::Request second = detail_request(0);
  second.headers.set("X-Appx-User", "pipeline");
  TcpStream stream = TcpStream::connect("127.0.0.1", proxy_server_->port());
  stream.write_all(first.serialize() + second.serialize());

  HttpReader reader(&stream);
  const auto feed_response = reader.read_response();
  ASSERT_TRUE(feed_response.has_value());
  EXPECT_TRUE(feed_response->ok());
  EXPECT_EQ(json::Path("data.items[*].id").resolve(json::parse(feed_response->body)).size(),
            30u);
  const auto detail_response = reader.read_response();
  ASSERT_TRUE(detail_response.has_value());
  EXPECT_TRUE(detail_response->ok());
  EXPECT_EQ(detail_response->body, origin_.serve(detail_request(0)).body);
}

// A keep-alive origin that serves exactly one request per connection. With
// `close_after_reply` it closes right after that response (a parked
// connection the origin tears down); otherwise the second request on any
// connection is read and answered with a close instead, which reproduces
// deterministically the stale-at-use race: the proxy's parked connection
// shows no FIN (the origin is just waiting in read), then dies mid-exchange.
class OneShotOrigin {
 public:
  explicit OneShotOrigin(bool close_after_reply = false)
      : close_after_reply_(close_after_reply) {}
  std::uint16_t port() const { return server_.port(); }

 private:
  void serve(TcpStream stream) {
    try {
      HttpReader reader(&stream);
      if (auto request = reader.read_request()) {
        http::Response resp;
        resp.status = 200;
        resp.reason = "OK";
        resp.body = "{}";
        write_response(stream, resp);
      }
      // Wait for a second request, then close without answering: the parked
      // connection fails at use, not while parked.
      if (!close_after_reply_) reader.read_request();
    } catch (const Error&) {
    }
  }

  bool close_after_reply_;
  ThreadedOrigin server_{[this](TcpStream s) { serve(std::move(s)); }};
};

TEST_F(LiveProxyTest, StopDuringInFlightRequestsIsPromptAndLeakFree) {
  // Clients are mid-request against a black-hole upstream when stop() lands:
  // it must abandon the in-flight origin exchanges, close every connection,
  // and join all threads promptly. ASan/TSan verify no fd or memory leaks and
  // no races.
  BlackHole hole;
  core::EngineOptions options;
  options.request_deadline = seconds(10);  // deliberately long: stop must cut it
  LiveProxyServer::UpstreamMap upstreams;
  for (const apps::EndpointSpec& ep : spec_.endpoints) upstreams[ep.host] = hole.port();
  auto proxy = std::make_unique<LiveProxyServer>(adapter_.get(), std::move(upstreams), 0,
                                                 options);

  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  std::atomic<int> finished{0};
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([port = proxy->port(), i, &finished] {
      try {
        TestClient client(port, "victim" + std::to_string(i));
        http::Request req;
        req.method = "POST";
        req.uri = http::Uri::parse("https://api.wish.example/api/get-feed");
        client.send(req);  // blocks on the black hole until stop()
      } catch (const Error&) {
        // Connection cut by stop(): expected.
      }
      ++finished;
    });
  }
  // Let the requests reach their upstream fetches.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const auto started = std::chrono::steady_clock::now();
  proxy->stop();
  EXPECT_LT(ms_since(started), 5000.0);
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(finished.load(), kClients);
  EXPECT_EQ(proxy->open_connections(), 0u);
  proxy.reset();
}

// An engine whose event entry points all throw — stand-in for the reachable
// InvalidArgument/InvalidState throws in the real engines. The runtime must
// convert these into per-request 500s, never let them unwind a loop thread
// (std::terminate).
class ThrowingEngine : public core::ProxyLike {
 public:
  core::UserId resolve_user(std::string_view user, SimTime) override {
    return core::UserId(std::make_shared<const std::string>(user), 0, 0, 0, 0);
  }
  void on_request(core::UserId&, const http::Request&, SimTime, core::Decision*) override {
    ++throws_;
    throw InvalidStateError("engine rejects everything");
  }
  void on_response(core::UserId&, const http::Request&, const http::Response&, SimTime,
                   core::Decision*) override {
    ++throws_;
    throw InvalidStateError("engine rejects everything");
  }
  void on_prefetch_response(core::UserId&, const core::PrefetchJob&, const http::Response&,
                            SimTime, double, core::Decision*) override {
    ++throws_;
    throw InvalidStateError("engine rejects everything");
  }
  void on_prefetch_dropped(core::UserId&, const core::PrefetchJob&, SimTime) override {}
  bool thread_safe() const override { return true; }
  const core::ProxyStats& stats() const override { return stats_; }

  std::atomic<int> throws_{0};

 private:
  core::ProxyStats stats_;
};

TEST(LiveProxyFaults, ThrowingEngineAnswers500AndServerSurvives) {
  ThrowingEngine engine;
  LiveProxyServer proxy(&engine, {});
  TestClient client(proxy.port(), "u1");

  http::Request req;
  req.uri = http::Uri::parse("https://any.example/x");
  const auto first = client.send(req);
  EXPECT_EQ(first.status, 500);
  // The loop survived the throw: the same keep-alive connection serves the
  // next request (which throws and 500s again).
  const auto second = client.send(req);
  EXPECT_EQ(second.status, 500);
  EXPECT_GE(engine.throws_.load(), 2);
  // Admin endpoints bypass the engine and still answer.
  EXPECT_EQ(client.send(admin_request("/appx/metrics")).status, 200);
  proxy.stop();
}

// Forwards to a real engine but spends `learn_cost` in every prefetch
// response event, standing in for an expensive learning step.
class SlowLearningEngine : public core::ProxyLike {
 public:
  SlowLearningEngine(core::ProxyLike* inner, std::chrono::milliseconds learn_cost)
      : inner_(inner), learn_cost_(learn_cost) {}
  core::UserId resolve_user(std::string_view user, SimTime now) override {
    return inner_->resolve_user(user, now);
  }
  void on_request(core::UserId& user, const http::Request& request, SimTime now,
                  core::Decision* out) override {
    inner_->on_request(user, request, now, out);
  }
  void on_response(core::UserId& user, const http::Request& request,
                   const http::Response& response, SimTime now, core::Decision* out) override {
    inner_->on_response(user, request, response, now, out);
  }
  void on_prefetch_response(core::UserId& user, const core::PrefetchJob& job,
                            const http::Response& response, SimTime now, double response_time_ms,
                            core::Decision* out) override {
    ++learning_;
    std::this_thread::sleep_for(learn_cost_);
    inner_->on_prefetch_response(user, job, response, now, response_time_ms, out);
  }
  void on_prefetch_dropped(core::UserId& user, const core::PrefetchJob& job,
                           SimTime now) override {
    inner_->on_prefetch_dropped(user, job, now);
  }
  bool thread_safe() const override { return true; }
  const core::ProxyStats& stats() const override { return inner_->stats(); }

  std::atomic<int> learning_{0};  // prefetch responses whose learning began

 private:
  core::ProxyLike* inner_;
  std::chrono::milliseconds learn_cost_;
};

// --- origin exchanges on the loops, on both backends ---------------------------

class UpstreamExchange : public LiveProxyTest, public ::testing::WithParamInterface<const char*> {
 protected:
  void SetUp() override {
    if (GetParam() == std::string_view("uring") && !uring_supported()) {
      GTEST_SKIP() << "kernel lacks io_uring support (or APPX_NO_URING=1)";
    }
  }

  core::EngineOptions options() const {
    core::EngineOptions options;
    options.io_backend = GetParam();
    return options;
  }

  // A proxy whose every app host routes to 127.0.0.1:`port`.
  std::unique_ptr<LiveProxyServer> proxy_to(std::uint16_t port, core::EngineOptions options) {
    LiveProxyServer::UpstreamMap upstreams;
    for (const apps::EndpointSpec& ep : spec_.endpoints) upstreams[ep.host] = port;
    return std::make_unique<LiveProxyServer>(adapter_.get(), std::move(upstreams), 0,
                                             std::move(options));
  }

  std::int64_t counter(const LiveProxyServer& proxy, std::string_view name) const {
    return proxy.metrics().counter_value(name);
  }

  http::Request unique_feed(const std::string& tag) const {
    http::Request req = feed_request();
    req.uri.add_query_param("variant", tag);
    return req;
  }
};

TEST_P(UpstreamExchange, RefusedPortAnswers502Promptly) {
  std::uint16_t closed_port = 0;
  {
    TcpListener listener(0);
    closed_port = listener.port();
  }  // nothing listens there any more
  core::EngineOptions opts = options();
  opts.request_deadline = seconds(10);  // a refusal must not wait for it
  auto proxy = proxy_to(closed_port, opts);
  TestClient client(proxy->port(), "refused");
  const auto started = std::chrono::steady_clock::now();
  EXPECT_EQ(client.send(feed_request()).status, 502);
  EXPECT_LT(ms_since(started), 2000.0);
}

TEST_P(UpstreamExchange, BlackHoleAnswers504AtTheDeadline) {
  BlackHole hole;
  core::EngineOptions opts = options();
  opts.request_deadline = milliseconds(300);
  auto proxy = proxy_to(hole.port(), opts);
  TestClient client(proxy->port(), "hole");
  const auto started = std::chrono::steady_clock::now();
  EXPECT_EQ(client.send(feed_request()).status, 504);
  const double elapsed = ms_since(started);
  EXPECT_GE(elapsed, 290.0);
  EXPECT_LT(elapsed, 5000.0);
}

TEST_P(UpstreamExchange, OriginClosingAParkedConnectionEvictsIt) {
  OneShotOrigin origin(/*close_after_reply=*/true);
  auto proxy = proxy_to(origin.port(), options());
  TestClient client(proxy->port(), "evict-user");
  EXPECT_EQ(client.send(unique_feed("a")).status, 200);
  // The parked connection's posted recv sees the origin's FIN.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (counter(*proxy, "appx_upstream_stale_total") == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(counter(*proxy, "appx_upstream_stale_total"), 1);
  EXPECT_EQ(proxy->metrics().gauge_value("appx_upstream_idle"), 0);
  // So the next miss connects fresh, with nothing to retry.
  EXPECT_EQ(client.send(unique_feed("b")).status, 200);
  EXPECT_EQ(counter(*proxy, "appx_upstream_connect_total"), 2);
  EXPECT_EQ(counter(*proxy, "appx_upstream_reuse_total"), 0);
  EXPECT_EQ(counter(*proxy, "appx_upstream_retry_total"), 0);
}

TEST_P(UpstreamExchange, StalePooledUpstreamIsRetriedTransparently) {
  OneShotOrigin origin;
  auto proxy = proxy_to(origin.port(), options());
  TestClient client(proxy->port(), "stale-user");
  // Miss #1: fresh connect; the connection is parked afterwards.
  EXPECT_EQ(client.send(unique_feed("a")).status, 200);
  // Miss #2 reuses the parked connection, which the one-shot origin kills at
  // use. The exchange must fail over to a fresh connect without the client
  // seeing anything but a clean 200.
  EXPECT_EQ(client.send(unique_feed("b")).status, 200);
  EXPECT_GE(counter(*proxy, "appx_upstream_reuse_total"), 1);
  EXPECT_EQ(counter(*proxy, "appx_upstream_retry_total"), 1);
  // One per actually-used origin connection.
  EXPECT_EQ(counter(*proxy, "appx_upstream_connect_total"), 2);
}

TEST_P(UpstreamExchange, PoolReusesConnectionAcrossSequentialMisses) {
  // Sequential unique misses ride ONE warm upstream connection instead of
  // reconnecting per fetch.
  auto proxy = proxy_to(origin_server_.port(), options());
  TestClient client(proxy->port(), "pool-user");
  constexpr int kMisses = 12;
  for (int i = 0; i < kMisses; ++i) {
    const auto response = client.send(unique_feed(std::to_string(i)));
    EXPECT_EQ(response.headers.get("X-Appx-Cache").value_or(""), "miss");
  }
  proxy->drain_prefetches();
  const std::int64_t reuses = counter(*proxy, "appx_upstream_reuse_total");
  const std::int64_t connects = counter(*proxy, "appx_upstream_connect_total");
  EXPECT_GE(reuses, kMisses - 1);
  // Warm-path reuse fraction >= 90%: at most one fresh connect per
  // concurrently-needed upstream connection (sequential client => 1).
  EXPECT_GE(static_cast<double>(reuses) / static_cast<double>(reuses + connects), 0.9);
}

TEST_P(UpstreamExchange, StopWithHungPrefetchesIsPromptAndBalanced) {
  // Sibling prefetches hang on the origin far longer than the test: stop()
  // must abandon them, resolving each as dropped.
  SelectiveHangOrigin hang(&origin_, feed_item_id(0));
  core::EngineOptions opts = options();
  opts.request_deadline = seconds(60);
  auto proxy = proxy_to(hang.port(), opts);
  TestClient client(proxy->port(), "u1");
  ASSERT_TRUE(client.send(feed_request()).ok());
  ASSERT_TRUE(client.send(detail_request(0)).ok());
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (hang.hung_requests() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GT(hang.hung_requests(), 0u);

  const auto started = std::chrono::steady_clock::now();
  proxy->stop();
  EXPECT_LT(ms_since(started), 5000.0);
  proxy->drain_prefetches();  // nothing left in flight after stop()
  const auto& stats = adapter_->stats();
  EXPECT_GT(stats.prefetches_dropped, 0u);
  EXPECT_EQ(stats.prefetch_responses + stats.prefetch_failures + stats.prefetches_dropped,
            stats.prefetches_issued);
}

std::size_t process_thread_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& task : std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

TEST_P(UpstreamExchange, LoopThreadsAreTheProxysOnlyThreads) {
  core::EngineOptions opts = options();
  opts.loop_threads = 2;
  const std::size_t before = process_thread_count();
  auto proxy = proxy_to(origin_server_.port(), opts);
  EXPECT_EQ(process_thread_count(), before + 2);
  // Serving misses and prefetches starts no thread either.
  TestClient client(proxy->port(), "u1");
  ASSERT_TRUE(client.send(feed_request()).ok());
  ASSERT_TRUE(client.send(detail_request(0)).ok());
  proxy->drain_prefetches();
  EXPECT_EQ(process_thread_count(), before + 2);
}

TEST_P(UpstreamExchange, PrefetchesShareTheParkCapAndClientMissesSkipTheirQueue) {
  // The origin holds each /product/get for 300 ms. One loop, one user: the
  // ~29 sibling prefetches of a detail view hold at most
  // upstream_pool_per_host origin connections and queue for them, reusing
  // them instead of opening a socket per job. A client miss that arrives
  // meanwhile starts at once instead of joining that queue (which needs
  // 300 ms per round to drain).
  SlowDetailOrigin slow(&origin_, std::chrono::milliseconds(300));
  core::EngineOptions opts = options();
  opts.loop_threads = 1;
  auto proxy = proxy_to(slow.port(), opts);
  const std::size_t cap = proxy->options().upstream_pool_per_host;
  TestClient client(proxy->port(), "u1");
  ASSERT_TRUE(client.send(feed_request()).ok());
  ASSERT_TRUE(client.send(detail_request(0)).ok());  // fans out ~29 sibling jobs
  ASSERT_GT(adapter_->stats().prefetches_issued, 2 * cap);

  const auto started = std::chrono::steady_clock::now();
  EXPECT_EQ(client.send(unique_feed("during-fan-out")).headers.get("X-Appx-Cache").value_or(""),
            "miss");
  EXPECT_LT(ms_since(started), 250.0);

  proxy->drain_prefetches();
  EXPECT_EQ(slow.peak_detail_requests(), cap);
  // The prefetches' connections plus at most one for the sequential client.
  EXPECT_LE(counter(*proxy, "appx_upstream_connect_total"), static_cast<std::int64_t>(cap + 1));
  const auto& stats = adapter_->stats();
  EXPECT_EQ(stats.prefetch_responses + stats.prefetch_failures + stats.prefetches_dropped,
            stats.prefetches_issued);
}

TEST_P(UpstreamExchange, PrefetchLearningYieldsToClientRequests) {
  // One loop learns ~29 prefetch responses at 40 ms each (over a second in
  // all). A client request arriving meanwhile is answered between two
  // learning events, not after the whole backlog. The request is an admin
  // scrape, answered within the loop iteration that reads it, so its
  // latency is the time a client event waits behind learning.
  SlowLearningEngine engine(adapter_.get(), std::chrono::milliseconds(40));
  core::EngineOptions opts = options();
  opts.loop_threads = 1;
  opts.upstream_pool_per_host = 32;  // every response is back and queued at once
  LiveProxyServer::UpstreamMap upstreams;
  for (const apps::EndpointSpec& ep : spec_.endpoints) upstreams[ep.host] = origin_server_.port();
  LiveProxyServer proxy(&engine, std::move(upstreams), 0, opts);
  TestClient u1(proxy.port(), "u1");
  TestClient u2(proxy.port(), "u2");
  ASSERT_EQ(u2.send(admin_request("/appx/metrics")).status, 200);  // connected and accepted
  ASSERT_TRUE(u1.send(feed_request()).ok());
  ASSERT_TRUE(u1.send(detail_request(0)).ok());  // fans out ~29 sibling jobs
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (engine.learning_.load() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(engine.learning_.load(), 2);

  const auto started = std::chrono::steady_clock::now();
  EXPECT_EQ(u2.send(admin_request("/appx/metrics")).status, 200);
  EXPECT_LT(ms_since(started), 300.0);
  EXPECT_LT(engine.learning_.load(), 20);  // the backlog was still there

  proxy.drain_prefetches();
  const auto& stats = adapter_->stats();
  EXPECT_EQ(stats.prefetch_responses + stats.prefetch_failures + stats.prefetches_dropped,
            stats.prefetches_issued);
  EXPECT_EQ(u1.send(detail_request(1)).headers.get("X-Appx-Cache").value_or(""), "hit");
}

INSTANTIATE_TEST_SUITE_P(Backends, UpstreamExchange, ::testing::Values("epoll", "uring"));

// --- pipelined dispatch, on both backends --------------------------------------

// An origin (thread per connection) serving apps::OriginServer content that
// holds a request whose query carries `hold_ms=N` for N ms, holds one that
// carries `after=V` until a request tagged V has arrived (at most 2 s), and
// echoes its `variant` query value as X-Variant. It tracks how many tagged
// (`variant`) requests it serves at once; the proxy's prefetches carry no tag.
class HoldingOrigin {
 public:
  explicit HoldingOrigin(apps::OriginServer* origin) : origin_(origin) {}
  std::uint16_t port() const { return server_.port(); }
  std::size_t peak_tagged() const { return peak_.load(); }

 private:
  void serve(TcpStream stream) {
    try {
      HttpReader reader(&stream);
      while (auto request = reader.read_request()) {
        const std::optional<std::string> variant = request->uri.query_param("variant");
        if (variant) {
          raise_peak(peak_, ++in_flight_);
          const std::lock_guard<std::mutex> lock(arrivals_mutex_);
          arrived_.insert(*variant);
          arrival_.notify_all();
        }
        if (const auto after = request->uri.query_param("after")) {
          std::unique_lock<std::mutex> lock(arrivals_mutex_);
          arrival_.wait_for(lock, std::chrono::seconds(2),
                            [&] { return arrived_.count(*after) > 0; });
        }
        if (const auto hold = request->uri.query_param("hold_ms")) {
          std::this_thread::sleep_for(std::chrono::milliseconds(std::stoi(*hold)));
        }
        http::Response response;
        {
          const std::lock_guard<std::mutex> lock(origin_mutex_);
          response = origin_->serve(*request);
        }
        if (variant) {
          response.headers.set("X-Variant", *variant);
          --in_flight_;
        }
        write_response(stream, response);
      }
    } catch (const Error&) {
      // The proxy closed the connection.
    }
  }

  apps::OriginServer* origin_;
  std::mutex origin_mutex_;
  std::atomic<std::size_t> in_flight_{0};
  std::atomic<std::size_t> peak_{0};
  std::mutex arrivals_mutex_;
  std::condition_variable arrival_;
  std::set<std::string> arrived_;
  ThreadedOrigin server_{[this](TcpStream s) { serve(std::move(s)); }};
};

// `requests`, each tagged with X-Appx-User `user`, as one pipelined byte
// stream.
std::string pipelined(std::vector<http::Request> requests, const std::string& user) {
  std::string wire;
  for (http::Request& request : requests) {
    request.headers.set("X-Appx-User", user);
    wire += request.serialize();
  }
  return wire;
}

// The raw bytes of the next `n` responses on `stream`.
std::vector<std::string> read_response_wires(TcpStream& stream, std::size_t n) {
  HttpParser parser;
  std::vector<std::string> wires;
  char buf[4096];
  while (wires.size() < n) {
    if (const auto message = parser.next_message()) {
      wires.emplace_back(*message);
      continue;
    }
    const std::size_t got = stream.read_some(buf, sizeof buf);
    if (got == 0) throw Error("closed after " + std::to_string(wires.size()) + " responses");
    parser.append(buf, got);
  }
  return wires;
}

class PipelinedDispatch : public UpstreamExchange {
 protected:
  // A feed miss tagged `variant` (echoed as X-Variant by HoldingOrigin),
  // held `hold_ms` at the origin when nonzero.
  http::Request tagged_feed(const std::string& variant, int hold_ms = 0) const {
    http::Request req = unique_feed(variant);
    if (hold_ms > 0) req.uri.add_query_param("hold_ms", std::to_string(hold_ms));
    return req;
  }

  // Teach `user`'s session the feed and the detail values, so that
  // detail_request(1..) are cache hits.
  void prime(LiveProxyServer& proxy, const std::string& user) {
    TestClient client(proxy.port(), user);
    ASSERT_TRUE(client.send(feed_request()).ok());
    ASSERT_TRUE(client.send(detail_request(0)).ok());
    proxy.drain_prefetches();
  }

  static TcpStream connect_to(const LiveProxyServer& proxy) {
    TcpStream stream = TcpStream::connect("127.0.0.1", proxy.port());
    stream.set_read_timeout(seconds(10));
    return stream;
  }
};

TEST_P(PipelinedDispatch, PipelinedMissesRunConcurrentlyAndAnswerInOrder) {
  // The origin holds the first miss 200 ms. The second reaches it meanwhile
  // (one request at a time would show a peak of 1) and is answered first
  // upstream, yet its response leaves after the first one. The two travel on
  // separate upstream connections, so the second may reach the origin first;
  // it then waits there for the first instead of finishing before it comes.
  HoldingOrigin origin(&origin_);
  auto proxy = proxy_to(origin.port(), options());
  TcpStream stream = connect_to(*proxy);
  http::Request after_first = tagged_feed("second");
  after_first.uri.add_query_param("after", "first");
  stream.write_all(pipelined({tagged_feed("first", 200), after_first}, "u1"));
  HttpReader reader(&stream);
  const auto first = reader.read_response();
  const auto second = reader.read_response();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->headers.get("X-Variant").value_or(""), "first");
  EXPECT_EQ(second->headers.get("X-Variant").value_or(""), "second");
  EXPECT_EQ(second->headers.get("X-Appx-Cache").value_or(""), "miss");
  EXPECT_EQ(origin.peak_tagged(), 2u);
}

TEST_P(PipelinedDispatch, RingBoundsTheRequestsInFlightPerConnection) {
  // 40 pipelined misses against an origin that never answers: 16 are in
  // flight at once, and each 504 at the deadline frees a slot for the next,
  // so the batch drains in three deadline rounds (16 + 16 + 8).
  BlackHole hole;
  core::EngineOptions opts = options();
  const auto deadline = std::chrono::milliseconds(400);
  opts.request_deadline = milliseconds(deadline.count());
  auto proxy = proxy_to(hole.port(), opts);
  std::vector<http::Request> batch;
  for (int i = 0; i < 40; ++i) batch.push_back(unique_feed("ring" + std::to_string(i)));
  TcpStream stream = connect_to(*proxy);
  const auto started = std::chrono::steady_clock::now();
  stream.write_all(pipelined(std::move(batch), "u1"));
  HttpReader reader(&stream);
  for (int i = 0; i < 40; ++i) {
    const auto response = reader.read_response();
    ASSERT_TRUE(response.has_value()) << "response " << i;
    EXPECT_EQ(response->status, 504) << "response " << i;
  }
  const double elapsed = ms_since(started);
  EXPECT_GE(elapsed, 3 * deadline.count() - 10.0);
  EXPECT_LT(elapsed, 3 * deadline.count() + 2000.0);

  // The origin saw 16 requests before the first deadline and all 40 in the end.
  const auto arrivals = hole.arrivals();
  ASSERT_EQ(arrivals.size(), 40u);
  const auto first_round_ends = arrivals.front() + deadline / 2;
  EXPECT_EQ(std::count_if(arrivals.begin(), arrivals.end(),
                          [&](auto t) { return t < first_round_ends; }),
            16);
}

TEST_P(PipelinedDispatch, MoreThanARingOfInlineAnswersDrainsWithoutMoreInput) {
  // 40 admin requests in one segment are answered inline at dispatch, so
  // the ring fills with ready slots: it must flush them and dispatch the
  // rest of the buffered batch without waiting for another read.
  auto proxy = proxy_to(origin_server_.port(), options());
  std::vector<http::Request> batch(40, admin_request("/appx/nope"));
  TcpStream stream = connect_to(*proxy);
  stream.write_all(pipelined(std::move(batch), "u1"));
  HttpReader reader(&stream);
  for (int i = 0; i < 40; ++i) {
    const auto response = reader.read_response();
    ASSERT_TRUE(response.has_value()) << "response " << i;
    EXPECT_EQ(response->status, 404) << "response " << i;
  }
}

TEST_P(PipelinedDispatch, HeldMissesOfOtherClientsDoNotDelayAMiss) {
  // One loop, two clients pipelining 16 misses each that the origin holds
  // for seconds: all 32 reach the origin at once, and a third client's miss
  // meanwhile is answered at the origin's own pace, not after them.
  HoldingOrigin origin(&origin_);
  core::EngineOptions opts = options();
  opts.loop_threads = 1;
  auto proxy = proxy_to(origin.port(), opts);
  std::vector<TcpStream> held;
  for (int c = 0; c < 2; ++c) {
    std::vector<http::Request> batch;
    for (int i = 0; i < 16; ++i) {
      batch.push_back(tagged_feed("held" + std::to_string(c) + "-" + std::to_string(i), 2000));
    }
    held.push_back(connect_to(*proxy));
    held.back().write_all(pipelined(std::move(batch), "u" + std::to_string(c)));
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (origin.peak_tagged() < 32 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(origin.peak_tagged(), 32u);

  TcpStream third = connect_to(*proxy);
  const auto started = std::chrono::steady_clock::now();
  third.write_all(pipelined({tagged_feed("prompt")}, "u2"));
  HttpReader third_reader(&third);
  const auto answer = third_reader.read_response();
  ASSERT_TRUE(answer.has_value());
  EXPECT_EQ(answer->headers.get("X-Variant").value_or(""), "prompt");
  EXPECT_LT(ms_since(started), 1000.0);

  for (int c = 0; c < 2; ++c) {
    HttpReader reader(&held[c]);
    for (int i = 0; i < 16; ++i) {
      const auto response = reader.read_response();
      ASSERT_TRUE(response.has_value());
      EXPECT_EQ(response->headers.get("X-Variant").value_or(""),
                "held" + std::to_string(c) + "-" + std::to_string(i));
    }
  }
}

TEST_P(PipelinedDispatch, EveryPipelinedMissIsAnsweredWithoutKeepAlive) {
  // upstream_pool_per_host = 0 connects (and closes) an origin connection
  // per exchange, so pipelined waves from several clients churn descriptors
  // on one loop as fast as it runs. Every miss must still be answered, in
  // order, well inside the request deadline.
  core::EngineOptions opts = options();
  opts.loop_threads = 1;
  opts.upstream_pool_per_host = 0;
  opts.request_deadline = seconds(5);  // a lost exchange shows as a 504
  auto proxy = proxy_to(origin_server_.port(), opts);
  constexpr int kClients = 8;
  constexpr int kPerClient = 16;
  for (int round = 0; round < 8; ++round) {
    std::vector<TcpStream> streams;
    for (int c = 0; c < kClients; ++c) {
      std::vector<http::Request> batch;
      for (int i = 0; i < kPerClient; ++i) {
        batch.push_back(tagged_feed("r" + std::to_string(round) + "c" + std::to_string(c) +
                                    "-" + std::to_string(i)));
      }
      streams.push_back(connect_to(*proxy));
      streams.back().write_all(pipelined(std::move(batch), "u" + std::to_string(c)));
    }
    for (int c = 0; c < kClients; ++c) {
      HttpReader reader(&streams[c]);
      for (int i = 0; i < kPerClient; ++i) {
        const auto response = reader.read_response();
        ASSERT_TRUE(response.has_value()) << "round " << round << " client " << c << " #" << i;
        EXPECT_EQ(response->status, 200) << "round " << round << " client " << c << " #" << i;
      }
    }
  }
  proxy->drain_prefetches();
  EXPECT_EQ(counter(*proxy, "appx_upstream_reuse_total"), 0);
}

TEST_P(PipelinedDispatch, RandomSplitPointsGiveTheSameResponseBytes) {
  // A pipelined batch of hits, misses and admin requests, written in seeded
  // random segments, yields byte-identical responses to a one-segment write.
  // The metrics scrape's body carries live counters, so only its status
  // line is compared.
  auto proxy = proxy_to(origin_server_.port(), options());
  prime(*proxy, "split");
  http::Request unknown = detail_request(0);
  unknown.uri.path = "/definitely/not";
  const std::string batch = pipelined(
      {detail_request(1), unknown, detail_request(2), admin_request("/appx/metrics"),
       detail_request(3), unknown, admin_request("/appx/nope"), detail_request(4)},
      "split");
  constexpr std::size_t kResponses = 8;
  constexpr std::size_t kScrape = 3;
  const auto status_line = [](const std::string& wire) { return wire.substr(0, wire.find("\r\n")); };

  TcpStream single = connect_to(*proxy);
  single.write_all(batch);
  const std::vector<std::string> expected = read_response_wires(single, kResponses);
  EXPECT_NE(expected[0].find("X-Appx-Cache: hit"), std::string::npos);
  EXPECT_NE(expected[1].find("X-Appx-Cache: miss"), std::string::npos);
  EXPECT_EQ(status_line(expected[kScrape]), "HTTP/1.1 200 OK");

  Rng rng(17);
  for (int trial = 0; trial < 12; ++trial) {
    std::vector<std::size_t> cuts;
    const auto n_cuts = rng.uniform_int(1, 8);
    for (std::int64_t i = 0; i < n_cuts; ++i) {
      cuts.push_back(static_cast<std::size_t>(
          rng.uniform_int(1, static_cast<std::int64_t>(batch.size()) - 1)));
    }
    cuts.push_back(batch.size());
    std::sort(cuts.begin(), cuts.end());
    TcpStream stream = connect_to(*proxy);
    std::size_t from = 0;
    for (const std::size_t cut : cuts) {
      if (cut == from) continue;
      stream.write_all(std::string_view(batch).substr(from, cut - from));
      from = cut;
      std::this_thread::sleep_for(std::chrono::microseconds(rng.uniform_int(0, 2000)));
    }
    const std::vector<std::string> got = read_response_wires(stream, kResponses);
    for (std::size_t i = 0; i < kResponses; ++i) {
      if (i == kScrape) {
        EXPECT_EQ(status_line(got[i]), status_line(expected[i])) << "trial " << trial;
      } else {
        EXPECT_EQ(got[i], expected[i]) << "trial " << trial << ", response " << i;
      }
    }
  }
}

TEST_P(PipelinedDispatch, PrefetchAccountingBalancesAfterPipelinedWaves) {
  // Waves on one connection, as an app's HTTP client sends them: the feed
  // and the first detail together (the detail's on_request precedes the
  // feed's on_response), then a photo-like wave of details.
  auto proxy = proxy_to(origin_server_.port(), options());
  TcpStream stream = connect_to(*proxy);
  HttpReader reader(&stream);
  const auto wave = [&](std::vector<http::Request> requests) {
    const std::size_t n = requests.size();
    stream.write_all(pipelined(std::move(requests), "waves"));
    std::vector<http::Response> responses;
    for (std::size_t i = 0; i < n; ++i) {
      auto response = reader.read_response();
      if (!response) throw Error("connection closed mid-wave");
      responses.push_back(std::move(*response));
    }
    return responses;
  };
  for (const auto& response : wave({feed_request(), detail_request(0)})) {
    EXPECT_TRUE(response.ok());
  }
  for (const auto& response :
       wave({detail_request(1), detail_request(2), detail_request(3), detail_request(4)})) {
    EXPECT_TRUE(response.ok());
  }
  proxy->drain_prefetches();
  for (const auto& response :
       wave({detail_request(5), detail_request(6), detail_request(7), detail_request(8)})) {
    EXPECT_EQ(response.headers.get("X-Appx-Cache").value_or(""), "hit");
  }
  proxy->drain_prefetches();
  const auto& stats = adapter_->stats();
  EXPECT_GT(stats.prefetches_issued, 8u);
  EXPECT_EQ(stats.prefetch_responses + stats.prefetch_failures + stats.prefetches_dropped,
            stats.prefetches_issued);
}

TEST_P(PipelinedDispatch, OversizedRequestIsRefusedAfterTheRequestsBeforeIt) {
  // The 431 for the second request queues behind the first one's response,
  // which the origin holds 200 ms; then the connection closes.
  HoldingOrigin origin(&origin_);
  core::EngineOptions opts = options();
  opts.reader_limits.max_head_bytes = 512;
  auto proxy = proxy_to(origin.port(), opts);
  http::Request huge = feed_request();
  huge.headers.set("X-Huge", std::string(2048, 'h'));
  TcpStream stream = connect_to(*proxy);
  stream.write_all(pipelined({tagged_feed("held", 200), huge}, "u1"));
  HttpReader reader(&stream);
  const auto first = reader.read_response();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->status, 200);
  EXPECT_EQ(first->headers.get("X-Variant").value_or(""), "held");
  const auto refused = reader.read_response();
  ASSERT_TRUE(refused.has_value());
  EXPECT_EQ(refused->status, 431);
  EXPECT_FALSE(reader.read_response().has_value());
}

TEST_P(PipelinedDispatch, MalformedRequestIsAnsweredAfterTheGoodOnesBeforeIt) {
  HoldingOrigin origin(&origin_);
  auto proxy = proxy_to(origin.port(), options());
  prime(*proxy, "u1");
  TcpStream stream = connect_to(*proxy);
  stream.write_all(pipelined({detail_request(1), tagged_feed("held", 100)}, "u1") +
                   "BOGUS\r\n\r\n");
  HttpReader reader(&stream);
  const auto hit = reader.read_response();
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->headers.get("X-Appx-Cache").value_or(""), "hit");
  const auto miss = reader.read_response();
  ASSERT_TRUE(miss.has_value());
  EXPECT_EQ(miss->headers.get("X-Variant").value_or(""), "held");
  EXPECT_FALSE(reader.read_response().has_value());
}

TEST_P(PipelinedDispatch, HalfCloseAfterAPipelinedBatchStillGetsEveryResponse) {
  HoldingOrigin origin(&origin_);
  auto proxy = proxy_to(origin.port(), options());
  prime(*proxy, "u1");
  TcpStream stream = connect_to(*proxy);
  stream.write_all(
      pipelined({tagged_feed("a", 200), detail_request(1), tagged_feed("b")}, "u1"));
  stream.shutdown_write();
  HttpReader reader(&stream);
  const auto a = reader.read_response();
  const auto hit = reader.read_response();
  const auto b = reader.read_response();
  ASSERT_TRUE(a.has_value() && hit.has_value() && b.has_value());
  EXPECT_EQ(a->headers.get("X-Variant").value_or(""), "a");
  EXPECT_EQ(hit->headers.get("X-Appx-Cache").value_or(""), "hit");
  EXPECT_EQ(b->headers.get("X-Variant").value_or(""), "b");
  char buf[64];
  EXPECT_EQ(stream.read_some(buf, sizeof buf), 0u);  // EOF: every answer written
}

TEST_P(PipelinedDispatch, IdleTimerSparesAConnectionWithRequestsInFlight) {
  // The origin holds the first request three idle periods; the connection
  // must survive to deliver both responses.
  HoldingOrigin origin(&origin_);
  core::EngineOptions opts = options();
  opts.conn_idle_timeout = milliseconds(200);
  auto proxy = proxy_to(origin.port(), opts);
  TcpStream stream = connect_to(*proxy);
  stream.write_all(pipelined({tagged_feed("slow", 600), tagged_feed("fast")}, "u1"));
  HttpReader reader(&stream);
  const auto slow = reader.read_response();
  const auto fast = reader.read_response();
  ASSERT_TRUE(slow.has_value() && fast.has_value());
  EXPECT_EQ(slow->headers.get("X-Variant").value_or(""), "slow");
  EXPECT_EQ(fast->headers.get("X-Variant").value_or(""), "fast");
}

INSTANTIATE_TEST_SUITE_P(Backends, PipelinedDispatch, ::testing::Values("epoll", "uring"));

TEST(LiveOrigin, MetricsEndpointCountsServes) {
  apps::AppSpec spec = apps::make_wish();
  apps::OriginServer origin(&spec);
  LiveOriginServer server(&origin);
  TestClient client(server.port(), "u1");

  http::Request req;
  req.method = "POST";
  req.uri = http::Uri::parse("https://" + spec.endpoint("feed").host + "/api/get-feed");
  req.uri.add_query_param("offset", "0");
  req.uri.add_query_param("count", "30");
  req.set_form_fields({{"_client", "android"}, {"_ver", "4.13.0"}});
  ASSERT_TRUE(client.send(req).ok());

  const auto scrape = client.send(admin_request("/appx/metrics"));
  ASSERT_EQ(scrape.status, 200);
  const auto metrics = parse_prometheus(scrape.body);
  EXPECT_EQ(metrics.at("appx_origin_requests_total"), 1.0);
  EXPECT_GE(metrics.at("appx_origin_serve_us_count"), 1.0);
  server.stop();
}

// --- Zero-copy data plane (DESIGN.md §5h) -------------------------------------

// A keep-alive connection runs many requests through one Conn: the
// per-request arena resets and the parser pin/unpin cycle must leave no
// state behind between requests (stale views, stuck pins, or unmerged
// overflow bytes would corrupt a later request on the same connection).
TEST_F(LiveProxyTest, KeepAliveConnectionServesManyRequestsThroughOneArena) {
  TestClient client(proxy_server_->port(), "u1");
  ASSERT_TRUE(client.send(feed_request()).ok());
  client.send(detail_request(0));
  proxy_server_->drain_prefetches();
  const std::string expected = origin_.serve(detail_request(1)).body.str();
  for (int round = 0; round < 20; ++round) {
    const auto response = client.send(detail_request(1));
    ASSERT_TRUE(response.ok()) << "round " << round;
    EXPECT_EQ(response.headers.get("X-Appx-Cache").value(), "hit") << "round " << round;
    ASSERT_EQ(response.body, expected) << "round " << round;
  }
}

// The refcounted slab keeps a served body alive independently of the cache
// entry it came from: tearing the whole proxy (and with it every per-user
// PrefetchCache) down while responses are still being read must not yield
// corrupt bytes on connections that were already answered.
TEST_F(LiveProxyTest, CachedBodySurvivesProxyTeardownRace) {
  TestClient client(proxy_server_->port(), "u1");
  ASSERT_TRUE(client.send(feed_request()).ok());
  client.send(detail_request(0));
  proxy_server_->drain_prefetches();
  const std::string expected = origin_.serve(detail_request(1)).body.str();
  const auto hit = client.send(detail_request(1));
  EXPECT_EQ(hit.headers.get("X-Appx-Cache").value(), "hit");
  EXPECT_EQ(hit.body, expected);
  // Destroy the server (cache included) immediately after the hit; the
  // response already read must be intact — its slab owns the bytes.
  proxy_server_.reset();
  EXPECT_EQ(hit.body, expected);
}

// Hit and miss markers are stamped at serialize time (no header mutation on
// the cached response object): the cached entry must keep serving 'hit'
// after a round-trip, and the stored response must not accumulate markers.
// --- listen backlog (scale-blocking bugfix: the hardcoded 64) ----------------

// Fires `total` non-blocking connects at `port` and returns how many complete
// within `wait_ms`. The target listener never accepts, so completions are
// bounded by the kernel accept queue — i.e. by listen(2)'s backlog argument.
std::size_t burst_connect(std::uint16_t port, std::size_t total, int wait_ms) {
  std::vector<TcpStream> streams;
  std::vector<pollfd> fds;
  streams.reserve(total);
  fds.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    streams.push_back(TcpStream::begin_connect("127.0.0.1", port));
    fds.push_back({streams.back().fd(), POLLOUT, 0});
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(wait_ms);
  std::size_t established = 0;
  std::vector<bool> done(total, false);
  while (established < total) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) break;
    const int ready = ::poll(fds.data(), fds.size(), static_cast<int>(left.count()));
    if (ready <= 0) break;
    bool progressed = false;
    for (std::size_t i = 0; i < total; ++i) {
      if (done[i] || (fds[i].revents & (POLLOUT | POLLERR | POLLHUP)) == 0) continue;
      done[i] = true;
      fds[i].fd = -1;  // poll ignores negative fds
      progressed = true;
      if (streams[i].connect_result() == 0) ++established;
    }
    if (!progressed) break;
  }
  return established;
}

TEST(TcpListenerBacklog, BurstBeyondShortBacklogIsDropped) {
  // A listener that never accepts: connects complete only while the kernel
  // accept queue has room. With the seed's hardcoded backlog of 64, a burst
  // of 256 strands most of the clients in SYN retry (this is the regression
  // this test pins); the default (SOMAXCONN) must absorb the whole burst.
  constexpr std::size_t kBurst = 256;
  TcpListener short_backlog(0, /*reuse_port=*/false, /*backlog=*/64);
  const std::size_t through_short = burst_connect(short_backlog.port(), kBurst, 400);
  EXPECT_LT(through_short, kBurst)
      << "a 64-deep accept queue absorbed a 256-connection burst; "
         "kernel backlog semantics changed?";

  TcpListener default_backlog(0, /*reuse_port=*/false, /*backlog=*/0);  // SOMAXCONN
  const std::size_t through_default = burst_connect(default_backlog.port(), kBurst, 2000);
  EXPECT_EQ(through_default, kBurst);
  short_backlog.close();
  default_backlog.close();
}

TEST(TcpStreamConnect, BeginConnectCompletesAgainstAListener) {
  TcpListener listener(0);
  TcpStream stream = TcpStream::begin_connect("127.0.0.1", listener.port());
  pollfd pfd{stream.fd(), POLLOUT, 0};
  ASSERT_GT(::poll(&pfd, 1, 2000), 0);
  EXPECT_EQ(stream.connect_result(), 0);
  listener.close();
}

TEST(TcpStreamConnect, BeginConnectReportsRefusal) {
  // Bind-then-close: the port is (briefly) guaranteed unoccupied.
  std::uint16_t dead_port;
  {
    TcpListener listener(0);
    dead_port = listener.port();
    listener.close();
  }
  TcpStream stream = TcpStream::begin_connect("127.0.0.1", dead_port);
  pollfd pfd{stream.fd(), POLLOUT, 0};
  ASSERT_GT(::poll(&pfd, 1, 2000), 0);
  EXPECT_EQ(stream.connect_result(), ECONNREFUSED);
}

TEST(TcpStreamConnect, BeginConnectRejectsBadAddress) {
  EXPECT_THROW(TcpStream::begin_connect("not-an-ip", 80), Error);
}

// --- RLIMIT_NOFILE detection (scale-blocking bugfix: EMFILE mid-run) ---------

// Restores the process fd limits on scope exit, whatever the test did.
class FdLimitGuard {
 public:
  FdLimitGuard() { ::getrlimit(RLIMIT_NOFILE, &saved_); }
  ~FdLimitGuard() { ::setrlimit(RLIMIT_NOFILE, &saved_); }

  rlim_t hard() const { return saved_.rlim_max; }
  void lower_soft(rlim_t soft) {
    rlimit lowered = saved_;
    lowered.rlim_cur = soft;
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);
  }

 private:
  rlimit saved_{};
};

TEST(FdLimits, EnsureCapacityRaisesLoweredSoftLimit) {
  FdLimitGuard guard;
  guard.lower_soft(64);
  ASSERT_EQ(fd_limits().soft, 64u);
  const util::Error err = ensure_fd_capacity(1024);
  EXPECT_TRUE(err.ok()) << err.message();
  EXPECT_GE(fd_limits().soft, 1024u);
}

TEST(FdLimits, FailsFastWithActionableErrorBeyondHardLimit) {
  FdLimitGuard guard;
  const std::size_t beyond = static_cast<std::size_t>(guard.hard()) + 1;
  const util::Error err = ensure_fd_capacity(beyond);
  ASSERT_FALSE(err.ok());
  // Actionable: names the limit and tells the operator how to raise it.
  EXPECT_NE(err.message().find("RLIMIT_NOFILE"), std::string::npos) << err.message();
  EXPECT_NE(err.message().find("ulimit"), std::string::npos) << err.message();
  EXPECT_NE(err.message().find(std::to_string(beyond)), std::string::npos) << err.message();
}

TEST(FdLimits, ZeroSkipsTheCheck) {
  EXPECT_TRUE(ensure_fd_capacity(0).ok());
}

TEST(FdLimits, ServerConstructionFailsFastWhenDescriptorsCannotBeSecured) {
  // A proxy configured for more connections than the hard limit permits must
  // refuse to start with the rlimit error, not die with EMFILE at ~1k conns.
  FdLimitGuard guard;
  const apps::AppSpec spec = apps::make_wish();
  const analysis::AnalysisResult analysis = analysis::analyze(apps::compile_app(spec));
  core::ProxyConfig config;
  core::EngineOptions options;
  options.min_file_descriptors = static_cast<std::size_t>(guard.hard()) + 1;
  core::ShardedProxyEngine engine(&analysis.signatures, &config, options);
  try {
    LiveProxyServer proxy(&engine, {}, 0, options);
    FAIL() << "LiveProxyServer started despite an unsatisfiable fd requirement";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("RLIMIT_NOFILE"), std::string::npos) << e.what();
  }
}

TEST_F(LiveProxyTest, CacheMarkersDoNotAccumulateOnTheStoredResponse) {
  TestClient client(proxy_server_->port(), "u1");
  ASSERT_TRUE(client.send(feed_request()).ok());
  client.send(detail_request(0));
  proxy_server_->drain_prefetches();
  for (int round = 0; round < 3; ++round) {
    const auto response = client.send(detail_request(1));
    EXPECT_EQ(response.headers.get("X-Appx-Cache").value(), "hit");
    // Exactly one marker on the wire: a second would have been parsed over
    // the first, so probe the raw header multiset via re-serialization.
    std::size_t markers = 0;
    for (const auto& [name, value] : response.headers.items()) {
      if (name == "X-Appx-Cache") ++markers;
    }
    EXPECT_EQ(markers, 1u) << "round " << round;
  }
}

// --- EventLoop conformance suite (DESIGN.md §5g/§5l) ------------------------
//
// Both backends must honor the same contract: the completion ops the
// servers run on (caller-owned buffers, partial sends, accept, cancel_fd
// dropping undelivered results), timers that never fire early nor busy-poll,
// cross-thread post with the stop-with-final-drain guarantee, and accept
// backoff on descriptor exhaustion. The suite runs once per backend; the
// uring instantiation skips on kernels without io_uring support. The
// readiness API (add_fd/mod_fd/del_fd) is epoll-only: see EpollReadiness.

// Polls `cond` until true or the deadline passes.
bool wait_for_cond(const std::function<bool()>& cond,
                   std::chrono::milliseconds limit = std::chrono::milliseconds(5000)) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!cond()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// One event loop running on a background thread for the length of a test.
class LoopHarness {
 protected:
  void start_loop(std::string_view backend) {
    loop_ = make_event_loop(backend);
    runner_ = std::thread([this] { loop_->run(); });
  }

  void stop_loop() {
    if (loop_ && runner_.joinable()) {
      loop_->stop();
      runner_.join();
    }
  }

  // Runs `fn` on the loop thread and waits for it to finish (the op, fd and
  // timer APIs are loop-thread-only).
  void on_loop(std::function<void()> fn) {
    std::promise<void> done;
    loop_->post([&] {
      fn();
      done.set_value();
    });
    done.get_future().wait();
  }

  // A connected AF_UNIX pair; [0] is watched by the loop, [1] driven by the
  // test thread.
  struct Pair {
    Pair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0); }
    ~Pair() {
      ::close(fds[0]);
      ::close(fds[1]);
    }
    void poke() const { EXPECT_EQ(::write(fds[1], "x", 1), 1); }
    int fds[2] = {-1, -1};
  };

  std::unique_ptr<EventLoop> loop_;
  std::thread runner_;
};

class EventLoopConformance : public ::testing::TestWithParam<const char*>,
                             protected LoopHarness {
 protected:
  void SetUp() override {
    if (GetParam() == std::string_view("uring") && !uring_supported()) {
      GTEST_SKIP() << "kernel lacks io_uring support (or APPX_NO_URING=1)";
    }
    start_loop(GetParam());
  }

  void TearDown() override { stop_loop(); }
};

TEST_P(EventLoopConformance, ReportsItsBackendName) {
  EXPECT_EQ(loop_->backend_name(), std::string_view(GetParam()));
}

TEST_P(EventLoopConformance, StopDrainsTasksQueuedWithIt) {
  // The header contract: tasks already queued when stop() is observed still
  // run. A close-all posted immediately before stop must execute.
  std::atomic<bool> final_task_ran{false};
  loop_->post([&] {
    loop_->post([&] { final_task_ran.store(true); });
    loop_->stop();
  });
  runner_.join();
  EXPECT_TRUE(final_task_ran.load());
}

TEST_P(EventLoopConformance, CancelledTimerNeverFires) {
  std::atomic<bool> cancelled_ran{false};
  std::atomic<bool> kept_ran{false};
  on_loop([&] {
    const auto now = std::chrono::steady_clock::now();
    const std::uint64_t id =
        loop_->add_timer(now + std::chrono::milliseconds(20), [&] { cancelled_ran.store(true); });
    loop_->add_timer(now + std::chrono::milliseconds(60), [&] { kept_ran.store(true); });
    loop_->cancel_timer(id);  // lazy: the heap entry stays, the task must not run
  });
  ASSERT_TRUE(wait_for_cond([&] { return kept_ran.load(); }));
  EXPECT_FALSE(cancelled_ran.load());
}

TEST_P(EventLoopConformance, TimersNeitherFireEarlyNorBusyPoll) {
  // Regression: the wait timeout used to truncate the time left to whole
  // milliseconds, so the last sub-millisecond before every timer ran as
  // zero-timeout waits — hundreds of epoll_wait/io_uring_enter calls per
  // firing of a 50.3 ms timer.
  constexpr int kFirings = 10;
  const auto period = std::chrono::microseconds(50'300);
  int fired = 0;
  int early = 0;
  sys::Counters start;
  sys::Counters end;
  std::atomic<bool> finished{false};
  std::function<void()> arm = [&] {
    const auto due = std::chrono::steady_clock::now() + period;
    loop_->add_timer(due, [&, due] {
      if (std::chrono::steady_clock::now() < due) ++early;
      if (++fired < kFirings) {
        arm();
        return;
      }
      end = sys::snapshot();
      finished.store(true);
    });
  };
  on_loop([&] {
    start = sys::snapshot();
    arm();
  });
  ASSERT_TRUE(wait_for_cond([&] { return finished.load(); }));
  const sys::Counters d = end - start;
  EXPECT_EQ(early, 0);
  EXPECT_LE(d.wait + d.enter, 3u * kFirings)
      << "waits " << d.wait << ", enters " << d.enter << " for " << kFirings << " firings";
}

TEST_P(EventLoopConformance, PostFromManyThreadsRunsEveryTask) {
  // Hammers the armed-flag wake elision: coalesced wakeups must never lose a
  // task, whatever the interleaving of posters and sleep cycles.
  constexpr int kThreads = 8;
  constexpr int kPostsPerThread = 500;
  std::atomic<int> ran{0};
  std::vector<std::thread> posters;
  posters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    posters.emplace_back([&] {
      for (int i = 0; i < kPostsPerThread; ++i) loop_->post([&] { ran.fetch_add(1); });
    });
  }
  for (std::thread& t : posters) t.join();
  ASSERT_TRUE(wait_for_cond([&] { return ran.load() == kThreads * kPostsPerThread; }));
  EXPECT_EQ(loop_->pending_tasks(), 0u);
}

TEST_P(EventLoopConformance, RecvSendmsgRoundTripOnCallerOwnedBuffers) {
  Pair pair;

  // recv completes with the bytes the peer wrote into the caller's buffer.
  char buf[16] = {};
  std::promise<int> recv_res;
  on_loop([&] {
    loop_->submit_recv(pair.fds[0], buf, sizeof buf, [&](int res) { recv_res.set_value(res); });
  });
  ASSERT_EQ(::write(pair.fds[1], "ping", 4), 4);
  ASSERT_EQ(recv_res.get_future().get(), 4);
  EXPECT_EQ(std::string_view(buf, 4), "ping");

  // sendmsg of a caller-owned iovec lands on the peer.
  const char reply[] = "pong!";
  struct iovec iov { const_cast<char*>(reply), 5 };
  struct msghdr msg {};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  std::promise<int> send_res;
  on_loop([&] {
    loop_->submit_sendmsg(pair.fds[0], &msg, [&](int res) { send_res.set_value(res); });
  });
  ASSERT_EQ(send_res.get_future().get(), 5);
  char peer[16] = {};
  ASSERT_EQ(::read(pair.fds[1], peer, sizeof peer), 5);
  EXPECT_EQ(std::string_view(peer, 5), "pong!");

  // cancel_fd drops a parked recv without invoking its callback.
  std::atomic<bool> cancelled_cb_ran{false};
  on_loop([&] {
    loop_->submit_recv(pair.fds[0], buf, sizeof buf, [&](int) { cancelled_cb_ran.store(true); });
  });
  on_loop([&] { loop_->cancel_fd(pair.fds[0]); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(cancelled_cb_ran.load());
}

TEST_P(EventLoopConformance, SubmitRecvIssuesNoRecvUntilTheFdIsReadable) {
  // The epoll emulation parks the op on readiness: no speculative recv
  // inside the submit, none while the fd is quiet, one once it is readable.
  Pair pair;
  char buf[8];
  std::atomic<int> result{-1000};
  sys::Counters submitted;
  on_loop([&] {
    const sys::Counters before = sys::snapshot();
    loop_->submit_recv(pair.fds[0], buf, sizeof buf, [&](int res) { result.store(res); });
    submitted = sys::snapshot();
    EXPECT_EQ(submitted.read - before.read, 0u);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(sys::snapshot().read - submitted.read, 0u);
  EXPECT_EQ(result.load(), -1000);
  pair.poke();
  ASSERT_TRUE(wait_for_cond([&] { return result.load() == 1; }));
  on_loop([&] { loop_->cancel_fd(pair.fds[0]); });
}

TEST_P(EventLoopConformance, SendmsgLargerThanTheSendBufferCompletesThroughPartialResults) {
  Pair pair;
  const int flags = ::fcntl(pair.fds[0], F_GETFL, 0);
  ASSERT_EQ(::fcntl(pair.fds[0], F_SETFL, flags | O_NONBLOCK), 0);
  const int sndbuf = 16 * 1024;
  ASSERT_EQ(::setsockopt(pair.fds[0], SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof sndbuf), 0);
  std::string payload(1 << 20, '\0');
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<char>('a' + i % 26);

  std::size_t sent = 0;
  std::size_t first = 0;
  int completions = 0;
  int error = 0;
  struct iovec iov {};
  struct msghdr msg {};
  std::promise<void> done;
  std::function<void()> send_rest = [&] {
    iov.iov_base = payload.data() + sent;
    iov.iov_len = payload.size() - sent;
    msg.msg_iov = &iov;
    msg.msg_iovlen = 1;
    loop_->submit_sendmsg(pair.fds[0], &msg, [&](int res) {
      if (res <= 0) {
        error = res;
        done.set_value();
        return;
      }
      if (completions++ == 0) first = static_cast<std::size_t>(res);
      sent += static_cast<std::size_t>(res);
      if (sent == payload.size()) {
        done.set_value();
      } else {
        send_rest();
      }
    });
  };
  on_loop(send_rest);
  std::string received;
  char chunk[64 * 1024];
  while (received.size() < payload.size()) {
    const ssize_t n = ::read(pair.fds[1], chunk, sizeof chunk);
    ASSERT_GT(n, 0);
    received.append(chunk, static_cast<std::size_t>(n));
  }
  done.get_future().wait();
  EXPECT_EQ(error, 0);
  EXPECT_LT(first, payload.size());
  EXPECT_GT(completions, 1);
  EXPECT_TRUE(received == payload);
  // Barrier: the loop releases the fd before ~Pair closes it.
  on_loop([&] { loop_->cancel_fd(pair.fds[0]); });
}

TEST_P(EventLoopConformance, CancelFdFromAnotherCallbackDropsACompletionReadyInTheSameBatch) {
  // Both recvs have their data before the loop next looks, so their results
  // arrive in one batch; whichever callback runs first cancels the other
  // fd. The other result is already in hand and must be dropped.
  Pair a;
  Pair b;
  char abuf[8];
  char bbuf[8];
  std::atomic<int> fires{0};
  on_loop([&] {
    loop_->submit_recv(a.fds[0], abuf, sizeof abuf, [&](int) {
      fires.fetch_add(1);
      loop_->cancel_fd(b.fds[0]);
    });
    loop_->submit_recv(b.fds[0], bbuf, sizeof bbuf, [&](int) {
      fires.fetch_add(1);
      loop_->cancel_fd(a.fds[0]);
    });
    a.poke();
    b.poke();
  });
  ASSERT_TRUE(wait_for_cond([&] { return fires.load() >= 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(fires.load(), 1);
  // Barrier: the loop releases both fds before the Pairs close them.
  on_loop([&] {
    loop_->cancel_fd(a.fds[0]);
    loop_->cancel_fd(b.fds[0]);
  });
}

TEST_P(EventLoopConformance, CancelStormDropsEveryPendingCallback) {
  // Regression (uring): cancel_fd used to range-iterate the op table while
  // inserting cancel ops into it — enough simultaneous closes rehash the map
  // mid-walk. One recv per fd over enough fds that the burst of cancel
  // insertions forces a rehash, all cancelled in one task drain.
  constexpr int kPairs = 128;
  std::vector<std::unique_ptr<Pair>> pairs;
  for (int i = 0; i < kPairs; ++i) pairs.push_back(std::make_unique<Pair>());
  static char buf[kPairs][64];
  std::atomic<int> cb_ran{0};
  on_loop([&] {
    for (int i = 0; i < kPairs; ++i) {
      loop_->submit_recv(pairs[i]->fds[0], buf[i], sizeof buf[i],
                         [&](int) { cb_ran.fetch_add(1); });
    }
  });
  on_loop([&] {
    for (const auto& p : pairs) loop_->cancel_fd(p->fds[0]);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(cb_ran.load(), 0);
}

TEST_P(EventLoopConformance, CancelledRecvNeverReadsTheSocketThatReusesItsDescriptor) {
  // Regression (uring): a recv still queued when its fd is cancelled and
  // closed was submitted later anyway, against whatever then held that
  // descriptor number (or fixed-file slot) — a new connection's socket,
  // whose bytes it consumed and dropped. All in one task: queue a recv,
  // cancel and close its fd, reuse the number for a socket that already
  // has data, and read it.
  int old_pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, old_pair), 0);
  int fresh[2] = {-1, -1};
  char old_buf[8];
  char buf[8];
  std::atomic<int> got{-1};
  on_loop([&] {
    loop_->submit_recv(old_pair[0], old_buf, sizeof old_buf, [](int) {});
    loop_->cancel_fd(old_pair[0]);
    ::close(old_pair[0]);
    ::close(old_pair[1]);
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fresh), 0);
    EXPECT_EQ(::write(fresh[1], "x", 1), 1);
    loop_->submit_recv(fresh[0], buf, sizeof buf, [&](int res) { got = res; });
  });
  EXPECT_EQ(fresh[0], old_pair[0]);  // the freed number came back
  EXPECT_TRUE(wait_for_cond([&] { return got.load() != -1; }, std::chrono::milliseconds(2000)))
      << "the new socket's byte went to the cancelled recv";
  EXPECT_EQ(got.load(), 1);
  on_loop([&] { loop_->cancel_fd(fresh[0]); });
  ::close(fresh[0]);
  ::close(fresh[1]);
}

TEST_P(EventLoopConformance, CompletionsPostedDuringAPassWaitForTheNextIteration) {
  // Regression (uring): one pass over the completion queue ran until it
  // found the queue empty. Completions keep arriving while slow callbacks
  // run, so under a steady stream one pass lasted as long as the stream,
  // with its queued ops unsubmitted and its timers unfired. Here each recv
  // callback takes 4 ms while another peer is poked every millisecond; the
  // first callback arms a timer due at once, which must fire after the few
  // recvs that had completed, not after all of them.
  constexpr int kPairs = 48;
  std::vector<std::unique_ptr<Pair>> pairs;
  for (int i = 0; i < kPairs; ++i) pairs.push_back(std::make_unique<Pair>());
  static char buf[kPairs][8];
  std::atomic<int> recvs{0};
  std::atomic<bool> armed{false};
  std::atomic<int> recvs_before_timer{-1};
  on_loop([&] {
    for (int i = 0; i < kPairs; ++i) {
      loop_->submit_recv(pairs[i]->fds[0], buf[i], sizeof buf[i], [&](int) {
        if (!armed.exchange(true)) {
          loop_->add_timer(std::chrono::steady_clock::now(),
                           [&] { recvs_before_timer = recvs.load(); });
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(4));
        recvs.fetch_add(1);
      });
    }
  });
  for (const auto& p : pairs) {
    p->poke();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(wait_for_cond([&] { return recvs.load() == kPairs; }));
  ASSERT_TRUE(wait_for_cond([&] { return recvs_before_timer.load() >= 0; }));
  EXPECT_LT(recvs_before_timer.load(), kPairs / 2);
  on_loop([&] {
    for (const auto& p : pairs) loop_->cancel_fd(p->fds[0]);
  });
}

TEST_P(EventLoopConformance, AcceptDeliversEveryConnection) {
  TcpListener listener(0);
  listener.set_nonblocking();
  std::atomic<int> accepted{0};
  std::vector<int> fds;
  std::mutex fds_mutex;
  on_loop([&] {
    loop_->submit_accept(listener.fd(), [&](int fd) {
      const std::lock_guard<std::mutex> lock(fds_mutex);
      fds.push_back(fd);
      accepted.fetch_add(1);
    });
  });
  std::vector<TcpStream> clients;
  for (int i = 0; i < 5; ++i) {
    clients.push_back(TcpStream::connect("127.0.0.1", listener.port()));
  }
  ASSERT_TRUE(wait_for_cond([&] { return accepted.load() == 5; }));
  on_loop([&] { loop_->cancel_fd(listener.fd()); });
  const std::lock_guard<std::mutex> lock(fds_mutex);
  for (const int fd : fds) ::close(fd);
}

TEST_P(EventLoopConformance, DescriptorExhaustionParksTheListenerInsteadOfSpinning) {
  // Regression (epoll): on EMFILE the level-triggered listener stayed
  // readable and the accept loop spun — hundreds of thousands of accept4 +
  // epoll_wait calls per 300 ms. Both backends must back off, then pick the
  // connection up promptly once descriptors free.
  const apps::AppSpec spec = apps::make_wish();
  apps::OriginServer origin(&spec);
  // Cap the descriptor table before the server starts: io_uring reads the
  // limit when an accept op is prepared, not when it completes.
  int highest_fd = 0;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/fd")) {
    highest_fd = std::max(highest_fd, std::stoi(entry.path().filename().string()));
  }
  FdLimitGuard guard;
  guard.lower_soft(static_cast<rlim_t>(highest_fd) + 64);
  LiveOriginServer server(&origin, 0, /*loop_threads=*/1, GetParam());
  // One connection in and out first, so the loop thread has armed its accept
  // and gone idle before the table fills: an accept attempt reserves a
  // descriptor while it runs (uring), and one that overlapped the hoarding
  // below would hand its slot back under the limit for the client to take.
  {
    const TcpStream warmup = TcpStream::connect("127.0.0.1", server.port());
    ASSERT_TRUE(wait_for_cond([&] { return server.open_connections() == 1; }));
  }
  ASSERT_TRUE(wait_for_cond([&] { return server.open_connections() == 0; }));
  // The client socket exists before the table fills; it connects once the
  // server has no descriptor left.
  const Fd client(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  ASSERT_TRUE(client.valid());
  std::vector<Fd> hoard;
  for (int fd; (fd = ::dup(0)) >= 0;) hoard.emplace_back(fd);
  ASSERT_EQ(errno, EMFILE);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const int rc = ::connect(client.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
  ASSERT_TRUE(rc == 0 || errno == EINPROGRESS);

  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // let it hit EMFILE
  const sys::Counters before = sys::snapshot();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const sys::Counters d = sys::snapshot() - before;
  EXPECT_LE(d.accept, 20u);
  EXPECT_LE(d.wait + d.enter, 60u) << "waits " << d.wait << ", enters " << d.enter;
  EXPECT_EQ(server.open_connections(), 0u);

  hoard.clear();
  const auto freed = std::chrono::steady_clock::now();
  ASSERT_TRUE(wait_for_cond([&] { return server.open_connections() == 1; }));
  EXPECT_LT(ms_since(freed), 100.0);
}

INSTANTIATE_TEST_SUITE_P(Backends, EventLoopConformance, ::testing::Values("epoll", "uring"));

// --- epoll readiness API ----------------------------------------------------
//
// Level-triggered fd masks for callers that drive raw sockets themselves
// (load generators, test origins): del_fd-from-own-callback safety, stale
// events for deleted handlers dropped, interest toggling.

class EpollReadiness : public ::testing::Test, protected LoopHarness {
 protected:
  void SetUp() override { start_loop("epoll"); }
  void TearDown() override { stop_loop(); }
};

TEST_F(EpollReadiness, DelFdFromOwnCallbackIsSafe) {
  // Level-triggered with the byte left unread: without the del_fd the
  // callback would storm. Exactly one delivery proves deregistration from
  // inside the handler works and the handler body is not use-after-freed.
  Pair pair;
  std::atomic<int> fires{0};
  on_loop([&] {
    loop_->add_fd(pair.fds[0], EPOLLIN, [&, fd = pair.fds[0]](std::uint32_t) {
      fires.fetch_add(1);
      loop_->del_fd(fd);
    });
  });
  pair.poke();
  ASSERT_TRUE(wait_for_cond([&] { return fires.load() >= 1; }));
  pair.poke();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(fires.load(), 1);
  EXPECT_EQ(loop_->fd_count(), 0u);
  // Barrier: order the loop thread's del_fd before ~Pair closes the fd.
  on_loop([] {});
}

TEST_F(EpollReadiness, StaleEventForHandlerDeletedMidBatchIsDropped) {
  // Both fds become ready in the same kernel batch; whichever handler runs
  // first deletes the other. The deleted handler's already-harvested event
  // must be dropped, not dispatched into a dead registration.
  Pair a;
  Pair b;
  std::atomic<int> fires{0};
  on_loop([&] {
    const auto kill_other = [&](int own, int other) {
      return [&, own, other](std::uint32_t) {
        fires.fetch_add(1);
        loop_->del_fd(other);
        loop_->del_fd(own);
      };
    };
    loop_->add_fd(a.fds[0], EPOLLIN, kill_other(a.fds[0], b.fds[0]));
    loop_->add_fd(b.fds[0], EPOLLIN, kill_other(b.fds[0], a.fds[0]));
  });
  a.poke();
  b.poke();
  ASSERT_TRUE(wait_for_cond([&] { return fires.load() >= 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(fires.load(), 1);
  EXPECT_EQ(loop_->fd_count(), 0u);
  // Barrier: order the loop thread's del_fds before the Pairs close the fds.
  on_loop([] {});
}

TEST_F(EpollReadiness, ModFdTogglesInterest) {
  // Watch an empty-but-writable socket for EPOLLIN only (silent), then
  // toggle to EPOLLOUT: exactly one writable delivery, after which the
  // callback toggles back to quiesce the level-triggered writability.
  Pair pair;
  std::atomic<int> fires{0};
  on_loop([&] {
    loop_->add_fd(pair.fds[0], EPOLLIN, [&, fd = pair.fds[0]](std::uint32_t events) {
      if ((events & EPOLLOUT) != 0) {
        fires.fetch_add(1);
        loop_->mod_fd(fd, EPOLLIN);
      }
    });
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(fires.load(), 0);
  on_loop([&] { loop_->mod_fd(pair.fds[0], EPOLLOUT); });
  ASSERT_TRUE(wait_for_cond([&] { return fires.load() >= 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(fires.load(), 1);
  on_loop([&] { loop_->del_fd(pair.fds[0]); });
}

TEST(UringReadiness, ReadinessApiIsRefused) {
  // The uring backend has no readiness emulation: callers must use the ops.
  if (!uring_supported()) GTEST_SKIP() << "kernel lacks io_uring support";
  const std::unique_ptr<EventLoop> loop = make_uring_event_loop();
  EXPECT_THROW(loop->add_fd(0, EPOLLIN, [](std::uint32_t) {}), InvalidStateError);
  EXPECT_THROW(loop->mod_fd(0, EPOLLIN), InvalidStateError);
  EXPECT_THROW(loop->del_fd(0), InvalidStateError);
}

TEST(IoBackendResolve, RejectsUnknownNames) {
  EXPECT_THROW(resolve_io_backend("iocp"), InvalidArgumentError);
}

TEST(IoBackendResolve, AutoPicksUringExactlyWhenSupported) {
  EXPECT_EQ(resolve_io_backend("auto"), uring_supported() ? "uring" : "epoll");
}

TEST(IoBackendResolve, ExplicitUringNeverSilentlyDegrades) {
  if (uring_supported()) GTEST_SKIP() << "kernel supports io_uring; nothing to refuse";
  EXPECT_THROW(make_event_loop("uring"), Error);
}

}  // namespace
}  // namespace appx::net

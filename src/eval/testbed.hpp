// The simulated testbed (paper §6 methodology).
//
// Wires one app's clients, the acceleration proxy, and the origin servers
// onto a discrete-event simulator:
//
//   client(s) --- 55 ms RTT / 25 Mbps ---> proxy --- per-host RTT ---> origins
//
// matching the paper's setup ("RTT of 55 ms and bandwidth of 25 Mbps between
// the client and proxy", per-app origin RTTs from Table 2). The "Orig"
// baseline routes through the same path with prefetching disabled, exactly
// like measuring with the proxy as a dumb forwarder.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/client.hpp"
#include "apps/server.hpp"
#include "apps/spec.hpp"
#include "core/baselines.hpp"
#include "core/sharded_proxy.hpp"
#include "core/session.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace appx::eval {

// Which prefetching engine the testbed hosts.
enum class ProxyKind { kAppx, kLooxy, kStaticOnly };

struct TestbedConfig {
  ProxyKind proxy_kind = ProxyKind::kAppx;
  Duration client_proxy_rtt = milliseconds(55);
  double client_proxy_bw = mbps(25);
  // 0 = use the app's configured origin bandwidth.
  double proxy_origin_bw = 0;
  // Fig. 15/16: override every origin RTT (moves the proxy along the path).
  std::optional<Duration> proxy_origin_rtt_override;
  bool prefetch_enabled = true;  // false = "Orig" baseline
  core::ProxyConfig proxy_config;
  std::uint64_t seed = 1;
  // Uniform +-fraction noise on origin processing delays (load variance).
  double origin_proc_jitter = 0.2;
  // Fault injection: drop every Nth taken prefetch job (reported to the
  // engine via on_prefetch_dropped) instead of forwarding it to the origin.
  // 0 = never drop. Exercises the outstanding-window release path.
  std::size_t drop_every_nth_prefetch = 0;
};

// A request observed on the proxy's client side (for coverage analysis).
struct ObservedRequest {
  std::string user;
  SimTime at = 0;
  http::Request request;
};

class Testbed {
 public:
  // `app` and `signatures` must outlive the testbed.
  Testbed(const apps::AppSpec* app, const core::SignatureSet* signatures, TestbedConfig config);

  sim::Simulator& sim() { return sim_; }
  // The hosted engine; proxy() is the APPx engine and throws for baselines.
  core::ProxyLike& engine() { return *engine_; }
  core::ShardedProxyEngine& proxy();
  apps::OriginServer& origin() { return origin_; }
  const TestbedConfig& config() const { return config_; }

  // Lazily creates the per-user client (per-user cookie/device env).
  apps::AppClient& client_for(const std::string& user);
  // Drops a user's client state (app re-launch / fresh install); the proxy's
  // per-user cache is NOT touched. Must not be called while that client has
  // interactions in flight (drain the simulator first).
  void reset_client(const std::string& user);

  // Data transferred origin->proxy (the paper's data-usage metric).
  Bytes origin_down_bytes() const;
  Bytes client_down_bytes() const;

  const std::vector<ObservedRequest>& observed_requests() const { return observed_; }

  // Prefetch jobs shed by drop_every_nth_prefetch fault injection.
  std::size_t prefetches_dropped() const { return prefetches_dropped_; }

  // Called with every completed prefetch (verification phase hooks in here).
  std::function<void(const core::PrefetchJob&, const http::Response&)> on_prefetch_response;

 private:
  apps::AppClient::Transport transport_for(const std::string& user);
  void forward_to_origin(const http::Request& request,
                         std::function<void(http::Response)> deliver);
  // Issue (or fault-inject-drop) the jobs an engine event surfaced; completed
  // prefetches feed their follow-up Decisions back through here (chaining).
  void dispatch_prefetches(std::vector<core::PrefetchJob> jobs);
  core::Session& session_for(const std::string& user);
  sim::Channel& origin_channel(const std::string& host);
  http::Response serve_with_epoch(const http::Request& request);

  const apps::AppSpec* app_;
  TestbedConfig config_;
  sim::Simulator sim_;
  apps::OriginServer origin_;
  core::ProxyConfig effective_config_;
  std::unique_ptr<core::ProxyLike> engine_;
  core::ShardedProxyEngine* appx_ = nullptr;  // non-null in kAppx mode
  std::unique_ptr<sim::Channel> client_channel_;
  std::map<std::string, std::unique_ptr<sim::Channel>> origin_channels_;
  std::map<std::string, core::Session> sessions_;  // resolved once per user
  std::map<std::string, std::unique_ptr<apps::AppClient>> clients_;
  std::vector<ObservedRequest> observed_;
  std::size_t prefetches_taken_ = 0;
  std::size_t prefetches_dropped_ = 0;
  Rng proc_rng_{0xabcd1234};
};

}  // namespace appx::eval

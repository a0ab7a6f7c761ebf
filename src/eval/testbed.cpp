#include "eval/testbed.hpp"

#include "util/error.hpp"

namespace appx::eval {

Testbed::Testbed(const apps::AppSpec* app, const core::SignatureSet* signatures,
                 TestbedConfig config)
    : app_(app), config_(std::move(config)), origin_(app),
      effective_config_(config_.proxy_config) {
  if (app == nullptr) throw InvalidArgumentError("Testbed: null app spec");
  if (signatures == nullptr) throw InvalidArgumentError("Testbed: null signature set");
  if (!config_.prefetch_enabled) {
    // "Orig" baseline: same path, proxy never prefetches.
    effective_config_.global_probability = 0.0;
  }
  switch (config_.proxy_kind) {
    case ProxyKind::kAppx: {
      core::EngineOptions options = core::EngineOptions::from_config(effective_config_);
      options.seed = config_.seed;
      options.shards = 1;
      auto appx =
          std::make_unique<core::ShardedProxyEngine>(signatures, &effective_config_, options);
      appx_ = appx.get();
      engine_ = std::move(appx);
      break;
    }
    case ProxyKind::kLooxy:
      engine_ = std::make_unique<core::LooxyEngine>(
          config_.prefetch_enabled ? effective_config_.default_expiration
                                   : std::optional<Duration>(Duration{0}));
      break;
    case ProxyKind::kStaticOnly:
      engine_ = std::make_unique<core::StaticOnlyEngine>(signatures,
                                                         effective_config_.default_expiration);
      break;
  }
  client_channel_ =
      std::make_unique<sim::Channel>(&sim_, config_.client_proxy_rtt, config_.client_proxy_bw);
}

sim::Channel& Testbed::origin_channel(const std::string& host) {
  auto it = origin_channels_.find(host);
  if (it == origin_channels_.end()) {
    const Duration rtt = config_.proxy_origin_rtt_override.value_or(app_->rtt_for_host(host));
    const double bw =
        config_.proxy_origin_bw > 0 ? config_.proxy_origin_bw : app_->bw_for_host(host);
    it = origin_channels_.emplace(host, std::make_unique<sim::Channel>(&sim_, rtt, bw)).first;
  }
  return *it->second;
}

http::Response Testbed::serve_with_epoch(const http::Request& request) {
  // Content epochs advance with simulated time, per endpoint TTL.
  if (const apps::EndpointSpec* ep = origin_.match(request)) {
    if (ep->content_ttl > 0) {
      origin_.set_epoch(static_cast<std::uint64_t>(sim_.now() / ep->content_ttl));
    } else {
      origin_.set_epoch(0);
    }
  }
  return origin_.serve(request);
}

void Testbed::forward_to_origin(const http::Request& request,
                                std::function<void(http::Response)> deliver) {
  sim::Channel& channel = origin_channel(request.uri.host);
  channel.up().send(request.wire_size(), [this, request, deliver = std::move(deliver),
                                          &channel]() mutable {
    Duration proc = origin_.proc_delay(request);
    if (config_.origin_proc_jitter > 0 && proc > 0) {
      proc = static_cast<Duration>(static_cast<double>(proc) *
                                   proc_rng_.uniform(1.0 - config_.origin_proc_jitter,
                                                     1.0 + config_.origin_proc_jitter));
    }
    sim_.schedule(proc, [this, request, deliver = std::move(deliver), &channel]() mutable {
      const http::Response response = serve_with_epoch(request);
      channel.down().send(response.wire_size(),
                          [deliver = std::move(deliver), response] { deliver(response); });
    });
  });
}

core::ShardedProxyEngine& Testbed::proxy() {
  if (appx_ == nullptr) throw InvalidStateError("Testbed: not running the APPx engine");
  return *appx_;
}

core::Session& Testbed::session_for(const std::string& user) {
  auto it = sessions_.find(user);
  if (it == sessions_.end()) {
    it = sessions_.emplace(user, engine_->session(user, sim_.now())).first;
  }
  return it->second;
}

void Testbed::dispatch_prefetches(std::vector<core::PrefetchJob> jobs) {
  for (core::PrefetchJob& job : jobs) {
    ++prefetches_taken_;
    if (config_.drop_every_nth_prefetch > 0 &&
        prefetches_taken_ % config_.drop_every_nth_prefetch == 0) {
      // Simulated shedding: the job is abandoned before it reaches the
      // origin; the engine must release its outstanding slot. The freed
      // window slot may make a queued job issuable — pump picks it up.
      ++prefetches_dropped_;
      engine_->on_prefetch_dropped(job.uid, job, sim_.now());
      core::Decision freed;
      engine_->pump(job.uid, sim_.now(), &freed);
      dispatch_prefetches(std::move(freed.prefetches));
      continue;
    }
    const SimTime started = sim_.now();
    forward_to_origin(job.request, [this, job, started](http::Response response) mutable {
      core::Decision chained;
      engine_->on_prefetch_response(job.uid, job, response, sim_.now(),
                                    to_ms(sim_.now() - started), &chained);
      if (on_prefetch_response) on_prefetch_response(job, response);
      dispatch_prefetches(std::move(chained.prefetches));
    });
  }
}

apps::AppClient::Transport Testbed::transport_for(const std::string& user) {
  return [this, user](http::Request request, std::function<void(http::Response)> cb) {
    observed_.push_back({user, sim_.now(), request});
    client_channel_->up().send(request.wire_size(), [this, user, request,
                                                     cb = std::move(cb)]() mutable {
      auto decision = session_for(user).on_request(request, sim_.now());
      if (decision.served) {
        // Hold the shared cache entry across the simulated downlink instead
        // of copying the response body.
        client_channel_->down().send(decision.served->wire_size(),
                                     [cb = std::move(cb), served = decision.served] {
                                       cb(*served);
                                     });
        dispatch_prefetches(std::move(decision.prefetches));
        return;
      }
      dispatch_prefetches(std::move(decision.prefetches));
      forward_to_origin(request, [this, user, request,
                                  cb = std::move(cb)](http::Response response) mutable {
        auto learned = session_for(user).on_response(request, response, sim_.now());
        dispatch_prefetches(std::move(learned.prefetches));
        client_channel_->down().send(response.wire_size(),
                                     [cb = std::move(cb), response] { cb(response); });
      });
    });
  };
}

apps::AppClient& Testbed::client_for(const std::string& user) {
  auto it = clients_.find(user);
  if (it == clients_.end()) {
    it = clients_
             .emplace(user, std::make_unique<apps::AppClient>(
                                app_, apps::ClientEnv::for_user(*app_, user), &sim_,
                                transport_for(user)))
             .first;
  }
  return *it->second;
}

void Testbed::reset_client(const std::string& user) { clients_.erase(user); }

Bytes Testbed::origin_down_bytes() const {
  Bytes total = 0;
  for (const auto& [host, channel] : origin_channels_) total += channel->down().bytes_carried();
  return total;
}

Bytes Testbed::client_down_bytes() const { return client_channel_->down().bytes_carried(); }

}  // namespace appx::eval

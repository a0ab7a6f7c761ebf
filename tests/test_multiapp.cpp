// Multi-app proxy tests (paper §2: "the proxy can accelerate multiple target
// apps" while keeping per-user, per-app state separate).
#include <gtest/gtest.h>

#include "analysis/analyzer.hpp"
#include "apps/catalog.hpp"
#include "apps/compiler.hpp"
#include "apps/server.hpp"
#include "core/sharded_proxy.hpp"
#include "util/error.hpp"

namespace appx::core {
namespace {

struct MultiAppFixture : public ::testing::Test {
  MultiAppFixture()
      : wish_(apps::make_wish()),
        geek_(apps::make_geek()),
        wish_server_(&wish_),
        geek_server_(&geek_) {
    combined_.absorb(analysis::analyze(apps::compile_app(wish_)).signatures);
    combined_.absorb(analysis::analyze(apps::compile_app(geek_)).signatures);
    config_.default_expiration = minutes(30);
    for (const apps::AppSpec* app : {&wish_, &geek_}) {
      for (const apps::EndpointSpec& ep : app->endpoints) {
        config_.host_apps[ep.host] = app->package;
      }
    }
    EngineOptions options = EngineOptions::from_config(config_);
    options.seed = 11;
    options.shards = 1;
    engine_ = std::make_unique<ShardedProxyEngine>(&combined_, &config_, options);
  }

  // Serve from whichever origin owns the host.
  http::Response serve(const http::Request& req) {
    if (req.uri.host.find("wish") != std::string::npos) return wish_server_.serve(req);
    return geek_server_.serve(req);
  }

  // Full transaction + prefetch drain against the real origins.
  bool run(const std::string& user, const http::Request& req) {
    Session session = engine_->session(user, now_);
    Decision d = session.on_request(req, now_);
    ++now_;
    if (d.served) return true;
    Decision r = session.on_response(req, serve(req), now_);
    std::vector<PrefetchJob> jobs = std::move(d.prefetches);
    for (auto& job : r.prefetches) jobs.push_back(std::move(job));
    while (!jobs.empty()) {
      std::vector<PrefetchJob> next;
      for (const auto& job : jobs) {
        Decision f = session.on_prefetch_response(job, serve(job.request), now_, 100.0);
        for (auto& follow : f.prefetches) next.push_back(std::move(follow));
      }
      for (auto& job : session.take_prefetches(now_)) next.push_back(std::move(job));
      jobs = std::move(next);
    }
    return false;
  }

  http::Request feed_request(const apps::AppSpec& app) {
    apps::OriginServer& server = app.name == "Wish" ? wish_server_ : geek_server_;
    (void)server;
    http::Request req;
    req.method = "POST";
    req.uri = http::Uri::parse("https://" + app.endpoint("feed").host + "/api/get-feed");
    req.uri.add_query_param("offset", "0");
    req.uri.add_query_param("count", std::to_string(app.endpoint("feed").list_count));
    req.headers.set("Cookie", "c-" + app.name);
    req.headers.set("User-Agent", "Mozilla/5.0");
    req.set_form_fields({{"_client", "android"}, {"_ver", "4.13.0"}});
    return req;
  }

  http::Request detail_request(const apps::AppSpec& app, const std::string& user) {
    // Build the detail request the way the app would, from the feed response
    // currently cached at the origin (deterministic).
    const auto feed_resp = serve(feed_request(app));
    const auto body = json::parse(feed_resp.body);
    http::Request req;
    req.method = "POST";
    req.uri = http::Uri::parse("https://" + app.endpoint("detail").host + "/product/get");
    req.headers.set("Cookie", "c-" + app.name);
    req.headers.set("User-Agent", "Mozilla/5.0");
    http::FormFields fields;
    fields.emplace_back("cid",
                        json::Path("data.items[0].id").resolve_first(body)->as_string());
    const auto& detail = app.endpoint("detail");
    for (const apps::FieldSpec& f : detail.fields) {
      if (f.name == "cid" || f.loc != FieldLocation::kBody) continue;
      if (f.conditional) continue;
      if (f.value.kind == apps::ValueSpec::Kind::kDep) {
        std::string path = f.value.dep_path;
        const auto star = path.find("[*]");
        if (star != std::string::npos) path.replace(star, 3, "[0]");
        fields.emplace_back(f.name, json::Path(path).resolve_first(body)->scalar_to_string());
      } else if (f.value.kind == apps::ValueSpec::Kind::kEnv) {
        fields.emplace_back(f.name, app.env_defaults.at(f.value.text));
      } else {
        fields.emplace_back(f.name, f.value.text);
      }
    }
    (void)user;
    req.set_form_fields(fields);
    return req;
  }

  apps::AppSpec wish_;
  apps::AppSpec geek_;
  apps::OriginServer wish_server_;
  apps::OriginServer geek_server_;
  SignatureSet combined_;
  ProxyConfig config_;
  std::unique_ptr<ShardedProxyEngine> engine_;
  SimTime now_ = 0;
};

TEST_F(MultiAppFixture, CombinedSetHoldsBothApps) {
  EXPECT_EQ(combined_.size(), 120u + 118u);
  EXPECT_EQ(combined_.subset_for_app(wish_.package).size(), 120u);
  EXPECT_EQ(combined_.subset_for_app(geek_.package).size(), 118u);
}

TEST_F(MultiAppFixture, RequestsMatchOnlyTheirOwnApp) {
  const auto* wish_sig = combined_.match_request(
      feed_request(wish_), config_.app_for_host(feed_request(wish_).uri.host));
  ASSERT_NE(wish_sig, nullptr);
  EXPECT_EQ(wish_sig->app, wish_.package);
  const auto* geek_sig = combined_.match_request(
      feed_request(geek_), config_.app_for_host(feed_request(geek_).uri.host));
  ASSERT_NE(geek_sig, nullptr);
  EXPECT_EQ(geek_sig->app, geek_.package);
  EXPECT_NE(wish_sig->id, geek_sig->id);
}

TEST_F(MultiAppFixture, OneProxyAcceleratesBothApps) {
  // Same user runs both apps through the single proxy instance.
  run("u", feed_request(wish_));
  run("u", feed_request(geek_));
  // First detail per app teaches the run-time values...
  EXPECT_FALSE(run("u", detail_request(wish_, "u")));
  EXPECT_FALSE(run("u", detail_request(geek_, "u")));
  // ...after which re-fetching the feeds re-arms instances, and both apps'
  // detail requests are served from cache.
  run("u", feed_request(wish_));
  run("u", feed_request(geek_));
  EXPECT_TRUE(run("u", detail_request(wish_, "u")));
  EXPECT_TRUE(run("u", detail_request(geek_, "u")));
}

TEST_F(MultiAppFixture, AbsorbRejectsDuplicates) {
  SignatureSet dup;
  EXPECT_NO_THROW(dup.absorb(combined_.subset_for_app(wish_.package)));
  EXPECT_THROW(dup.absorb(combined_.subset_for_app(wish_.package)), InvalidArgumentError);
}

TEST_F(MultiAppFixture, IndexedDispatchAgreesWithLinearScan) {
  // 238 signatures across two apps: the dispatch index must pick exactly the
  // signature the linear scan would, with and without app filtering.
  std::vector<http::Request> probes{feed_request(wish_), feed_request(geek_),
                                    detail_request(wish_, "u"), detail_request(geek_, "u")};
  http::Request miss;
  miss.method = "GET";
  miss.uri = http::Uri::parse("https://nowhere.example/none");
  probes.push_back(miss);
  for (const http::Request& req : probes) {
    EXPECT_EQ(combined_.match_request(req), combined_.match_request_linear(req))
        << req.uri.host << req.uri.path;
    const std::string app = config_.app_for_host(req.uri.host);
    EXPECT_EQ(combined_.match_request(req, app), combined_.match_request_linear(req, app))
        << req.uri.host << req.uri.path;
  }
}

}  // namespace
}  // namespace appx::core

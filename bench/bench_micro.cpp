// Component microbenchmarks (google-benchmark): throughput of the pieces on
// the proxy's per-message fast path — pattern matching, template fill/extract,
// JSON parsing, signature matching, dynamic learning, cache lookup — plus the
// three steps of a proxy's start-up: compile, analyse, build the engine.
#include <benchmark/benchmark.h>

#include "analysis/analyzer.hpp"
#include "apps/catalog.hpp"
#include "apps/compiler.hpp"
#include "apps/server.hpp"
#include "core/learning.hpp"
#include "core/proxy.hpp"
#include "core/sharded_proxy.hpp"
#include "eval/experiments.hpp"
#include "json/json.hpp"
#include "pattern/regex.hpp"

namespace {

using namespace appx;

void BM_RegexCompile(benchmark::State& state) {
  for (auto _ : state) {
    pattern::Regex re(".*/api/tab/[0-9]+/content");
    benchmark::DoNotOptimize(re);
  }
}
BENCHMARK(BM_RegexCompile);

void BM_RegexMatch(benchmark::State& state) {
  // The seed engine's execution path: NFA simulation, one state set per byte.
  const pattern::Regex re(".*/api/tab/[0-9]+/content");
  const std::string input = "https://api.wish.example/api/tab/7/content";
  for (auto _ : state) {
    benchmark::DoNotOptimize(re.longest_prefix_match_nfa(input));
  }
}
BENCHMARK(BM_RegexMatch);

void BM_RegexMatchDFA(benchmark::State& state) {
  // Same pattern and input through the DFA (full_match's default path): every
  // byte is a single transition-table lookup.
  const pattern::Regex re(".*/api/tab/[0-9]+/content");
  const std::string input = "https://api.wish.example/api/tab/7/content";
  for (auto _ : state) {
    benchmark::DoNotOptimize(re.full_match(input));
  }
  state.counters["dfa_states"] = static_cast<double>(re.dfa_state_count());
}
BENCHMARK(BM_RegexMatchDFA);

void BM_TemplateExtract(benchmark::State& state) {
  const auto t = pattern::FieldTemplate::parse("https://{host}/product/{pid:[0-9a-f]+}/img");
  const std::string input = "https://img.wish.example/product/0c99f/img";
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.extract(input));
  }
}
BENCHMARK(BM_TemplateExtract);

void BM_TemplateFill(benchmark::State& state) {
  const auto t = pattern::FieldTemplate::parse("https://{host}/product/{pid}/img");
  const pattern::Bindings bindings{{"host", "img.wish.example"}, {"pid", "0c99f"}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.fill(bindings));
  }
}
BENCHMARK(BM_TemplateFill);

void BM_JsonParseFeed(benchmark::State& state) {
  const apps::AppSpec spec = apps::make_wish();
  apps::OriginServer server(&spec);
  http::Request req;
  req.method = "POST";
  req.uri = http::Uri::parse("https://api.wish.example/api/get-feed?offset=0&count=30");
  req.headers.set("Cookie", "c");
  req.headers.set("User-Agent", "ua");
  req.set_form_fields({{"_client", "android"}, {"_ver", "4.13.0"}});
  const std::string body = server.serve(req).body.str();
  state.counters["body_bytes"] = static_cast<double>(body.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(json::parse(body));
  }
}
BENCHMARK(BM_JsonParseFeed);

void BM_SignatureMatch(benchmark::State& state) {
  // Match one concrete request against the full 120-signature Wish set —
  // the proxy's per-request signature identification cost.
  static const auto result = analysis::analyze(apps::compile_app(apps::make_wish()));
  http::Request req;
  req.method = "POST";
  req.uri = http::Uri::parse("https://api.wish.example/product/get");
  req.headers.set("Cookie", "c");
  req.headers.set("User-Agent", "ua");
  http::FormFields fields{{"cid", "0c99f"}};
  for (int i = 0; i < 15; ++i) fields.emplace_back("attr" + std::to_string(i), "v");
  fields.emplace_back("_client", "android");
  fields.emplace_back("_ver", "4.13.0");
  fields.emplace_back("_build", "amazon");
  req.set_form_fields(fields);
  for (auto _ : state) {
    benchmark::DoNotOptimize(result.signatures.match_request(req));
  }
}
BENCHMARK(BM_SignatureMatch);

// A set of n signatures with distinct literal endpoints plus one concrete
// request hitting the *last* signature — worst case for a linear scan, and
// the shape the multi-app proxy sees (many apps, one matching endpoint).
core::SignatureSet make_dispatch_set(int n) {
  core::SignatureSet set;
  for (int i = 0; i < n; ++i) {
    core::TransactionSignature sig;
    sig.app = "app" + std::to_string(i % 4);
    sig.label = "ep" + std::to_string(i);
    sig.request.method = i % 2 == 0 ? "GET" : "POST";
    sig.request.scheme = pattern::FieldTemplate::literal("https");
    sig.request.host = pattern::FieldTemplate::hole("host");
    sig.request.path = pattern::FieldTemplate::literal("/api/ep" + std::to_string(i) + "/get");
    sig.request.query = {{core::FieldLocation::kQuery, "v",
                          pattern::FieldTemplate::hole("v" + std::to_string(i)), false}};
    set.add(std::move(sig));
  }
  return set;
}

http::Request make_dispatch_request(int n) {
  http::Request req;
  req.method = (n - 1) % 2 == 0 ? "GET" : "POST";
  req.uri = http::Uri::parse("https://api.bench.example/api/ep" + std::to_string(n - 1) +
                             "/get?v=1");
  return req;
}

void BM_SignatureDispatch(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const core::SignatureSet set = make_dispatch_set(n);
  const http::Request req = make_dispatch_request(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(set.match_request(req));
  }
}
BENCHMARK(BM_SignatureDispatch)->Arg(8)->Arg(64)->Arg(256);

void BM_SignatureDispatchLinear(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const core::SignatureSet set = make_dispatch_set(n);
  const http::Request req = make_dispatch_request(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(set.match_request_linear(req));
  }
}
BENCHMARK(BM_SignatureDispatchLinear)->Arg(8)->Arg(64)->Arg(256);

void BM_DynamicLearningFeed(benchmark::State& state) {
  // One full learning pass over a 30-item feed response: instance creation
  // plus replication for every configured successor.
  static const auto result = analysis::analyze(apps::compile_app(apps::make_wish()));
  const apps::AppSpec spec = apps::make_wish();
  apps::OriginServer server(&spec);
  http::Request req;
  req.method = "POST";
  req.uri = http::Uri::parse("https://api.wish.example/api/get-feed?offset=0&count=30");
  req.headers.set("Cookie", "c");
  req.headers.set("User-Agent", "ua");
  req.set_form_fields({{"_client", "android"}, {"_ver", "4.13.0"}});
  const http::Response resp = server.serve(req);
  for (auto _ : state) {
    core::LearningEngine engine(&result.signatures);
    benchmark::DoNotOptimize(engine.observe(req, resp));
  }
}
BENCHMARK(BM_DynamicLearningFeed);

void BM_CacheLookup(benchmark::State& state) {
  core::PrefetchCache cache;
  std::vector<std::string> keys;
  for (int i = 0; i < 1000; ++i) {
    keys.push_back("key" + std::to_string(i));
    core::PrefetchCache::Entry entry;
    entry.expires_at = 1'000'000;
    cache.put(keys.back(), entry);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.get(keys[i % keys.size()], 0));
    ++i;
  }
}
BENCHMARK(BM_CacheLookup);

void BM_StaticAnalysisWish(benchmark::State& state) {
  const ir::Program program = apps::compile_app(apps::make_wish());
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::analyze(program));
  }
  state.counters["instructions"] = static_cast<double>(program.instruction_count());
}
BENCHMARK(BM_StaticAnalysisWish)->Unit(benchmark::kMillisecond);

void BM_CompileWish(benchmark::State& state) {
  // Start-up before the analysis: lower the Wish spec to its SAPK program.
  const apps::AppSpec spec = apps::make_wish();
  for (auto _ : state) {
    benchmark::DoNotOptimize(apps::compile_app(spec));
  }
}
BENCHMARK(BM_CompileWish)->Unit(benchmark::kMillisecond);

void BM_ShardedEngineBuildWish(benchmark::State& state) {
  // Start-up after the analysis: a 4-shard engine over the analysed Wish
  // set, configured as the live proxy deploys it.
  static const eval::AnalyzedApp app = eval::analyze_app(apps::make_wish());
  const core::ProxyConfig config = eval::deployment_config(app);
  core::EngineOptions options = core::EngineOptions::from_config(config);
  options.shards = 4;
  for (auto _ : state) {
    core::ShardedProxyEngine engine(&app.analysis.signatures, &config, options);
    benchmark::DoNotOptimize(engine.shard_count());
  }
}
BENCHMARK(BM_ShardedEngineBuildWish)->Unit(benchmark::kMillisecond);

void BM_SapkRoundTrip(benchmark::State& state) {
  const ir::Program program = apps::compile_app(apps::make_wish());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ir::Program::deserialize(program.serialize()));
  }
}
BENCHMARK(BM_SapkRoundTrip)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

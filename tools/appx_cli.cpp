// appx — the command-line face of the framework.
//
//   appx compile <app> <out.sapk>          compile an app model to a binary
//   appx disasm <in.sapk>                  textual listing of a binary
//   appx analyze <in.sapk> [opts]          extract signatures + dependencies
//        --sigs <out.sig>                  persist the signature artefact
//        --no-intent --no-rx --no-alias    disable analysis extensions
//   appx verify <app>                      run the §4.3 verification phase;
//                                          prints the initial Fig. 9 config
//   appx gen-config <app> [opts]           verification + policy-engine knobs:
//        --out <file>                      write the config instead of stdout
//        --minutes <N>                     fuzzing duration (default 15)
//        --probability <P>                 global prefetch probability
//        --budget-mb <N>                   per-user data budget (paced by the
//                                          policy engine's token bucket)
//   appx demo <app>                        live loopback proxy demo (sockets)
//   appx node <app> [opts]                 run one cluster node (DESIGN.md §5k):
//        --name <n> --membership <file>    identity + static node list (port
//                                          comes from the membership entry)
//        --state <path>                    snapshot path for warm restart
//        --snapshot-ms <N>                 dump cadence (default 1000)
//        --shards <N>                      engine shards (default 2)
//   appx snapshot <host:port> [--out f]    pull a live node's learned-state
//                                          snapshot (binary) to a file
//   appx stats <host:port> [--json]        scrape a live proxy's /appx/metrics
//                                          and pretty-print it
//   appx uring-check                       probe io_uring event-loop support
//                                          (exit 0 yes, 3 no; used by CI)
//
// <app> is one of: wish geek doordash purpleocean postmates.
#include <chrono>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "apps/catalog.hpp"
#include "cluster/membership.hpp"
#include "apps/compiler.hpp"
#include "core/sharded_proxy.hpp"
#include "eval/report.hpp"
#include "eval/verification.hpp"
#include "ir/disasm.hpp"
#include "json/json.hpp"
#include "net/event_loop.hpp"
#include "net/http_io.hpp"
#include "net/servers.hpp"
#include "net/socket.hpp"
#include "util/byte_io.hpp"
#include "util/error.hpp"

namespace {

using namespace appx;

int usage() {
  std::cerr << "usage:\n"
               "  appx compile <app> <out.sapk>\n"
               "  appx disasm <in.sapk>\n"
               "  appx analyze <in.sapk> [--sigs out.sig] [--no-intent] [--no-rx] "
               "[--no-alias]\n"
               "  appx verify <app>\n"
               "  appx gen-config <app> [--out file] [--minutes N] [--probability P] "
               "[--budget-mb N]\n"
               "  appx demo <app>\n"
               "  appx node <app> --name <n> --membership <file> [--state <path>] "
               "[--snapshot-ms N] [--shards N]\n"
               "  appx snapshot <host:port> [--out <file>]\n"
               "  appx stats <host:port> [--json]\n"
               "  appx uring-check\n"
               "apps: wish geek doordash purpleocean postmates\n";
  return 2;
}

apps::AppSpec app_by_name(const std::string& name) {
  if (name == "wish") return apps::make_wish();
  if (name == "geek") return apps::make_geek();
  if (name == "doordash") return apps::make_doordash();
  if (name == "purpleocean") return apps::make_purpleocean();
  if (name == "postmates") return apps::make_postmates();
  throw InvalidArgumentError("unknown app '" + name + "'");
}

int cmd_compile(const std::vector<std::string>& args) {
  if (args.size() != 2) return usage();
  const apps::AppSpec spec = app_by_name(args[0]);
  const ir::Program program = apps::compile_app(spec);
  const auto blob = program.serialize();
  write_file(args[1], blob);
  std::cout << "wrote " << args[1] << ": " << blob.size() << " bytes, "
            << program.methods.size() << " methods, " << program.instruction_count()
            << " instructions\n";
  return 0;
}

int cmd_disasm(const std::vector<std::string>& args) {
  if (args.size() != 1) return usage();
  const ir::Program program = ir::Program::deserialize(read_file(args[0]));
  std::cout << ir::disassemble(program);
  return 0;
}

int cmd_analyze(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  analysis::AnalysisOptions options;
  std::string sigs_out;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--no-intent") {
      options.intent_support = false;
    } else if (args[i] == "--no-rx") {
      options.rx_support = false;
    } else if (args[i] == "--no-alias") {
      options.alias_analysis = false;
    } else if (args[i] == "--sigs" && i + 1 < args.size()) {
      sigs_out = args[++i];
    } else {
      return usage();
    }
  }

  const auto started = std::chrono::steady_clock::now();
  const auto result = analysis::analyze_sapk(read_file(args[0]), options);
  const double ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - started)
          .count();

  eval::TablePrinter table({"Metric", "Value"});
  table.add_row({"signatures", std::to_string(result.signatures.size())});
  table.add_row({"prefetchable", std::to_string(result.signatures.prefetchable().size())});
  table.add_row({"dependency edges", std::to_string(result.signatures.edges().size())});
  table.add_row({"max chain length", std::to_string(result.signatures.max_chain_length())});
  table.add_row({"methods analyzed", std::to_string(result.report.methods_analyzed)});
  table.add_row(
      {"abstract instructions", std::to_string(result.report.instructions_interpreted)});
  table.add_row({"unresolved run-time values",
                 std::to_string(result.report.unresolved_values)});
  table.add_row({"analysis time", eval::TablePrinter::fmt(ms, 1) + " ms"});
  table.print(std::cout);

  if (!sigs_out.empty()) {
    const auto blob = result.signatures.serialize();
    write_file(sigs_out, blob);
    std::cout << "\nwrote signature artefact " << sigs_out << " (" << blob.size()
              << " bytes)\n";
  }
  return 0;
}

int cmd_verify(const std::vector<std::string>& args) {
  if (args.size() != 1) return usage();
  const eval::AnalyzedApp app = eval::analyze_app(app_by_name(args[0]));
  eval::VerificationParams params;
  params.fuzz.duration = minutes(15);
  const auto outcome = eval::run_verification(app, params);
  std::cerr << "verification: " << outcome.prefetches_observed << " prefetches observed, "
            << outcome.verified.size() << " signatures verified, " << outcome.failing.size()
            << " disabled, " << outcome.expiry_estimates.size()
            << " expiration estimates\n";
  std::cout << outcome.initial_config.to_json() << "\n";
  return 0;
}

// `appx verify` plus deployment tuning: the verified Fig. 9 config with the
// cost-aware policy engine (DESIGN.md §5j) switched on, so learned expiry
// keeps refining the probed TTL estimates at run time and admission/pacing
// guard the data budget.
int cmd_gen_config(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  std::string out_path;
  double fuzz_minutes = 15.0;
  std::optional<double> probability;
  std::optional<double> budget_mb;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--out" && i + 1 < args.size()) {
      out_path = args[++i];
    } else if (args[i] == "--minutes" && i + 1 < args.size()) {
      fuzz_minutes = std::stod(args[++i]);
    } else if (args[i] == "--probability" && i + 1 < args.size()) {
      probability = std::stod(args[++i]);
    } else if (args[i] == "--budget-mb" && i + 1 < args.size()) {
      budget_mb = std::stod(args[++i]);
    } else {
      return usage();
    }
  }

  const eval::AnalyzedApp app = eval::analyze_app(app_by_name(args[0]));
  eval::VerificationParams params;
  params.fuzz.duration = minutes(fuzz_minutes);
  const auto outcome = eval::run_verification(app, params);

  core::ProxyConfig config = outcome.initial_config;
  config.policy.enabled = true;
  config.policy.learn_expiry = true;
  if (probability) config.global_probability = *probability;
  if (budget_mb) config.data_budget = megabytes(*budget_mb);
  config.policy.validate().throw_if_error();

  std::cerr << "gen-config: " << outcome.verified.size() << " signatures verified, "
            << outcome.failing.size() << " disabled, " << outcome.expiry_estimates.size()
            << " probed expirations (refined online by learned expiry)\n";
  const std::string text = config.to_json() + "\n";
  if (out_path.empty()) {
    std::cout << text;
  } else {
    write_file(out_path, std::vector<std::uint8_t>(text.begin(), text.end()));
    std::cerr << "wrote " << out_path << " (" << text.size() << " bytes)\n";
  }
  return 0;
}

int cmd_demo(const std::vector<std::string>& args) {
  if (args.size() != 1) return usage();
  const apps::AppSpec spec = app_by_name(args[0]);
  const auto analysis = analysis::analyze(apps::compile_app(spec));
  apps::OriginServer origin(&spec);
  net::LiveOriginServer origin_server(&origin);
  core::ProxyConfig config;
  config.default_expiration = minutes(30);
  // The sharded runtime: one shard per hardware thread, no global engine
  // lock between the proxy's loop threads. The shards borrow
  // analysis.signatures, which outlives the engine.
  core::ShardedProxyEngine engine(&analysis.signatures, &config);
  net::LiveProxyServer::UpstreamMap upstreams;
  for (const apps::EndpointSpec& ep : spec.endpoints) upstreams[ep.host] = origin_server.port();
  net::LiveProxyServer proxy(&engine, std::move(upstreams));

  std::cout << spec.name << " origin on 127.0.0.1:" << origin_server.port()
            << ", proxy on 127.0.0.1:" << proxy.port() << "\n"
            << "send HTTP/1.1 requests with an X-Appx-User header; press Enter to stop.\n";
  std::string line;
  std::getline(std::cin, line);
  proxy.stop();
  origin_server.stop();
  const auto& stats = engine.stats();
  std::cout << "served " << stats.client_requests << " requests, " << stats.cache_hits
            << " from cache, " << stats.prefetches_issued << " prefetches\n";
  return 0;
}

// One admin-path GET against host:port; returns the response or nullopt.
std::optional<http::Response> admin_get(const std::string& hostport, const std::string& path) {
  const auto colon = hostport.rfind(':');
  if (colon == std::string::npos) return std::nullopt;
  const std::string host = hostport.substr(0, colon);
  const int port = std::stoi(hostport.substr(colon + 1));
  net::TcpStream stream = net::TcpStream::connect(host, static_cast<std::uint16_t>(port),
                                                  seconds(5));
  stream.set_read_timeout(seconds(10));
  stream.set_write_timeout(seconds(10));
  http::Request request;
  request.method = "GET";
  request.uri.path = path;
  request.headers.set("Host", hostport);
  net::write_request(stream, request);
  net::HttpReader reader(&stream);
  return reader.read_response();
}

// Pull a node's learned-state snapshot (the same bytes its periodic writer
// persists) and save it — an on-demand dump for backups or pre-drain copies.
int cmd_snapshot(const std::vector<std::string>& args) {
  if (args.empty() || args.size() > 3) return usage();
  std::string out_path = "appx-state.snap";
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--out" && i + 1 < args.size()) {
      out_path = args[++i];
    } else {
      return usage();
    }
  }
  const auto response = admin_get(args[0], "/appx/snapshot");
  if (!response || response->status != 200) {
    std::cerr << "appx snapshot: dump failed"
              << (response ? " (status " + std::to_string(response->status) + ")" : "")
              << "\n";
    return 1;
  }
  const std::string_view body = response->body.view();
  write_file(out_path, std::vector<std::uint8_t>(body.begin(), body.end()));
  std::cout << "wrote " << out_path << " (" << body.size() << " bytes)\n";
  return 0;
}

// Run one cluster node: a sharded engine + loopback origin behind a live
// proxy, with warm-restart snapshots when --state is given. Blocks until
// stdin closes (orchestrators hold the pipe; a killed node just dies).
int cmd_node(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  std::string name;
  std::string membership_path;
  std::string state_path;
  double snapshot_ms = 1000.0;
  std::size_t shards = 2;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--name" && i + 1 < args.size()) {
      name = args[++i];
    } else if (args[i] == "--membership" && i + 1 < args.size()) {
      membership_path = args[++i];
    } else if (args[i] == "--state" && i + 1 < args.size()) {
      state_path = args[++i];
    } else if (args[i] == "--snapshot-ms" && i + 1 < args.size()) {
      snapshot_ms = std::stod(args[++i]);
    } else if (args[i] == "--shards" && i + 1 < args.size()) {
      shards = static_cast<std::size_t>(std::stoul(args[++i]));
    } else {
      return usage();
    }
  }
  if (name.empty() || membership_path.empty()) return usage();

  const cluster::Membership membership = cluster::Membership::load(membership_path);
  const cluster::MemberNode* self = membership.find(name);
  if (self == nullptr) {
    std::cerr << "appx node: '" << name << "' not in " << membership_path << "\n";
    return 1;
  }

  const apps::AppSpec spec = app_by_name(args[0]);
  const auto analysis = analysis::analyze(apps::compile_app(spec));
  apps::OriginServer origin(&spec);
  net::LiveOriginServer origin_server(&origin);
  core::ProxyConfig config;
  config.default_expiration = minutes(30);
  core::EngineOptions options;
  options.shards = shards;
  options.state_snapshot_path = state_path;
  options.state_snapshot_interval = static_cast<Duration>(snapshot_ms * 1000.0);
  core::ShardedProxyEngine engine(&analysis.signatures, &config, options);
  net::LiveProxyServer::UpstreamMap upstreams;
  for (const apps::EndpointSpec& ep : spec.endpoints) upstreams[ep.host] = origin_server.port();
  net::LiveProxyServer proxy(&engine, std::move(upstreams), self->port, options);

  // Orchestrators (the cluster integration test) wait for this exact line.
  std::cout << "READY node=" << name << " generation=" << membership.generation()
            << " proxy=" << proxy.port() << " origin=" << origin_server.port() << "\n"
            << std::flush;
  std::string line;
  std::getline(std::cin, line);
  proxy.stop();
  origin_server.stop();
  return 0;
}

// Scrape a live proxy's admin endpoint and pretty-print the registry.
int cmd_stats(const std::vector<std::string>& args) {
  if (args.empty() || args.size() > 2) return usage();
  bool raw_json = false;
  if (args.size() == 2) {
    if (args[1] != "--json") return usage();
    raw_json = true;
  }
  const auto response = admin_get(args[0], "/appx/metrics.json");
  if (!response || response->status != 200) {
    std::cerr << "appx stats: scrape failed"
              << (response ? " (status " + std::to_string(response->status) + ")" : "")
              << "\n";
    return 1;
  }
  if (raw_json) {
    std::cout << response->body << "\n";
    return 0;
  }

  const json::Value root = json::parse(response->body);
  const auto fmt_int = [](std::int64_t v) { return std::to_string(v); };

  eval::TablePrinter counters({"Counter", "Value"});
  for (const auto& [name, value] : root.as_object().at("counters").as_object()) {
    counters.add_row({name, fmt_int(value.as_int())});
  }
  eval::TablePrinter gauges({"Gauge", "Value"});
  for (const auto& [name, value] : root.as_object().at("gauges").as_object()) {
    gauges.add_row({name, fmt_int(value.as_int())});
  }
  eval::TablePrinter hists({"Histogram", "Count", "Mean", "p50", "p95", "p99", "Max"});
  for (const auto& [name, value] : root.as_object().at("histograms").as_object()) {
    const json::Object& h = value.as_object();
    hists.add_row({name, fmt_int(h.at("count").as_int()),
                   eval::TablePrinter::fmt(h.at("mean").as_double(), 1),
                   fmt_int(h.at("p50").as_int()), fmt_int(h.at("p95").as_int()),
                   fmt_int(h.at("p99").as_int()), fmt_int(h.at("max").as_int())});
  }
  counters.print(std::cout);
  std::cout << "\n";
  gauges.print(std::cout);
  std::cout << "\n";
  hists.print(std::cout);

  // Waste summary: how much of the prefetch spend never got served.
  const json::Object& counter_obj = root.as_object().at("counters").as_object();
  const auto counter = [&](const std::string& name) -> std::int64_t {
    const auto it = counter_obj.find(name);
    return it == counter_obj.end() ? 0 : it->second.as_int();
  };
  const std::int64_t prefetch_bytes = counter("appx_prefetch_bytes_total");
  const std::int64_t wasted_bytes = counter("appx_prefetch_wasted_bytes_total");
  if (prefetch_bytes > 0) {
    std::cout << "\nprefetch waste: " << wasted_bytes << " / " << prefetch_bytes
              << " bytes wasted ("
              << eval::TablePrinter::pct(static_cast<double>(wasted_bytes) /
                                         static_cast<double>(prefetch_bytes))
              << "), " << counter("appx_prefetch_wasted_entries_total")
              << " entries left the cache unused\n";
  }

  // Durable-state freshness (only on nodes running with a snapshot path).
  const json::Object& gauge_obj = root.as_object().at("gauges").as_object();
  const auto gauge = [&](const std::string& name) -> std::int64_t {
    const auto it = gauge_obj.find(name);
    return it == gauge_obj.end() ? 0 : it->second.as_int();
  };
  const std::int64_t snap_bytes = gauge("appx_state_snapshot_bytes");
  const std::int64_t snap_ms = gauge("appx_state_snapshot_last_unix_ms");
  if (snap_bytes > 0) {
    std::cout << "\nstate snapshot: " << snap_bytes << " bytes";
    if (snap_ms > 0) {
      const std::int64_t now_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                                      std::chrono::system_clock::now().time_since_epoch())
                                      .count();
      std::cout << ", age " << eval::TablePrinter::fmt(
                       static_cast<double>(now_ms - snap_ms) / 1000.0, 1)
                << " s";
    }
    std::cout << "\n";
  }
  return 0;
}

// Reports whether this kernel can run the io_uring event-loop backend
// (DESIGN.md §5l). Exit 0 when supported, 3 when not — CI uses this to skip
// the uring job variant on old kernels instead of failing it.
int cmd_uring_check(const std::vector<std::string>& args) {
  if (!args.empty()) return usage();
  if (net::uring_supported()) {
    std::cout << "io_uring backend: supported\n";
    return 0;
  }
  std::cout << "io_uring backend: unsupported on this kernel "
               "(or disabled via APPX_NO_URING)\n";
  return 3;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (command == "compile") return cmd_compile(args);
    if (command == "disasm") return cmd_disasm(args);
    if (command == "analyze") return cmd_analyze(args);
    if (command == "verify") return cmd_verify(args);
    if (command == "gen-config") return cmd_gen_config(args);
    if (command == "demo") return cmd_demo(args);
    if (command == "node") return cmd_node(args);
    if (command == "snapshot") return cmd_snapshot(args);
    if (command == "stats") return cmd_stats(args);
    if (command == "uring-check") return cmd_uring_check(args);
  } catch (const appx::Error& e) {
    std::cerr << "appx: " << e.what() << "\n";
    return 1;
  }
  return usage();
}

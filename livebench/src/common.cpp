#include "common.hpp"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <exception>
#include <stdexcept>
#include <thread>

#include "apps/catalog.hpp"
#include "apps/client.hpp"
#include "apps/server.hpp"
#include "sim/simulator.hpp"
#include "trace/trace.hpp"

namespace livebench {

using namespace appx;

std::int64_t mono_us() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000 + ts.tv_nsec / 1000;
}

std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

Args::Args(int argc, char** argv, int first) {
  for (int i = first; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("expected --option value, got " + key);
    }
    values_[key.substr(2)] = argv[i + 1];
  }
}

std::string Args::str(const std::string& key, const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Args::num(const std::string& key, std::int64_t fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : std::stoll(it->second);
}

double Args::real(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : std::stod(it->second);
}

apps::AppSpec make_app(const std::string& name) {
  if (name == "wish") return apps::make_wish();
  if (name == "postmates") return apps::make_postmates();
  throw std::invalid_argument("unknown app " + name);
}

Expected expected_of(const http::Response& response) {
  Expected e;
  e.status = response.status;
  e.body_len = response.body.size();
  e.body_digest = fnv1a64(response.body.view());
  e.opaque = static_cast<std::uint64_t>(response.opaque_payload);
  return e;
}

std::string user_name(std::size_t index) { return "lb" + std::to_string(index); }

namespace {

// One user's session through AppClient on a simulator. Responses are
// delivered 1 µs after each send so the waves of an interaction land at
// distinct simulated instants: requests sent at one instant form one wave.
UserStream record_user(const apps::AppSpec& spec, const apps::OriginServer& origin,
                       const trace::UserTrace& trace, const std::string& name,
                       double dilation, std::int64_t horizon_us) {
  sim::Simulator sim;
  UserStream out;
  out.user = name;
  RecordedInteraction* current = nullptr;
  SimTime interaction_start = 0;
  SimTime last_send = -1;
  SimTime last_response = 0;

  apps::AppClient client(
      &spec, apps::ClientEnv::for_user(spec, trace.user_id), &sim,
      [&](http::Request req, std::function<void(http::Response)> cb) {
        if (current == nullptr) throw std::logic_error("request outside an interaction");
        if (current->waves.empty() || sim.now() != last_send) {
          RecordedWave wave;
          wave.gap_us = current->waves.empty() ? sim.now() - interaction_start
                                               : sim.now() - last_response;
          current->waves.push_back(std::move(wave));
          last_send = sim.now();
        }
        http::Response resp = origin.serve(req);
        RecordedRequest r;
        const std::string wire = req.serialize();
        const std::size_t line_end = wire.find("\r\n");
        r.pre = wire.substr(0, line_end + 2);
        r.post = wire.substr(line_end + 2);
        r.expected = expected_of(resp);
        current->waves.back().requests.push_back(std::move(r));
        sim.schedule(1, [&, cb = std::move(cb), resp = std::move(resp)]() mutable {
          last_response = sim.now();
          cb(std::move(resp));
        });
      },
      /*jitter=*/0.25);

  // Events run serially, as the app would: the next interaction's content
  // depends on earlier responses. Their live start times come from the
  // trace schedule (open loop), not from this serial replay.
  std::function<void(std::size_t)> run_event = [&](std::size_t index) {
    if (index >= trace.events.size()) return;
    const trace::TraceEvent& ev = trace.events[index];
    const auto start_us = static_cast<std::int64_t>(static_cast<double>(ev.at) * dilation);
    if (start_us >= horizon_us) return;
    if (!client.can_run(ev.interaction, ev.selection)) {
      run_event(index + 1);
      return;
    }
    out.interactions.push_back({});
    current = &out.interactions.back();
    current->start_us = start_us;
    current->name = ev.interaction;
    interaction_start = sim.now();
    client.run_interaction(ev.interaction, ev.selection,
                           [&, index](const apps::InteractionResult&) {
                             if (current != nullptr && current->waves.empty()) {
                               out.interactions.pop_back();
                             }
                             current = nullptr;
                             run_event(index + 1);
                           });
  };
  run_event(0);
  sim.run();
  return out;
}

}  // namespace

std::vector<UserStream> record_streams(const apps::AppSpec& spec, std::uint64_t seed,
                                       const std::vector<std::int64_t>& horizons_us,
                                       double dilation) {
  const std::size_t users = horizons_us.size();
  trace::TraceParams params;
  params.seed = seed;
  params.users = static_cast<int>(std::max<std::size_t>(users, 30));
  // Think times shrink with the dilation, so a session covering the longest
  // horizon of dilated time needs 1/dilation as much trace. Each user's
  // trace comes from its own stream, so the length only truncates it.
  const std::int64_t longest = *std::max_element(horizons_us.begin(), horizons_us.end());
  params.session_length = static_cast<Duration>(static_cast<double>(longest) / dilation);
  const std::vector<trace::UserTrace> traces = trace::generate_traces(spec, params);
  // Users are independent (one simulator and client each; OriginServer::serve
  // is thread-safe), so they are recorded on every core before the run.
  const apps::OriginServer origin(&spec);
  std::vector<UserStream> streams(users);
  const std::size_t workers =
      std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, std::max<std::size_t>(users, 1));
  std::vector<std::exception_ptr> errors(workers);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < workers; ++t) {
    threads.emplace_back([&, t] {
      try {
        for (std::size_t i = t; i < users; i += workers) {
          streams[i] = record_user(spec, origin, traces[i], user_name(i), dilation, horizons_us[i]);
        }
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return streams;
}

std::uint64_t stream_digest(const std::vector<UserStream>& streams) {
  std::uint64_t h = fnv1a64("");
  for (const UserStream& s : streams) {
    h = fnv1a64(s.user, h);
    for (const RecordedInteraction& it : s.interactions) {
      h = fnv1a64(std::to_string(it.start_us), h);
      for (const RecordedWave& w : it.waves) {
        h = fnv1a64(std::to_string(w.gap_us), h);
        for (const RecordedRequest& r : w.requests) h = fnv1a64(r.post, fnv1a64(r.pre, h));
      }
    }
  }
  return h;
}

double percentile(std::vector<double>& values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

}  // namespace livebench

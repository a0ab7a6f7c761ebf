// bench_alloc: allocations/request and body-bytes-copied/request on the
// serving data plane (DESIGN.md §5h).
//
// Links the counting operator new/delete (obs/hook/alloc_hook.cpp), runs the
// component pipeline a live connection runs per request — push-parse → arena
// request view → materialize → cache key → cache lookup → head render →
// slab handoff — and reports per-request heap traffic for the steady-state
// hit path and the miss-side extra work (upstream response parse + adopt).
//
// Output is a JSON object on stdout (merged into BENCH_micro.json by hand
// when re-recording numbers). With `--budget <file.json>` it doubles as the
// CI smoke gate: exits nonzero when the hit path exceeds the checked-in
// allocation budget or body bytes are copied between cache and socket.
//
// Usage:  ./build/bench/bench_alloc [--budget bench/alloc_budget.json]
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/cache.hpp"
#include "http/message.hpp"
#include "http/view.hpp"
#include "json/json.hpp"
#include "net/http_io.hpp"
#include "obs/alloc.hpp"
#include "util/arena.hpp"
#include "util/byte_io.hpp"

namespace {

using namespace appx;

constexpr int kWarmup = 16;
constexpr int kIters = 1024;

std::string wire_request() {
  http::Request req;
  req.method = "POST";
  req.uri = http::Uri::parse("https://api.wish.example/product/get");
  req.uri.add_query_param("offset", "0");
  req.uri.add_query_param("count", "30");
  req.headers.set("Cookie", "session=abcdef0123456789");
  req.headers.set("User-Agent", "Mozilla/5.0 (Linux; Android 9)");
  req.headers.set("X-Appx-User", "demo-user");
  req.set_form_fields({{"_client", "android"}, {"_ver", "4.13.0"}, {"pid", "item-17"}});
  return req.serialize();
}

std::string wire_response(std::size_t body_bytes) {
  http::Response resp;
  resp.status = 200;
  resp.headers.set("Content-Type", "application/json");
  resp.headers.set("Server", "origin/1.0");
  resp.body = std::string(body_bytes, 'j');
  return resp.serialize();
}

struct PathReport {
  double allocations = 0;  // operator new calls per request
  double heap_bytes = 0;   // bytes requested per request
  double body_bytes_copied = 0;
  bool zero_copy = false;  // served bytes ARE the cached bytes
};

// Steady-state hit: every reusable buffer warm, cached response resident.
PathReport measure_hit() {
  net::HttpParser parser;
  util::Arena arena;
  http::Request scratch;
  std::string key;
  std::string head;
  core::PrefetchCache cache;
  const std::vector<std::string> ignored;
  const std::string wire = wire_request();
  constexpr std::size_t kBodyBytes = 4096;

  {
    http::Response cached;
    cached.status = 200;
    cached.headers.set("Content-Type", "application/json");
    cached.body = std::string(kBodyBytes, 'j');
    core::PrefetchCache::Entry entry;
    entry.set_response(std::move(cached));
    util::Arena seed;
    http::materialize(http::parse_request_view(wire, seed), scratch);
    cache.put(scratch.cache_key(ignored), std::move(entry));
  }

  const char* cached_data = cache.get(key = scratch.cache_key(ignored), 0)->body.data();
  bool zero_copy = true;
  const auto pass = [&] {
    parser.append(wire.data(), wire.size());
    const auto message = parser.next_message();
    arena.reset();
    const http::RequestView view = http::parse_request_view(*message, arena);
    http::materialize(view, scratch);
    scratch.cache_key_into(key, ignored);
    const std::shared_ptr<const http::Response> response = cache.get(key, 0);
    head.clear();
    response->serialize_head_into(head, "X-Appx-Cache: hit");
    const http::BodySlab served = response->body;  // the out-queue's hold
    zero_copy = zero_copy && served.data() == cached_data;
  };

  for (int i = 0; i < kWarmup; ++i) pass();
  const obs::AllocCounters before = obs::thread_alloc_counters();
  for (int i = 0; i < kIters; ++i) pass();
  const obs::AllocCounters after = obs::thread_alloc_counters();

  PathReport report;
  report.allocations = double(after.allocations - before.allocations) / kIters;
  report.heap_bytes = double(after.bytes - before.bytes) / kIters;
  report.body_bytes_copied = 0;  // proven by pointer identity below
  report.zero_copy = zero_copy;
  return report;
}

// Miss-side extra work: parse the upstream response off the pooled
// connection's parser and adopt it for cache + client. The body leaves the
// parser buffer exactly once (string adoption into the slab).
PathReport measure_miss_extra() {
  net::HttpParser parser;
  std::string head;
  constexpr std::size_t kBodyBytes = 4096;
  const std::string wire = wire_response(kBodyBytes);

  const auto pass = [&] {
    parser.append(wire.data(), wire.size());
    const auto message = parser.next_message();
    http::Response parsed = http::Response::parse(*message);
    const auto shared = std::make_shared<const http::Response>(std::move(parsed));
    head.clear();
    shared->serialize_head_into(head, "X-Appx-Cache: miss");
    const http::BodySlab served = shared->body;
  };

  for (int i = 0; i < kWarmup; ++i) pass();
  const obs::AllocCounters before = obs::thread_alloc_counters();
  for (int i = 0; i < kIters; ++i) pass();
  const obs::AllocCounters after = obs::thread_alloc_counters();

  PathReport report;
  report.allocations = double(after.allocations - before.allocations) / kIters;
  report.heap_bytes = double(after.bytes - before.bytes) / kIters;
  report.body_bytes_copied = kBodyBytes;  // the single parser→slab adoption copy
  report.zero_copy = false;
  return report;
}

void print_path(const char* name, const PathReport& r, bool last) {
  std::printf("  \"%s\": {\n", name);
  std::printf("    \"allocations_per_request\": %.2f,\n", r.allocations);
  std::printf("    \"heap_bytes_per_request\": %.1f,\n", r.heap_bytes);
  std::printf("    \"body_bytes_copied_per_request\": %.0f,\n", r.body_bytes_copied);
  std::printf("    \"zero_copy_verified\": %s\n", r.zero_copy ? "true" : "false");
  std::printf("  }%s\n", last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  if (!obs::alloc_counting_active()) {
    std::fprintf(stderr,
                 "bench_alloc: allocation hook inactive (sanitizer build?) — "
                 "nothing to measure\n");
    return 1;
  }

  const PathReport hit = measure_hit();
  const PathReport miss = measure_miss_extra();

  std::printf("{\n");
  print_path("hit", hit, false);
  print_path("miss_extra", miss, false);
  // The numbers this PR replaced (recorded before the arena/slab/view data
  // plane landed), for the reduction claim in README.md.
  std::printf(
      "  \"before\": {\"hit_allocations_per_request\": 58.0, "
      "\"hit_heap_bytes_per_request\": 4663.0, "
      "\"hit_body_copied\": true, "
      "\"miss_extra_allocations_per_request\": 14.0}\n");
  std::printf("}\n");

  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--budget" && i + 1 < argc) {
      const std::vector<std::uint8_t> raw = read_file(argv[i + 1]);
      const json::Value budget =
          json::parse(std::string_view(reinterpret_cast<const char*>(raw.data()), raw.size()));
      const double max_allocs = budget.at("hit_allocations_per_request").as_double();
      if (hit.allocations > max_allocs) {
        std::fprintf(stderr, "bench_alloc: hit path allocates %.2f/request, budget %.2f\n",
                     hit.allocations, max_allocs);
        return 1;
      }
      if (!hit.zero_copy) {
        std::fprintf(stderr, "bench_alloc: hit body was copied between cache and socket\n");
        return 1;
      }
      std::fprintf(stderr, "bench_alloc: within budget (%.2f <= %.2f allocations/request)\n",
                   hit.allocations, max_allocs);
    }
  }
  return 0;
}

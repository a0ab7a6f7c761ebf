// Allocation budget for the zero-copy data plane (DESIGN.md §5h).
//
// This binary links appx::alloc_hook, whose replacement operator new/delete
// bumps thread-local counters (obs/alloc.hpp), so it can assert — not just
// report — that the steady-state hit path allocates within budget and never
// copies body bytes. The budget constant below is the same number the CI
// bench_alloc smoke gate enforces (bench/alloc_budget.json); change both
// together, with a reason.
//
// Under ASan/TSan the hook compiles out (the sanitizer owns the allocator),
// alloc_counting_active() is false, and these tests skip.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/cache.hpp"
#include "http/message.hpp"
#include "http/view.hpp"
#include "net/http_io.hpp"
#include "obs/alloc.hpp"
#include "util/arena.hpp"

namespace appx {
namespace {

// Heap allocations permitted per steady-state hit, end to end across the
// component data plane (parse → view → materialize → cache key → cache get →
// head render). ISSUE target is 0; 2 is the enforced ceiling.
constexpr double kHitAllocBudget = 2.0;

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

// One steady-state hit pass over warm state: exactly what a keep-alive
// connection does per request once every reusable buffer has its capacity.
struct HitPlane {
  net::HttpParser parser;
  util::Arena arena;
  http::Request scratch;
  std::string key;
  std::string head;
  core::PrefetchCache cache;
  std::vector<std::string> ignored;
  std::string wire = wire_request();

  HitPlane() {
    http::Response cached;
    cached.status = 200;
    cached.headers.set("Content-Type", "application/json");
    cached.body = std::string(4096, 'j');
    core::PrefetchCache::Entry entry;
    entry.set_response(std::move(cached));
    // Key from a first materialization (cold; warms the scratch state too).
    util::Arena seed_arena;
    http::materialize(http::parse_request_view(wire, seed_arena), scratch);
    cache.put(scratch.cache_key(ignored), std::move(entry));
  }

  // Returns the served slab so the caller can check pointer identity; the
  // slab riding out of the function is the out-queue's refcount bump.
  http::BodySlab pass() {
    parser.append(wire.data(), wire.size());
    const auto message = parser.next_message();
    EXPECT_TRUE(message.has_value());
    arena.reset();
    const http::RequestView view = http::parse_request_view(*message, arena);
    http::materialize(view, scratch);
    scratch.cache_key_into(key, ignored);
    const std::shared_ptr<const http::Response> response = cache.get(key, 0);
    EXPECT_NE(response, nullptr);
    head.clear();
    response->serialize_head_into(head, "X-Appx-Cache: hit");
    http::BodySlab slab = response->body;
    return slab;
  }
};

TEST(AllocBudget, SteadyStateHitPathStaysWithinBudget) {
  if (!obs::alloc_counting_active()) {
    GTEST_SKIP() << "allocation hook not active in this build";
  }
  HitPlane plane;
  for (int i = 0; i < 16; ++i) plane.pass();  // warm every capacity

  constexpr int kIters = 256;
  const obs::AllocCounters before = obs::thread_alloc_counters();
  for (int i = 0; i < kIters; ++i) plane.pass();
  const obs::AllocCounters after = obs::thread_alloc_counters();

  const double per_request =
      static_cast<double>(after.allocations - before.allocations) / kIters;
  EXPECT_LE(per_request, kHitAllocBudget)
      << (after.allocations - before.allocations) << " allocations over " << kIters
      << " warm hits (" << (after.bytes - before.bytes) / kIters << " bytes/request)";
}

TEST(AllocBudget, HitBodyIsServedByReferenceNotByCopy) {
  // Pointer identity, not content equality: the bytes handed to the write
  // queue ARE the cached bytes. Holds regardless of the hook, so no skip.
  HitPlane plane;
  const http::BodySlab served = plane.pass();
  const std::shared_ptr<const http::Response> stored = plane.cache.get(plane.key, 0);
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(served.data(), stored->body.data());
  EXPECT_EQ(served.size(), stored->body.size());
}

TEST(AllocBudget, WarmArenaAbsorbsRepeatedRequestsWithoutGrowth) {
  if (!obs::alloc_counting_active()) {
    GTEST_SKIP() << "allocation hook not active in this build";
  }
  const std::string wire = wire_request();
  util::Arena arena;
  for (int i = 0; i < 4; ++i) {  // warm: first pass sizes the block list
    arena.reset();
    http::parse_request_view(wire, arena);
  }
  const obs::AllocCounters before = obs::thread_alloc_counters();
  for (int i = 0; i < 64; ++i) {
    arena.reset();
    http::parse_request_view(wire, arena);
  }
  const obs::AllocCounters after = obs::thread_alloc_counters();
  EXPECT_EQ(after.allocations, before.allocations)
      << "warm arena went back to the heap";
}

}  // namespace
}  // namespace appx

// Shared pieces of the live-path benchmark's three processes (origin, proxy,
// generator): the clock every process stamps with, argument parsing, the
// recorded request stream the generator replays and the checker compares
// against, and small output helpers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "apps/spec.hpp"
#include "http/message.hpp"

namespace livebench {

// CLOCK_MONOTONIC in microseconds. One clock for every process on the host,
// so spans stamped in the generator and in the proxy can be subtracted.
std::int64_t mono_us();

std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t h = 1469598103934665603ULL);

// "--key value" pairs after the subcommand. Every option takes a value.
class Args {
 public:
  Args(int argc, char** argv, int first);
  std::string str(const std::string& key, const std::string& fallback = {}) const;
  std::int64_t num(const std::string& key, std::int64_t fallback) const;
  double real(const std::string& key, double fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

appx::apps::AppSpec make_app(const std::string& name);

// What apps::OriginServer::serve returns for a request: the checker's
// reference. Opaque (image) payloads travel as a declared byte count, so they
// are compared by size.
struct Expected {
  int status = 0;
  std::uint64_t body_len = 0;
  std::uint64_t body_digest = 0;
  std::uint64_t opaque = 0;
};
Expected expected_of(const appx::http::Response& response);

struct RecordedRequest {
  std::string pre;   // request line
  std::string post;  // remaining head + body (the generator inserts X-Appx-User between)
  Expected expected;
};

// One synchronous round of parallel requests. `gap_us` is the client's own
// delay before sending it: after the interaction start for the first wave,
// after the previous wave's last response for later ones.
struct RecordedWave {
  std::int64_t gap_us = 0;
  std::vector<RecordedRequest> requests;
};

struct RecordedInteraction {
  std::int64_t start_us = 0;  // offset from the user's session start
  std::string name;
  std::vector<RecordedWave> waves;
};

struct UserStream {
  std::string user;
  std::vector<RecordedInteraction> interactions;
};

// Replays the seeded user-study traces (trace::generate_traces) through
// apps::AppClient against an in-process origin and records every request,
// grouped into interactions and waves, with the response the origin gave.
// `dilation` scales the think time between interactions. One user per entry
// of `horizons_us` (the first 30 are the 30-user study trace for the seed);
// a user's recording stops at the first interaction starting at or after its
// horizon, in dilated time from its session start.
std::vector<UserStream> record_streams(const appx::apps::AppSpec& spec, std::uint64_t seed,
                                       const std::vector<std::int64_t>& horizons_us,
                                       double dilation);

// Digest of every request byte the generator would send, in user order.
std::uint64_t stream_digest(const std::vector<UserStream>& streams);

// The proxy-side name of a user ("X-Appx-User" value).
std::string user_name(std::size_t index);

// Sorted-sample percentile (q in [0,1]); 0 for an empty sample.
double percentile(std::vector<double>& values, double q);

}  // namespace livebench

// Transaction signatures and inter-transaction dependencies.
//
// A TransactionSignature is the static-analysis description of one HTTP
// transaction (request-response pair) an app can perform — the paper's Fig. 5.
// Request-side fields are FieldTemplates (literal text + named holes);
// response-side fields are JSON paths with value shapes. A DependencyEdge
// states that the value at a path of one signature's *response* binds a named
// hole in another signature's *request* — the "blue lines" in the paper's
// figures, and the entire basis for prefetching.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "http/message.hpp"
#include "json/json.hpp"
#include "pattern/template.hpp"
#include "util/byte_io.hpp"
#include "util/units.hpp"

namespace appx::core {

using pattern::Bindings;
using pattern::FieldTemplate;

// Where a request field lives.
enum class FieldLocation : std::uint8_t { kQuery, kHeader, kBody };

std::string_view to_string(FieldLocation location);

// One named request field. `optional` marks fields whose inclusion depends on
// a branch condition in the app code (paper Fig. 8); dynamic learning decides
// per run which optional fields are present by observing live traffic.
struct RequestField {
  FieldLocation location = FieldLocation::kBody;
  std::string name;
  FieldTemplate value;
  bool optional = false;

  bool operator==(const RequestField&) const = default;
};

// Body encoding of the request.
enum class BodyKind : std::uint8_t { kNone, kForm };

struct RequestSignature {
  std::string method = "GET";
  // Scheme+host may be unresolvable statically (paper C2: "the host URI of
  // HTTP requests that change dynamically"); then `host` contains a hole.
  FieldTemplate scheme;  // usually literal "https"
  FieldTemplate host;
  FieldTemplate path;  // URI path template, e.g. literal "/product/get"
  std::vector<RequestField> query;
  std::vector<RequestField> headers;
  BodyKind body_kind = BodyKind::kNone;
  std::vector<RequestField> body;

  // All hole names appearing anywhere in the request.
  std::vector<std::string> hole_names() const;

  bool operator==(const RequestSignature&) const = default;
};

// A field the analysis identified in a JSON response body.
struct ResponseField {
  std::string path;   // json::Path text, e.g. "data.products[*].product_info.id"
  std::string shape;  // value regex, usually ".*"

  bool operator==(const ResponseField&) const = default;
};

enum class ResponseBodyKind : std::uint8_t { kJson, kOpaque };

struct ResponseSignature {
  std::vector<RequestField> headers;  // e.g. Set-Cookie: .*
  ResponseBodyKind body_kind = ResponseBodyKind::kJson;
  std::vector<ResponseField> fields;

  bool operator==(const ResponseSignature&) const = default;
};

struct TransactionSignature {
  std::string id;     // stable short digest, assigned by finalize()
  std::string app;    // owning app package name
  std::string label;  // human-readable, e.g. "wish.get_feed"
  RequestSignature request;
  ResponseSignature response;

  // Recompute `id` from content (label excluded so renaming is harmless).
  void finalize();

  // URI regex in the paper's display form, e.g. "https://.*/product/get".
  std::string uri_regex() const;

  // Whole-request match against a concrete message: method, URI, headers and
  // body must all fit the templates, with consistent hole bindings across
  // fields. Optional fields may be absent. Returns the bindings on success.
  std::optional<Bindings> match(const http::Request& request) const;

  // Like match(), but also reports which optional fields were absent — the
  // "instance class" of the observed request (paper Fig. 8). Keys are
  // "<location>:<name>", e.g. "body:credit_id".
  struct MatchResult {
    Bindings bindings;
    std::vector<std::string> absent_optional;
  };
  std::optional<MatchResult> match_ex(const http::Request& request) const;

  // Names of holes in this request NOT fed by any dependency edge; these are
  // run-time values (host, cookie, version, ...) learned from live traffic.
  // (Computed by SignatureSet which knows the edges.)

  void serialize(ByteWriter& out) const;
  static TransactionSignature deserialize(ByteReader& in);

  bool operator==(const TransactionSignature&) const = default;
};

// Response-path -> request-hole dependency.
struct DependencyEdge {
  std::string pred_id;
  std::string pred_path;  // JSON path in the predecessor's response body
  std::string succ_id;
  std::string hole;  // hole name in the successor's request templates

  bool operator==(const DependencyEdge&) const = default;
};

class SignatureIndex;

// Dispatch-index effectiveness. The index is shared and never written by a
// lookup, so each caller that wants these figures counts into its own
// counters (a proxy shard keeps one set). Relaxed atomics: readable from any
// thread; totals may be mutually skewed by in-flight lookups but each is
// individually exact.
struct DispatchCounters {
  std::atomic<std::int64_t> lookups{0};     // match_request calls
  std::atomic<std::int64_t> candidates{0};  // signatures surviving the prefilter
  std::atomic<std::int64_t> confirmed{0};   // lookups that returned a signature
};

// The complete analysis output for one or more apps: signatures + edges.
//
// Every method that changes the set (add, add_edge, absorb) keeps the
// dispatch index complete, and no const method writes anything, so once
// built a set may be read and matched against from any number of threads.
class SignatureSet {
 public:
  SignatureSet();
  SignatureSet(SignatureSet&&) noexcept;
  SignatureSet& operator=(SignatureSet&&) noexcept;
  ~SignatureSet();

  // Takes ownership; finalizes the signature if it has no id yet.
  // Throws InvalidArgumentError on duplicate ids.
  const TransactionSignature& add(TransactionSignature sig);
  void add_edge(DependencyEdge edge);

  const TransactionSignature* find(std::string_view id) const;
  const TransactionSignature& get(std::string_view id) const;  // throws NotFoundError
  const TransactionSignature* find_by_label(std::string_view label) const;

  const std::vector<std::unique_ptr<TransactionSignature>>& all() const { return signatures_; }
  const std::vector<DependencyEdge>& edges() const { return edges_; }
  std::size_t size() const { return signatures_.size(); }

  std::vector<const DependencyEdge*> edges_from(std::string_view pred_id) const;
  std::vector<const DependencyEdge*> edges_to(std::string_view succ_id) const;

  // Paper terminology: a signature is a *successor* (prefetchable) if some
  // edge feeds it, a *predecessor* if some edge reads from its response.
  bool is_successor(std::string_view id) const;
  bool is_predecessor(std::string_view id) const;
  std::vector<const TransactionSignature*> prefetchable() const;

  // Holes of `id` not bound by any incoming edge: run-time holes.
  std::vector<std::string> runtime_holes(std::string_view id) const;
  // Holes of `id` bound by incoming edges: dependency holes.
  std::vector<std::string> dependency_holes(std::string_view id) const;

  // Longest successive dependency chain (number of edges on the longest
  // simple path through the dependency DAG) — Table 3's "Max len".
  std::size_t max_chain_length() const;

  // First signature whose templates match the request (paper Fig. 6: "regex
  // matching" identifies the learning target). Signatures of `app` only when
  // app != "". Dispatches through the SignatureIndex, so the cost is
  // near-constant in the set size; results are identical to
  // match_request_linear. Counts the lookup into `counters` when non-null.
  const TransactionSignature* match_request(const http::Request& request,
                                            std::string_view app = "",
                                            DispatchCounters* counters = nullptr) const;

  // Reference implementation: linear scan over all signatures in insertion
  // order. Kept for tests and benchmarks of the dispatch index.
  const TransactionSignature* match_request_linear(const http::Request& request,
                                                   std::string_view app = "") const;

  // The dispatch index over the current signatures.
  const SignatureIndex& index() const;

  // Restrict to one app's signatures (copies; used per-proxy-target).
  SignatureSet subset_for_app(std::string_view app) const;

  // Copy every signature and edge of `other` into this set (the paper's
  // multi-app proxy: "the proxy can accelerate multiple target apps").
  // Throws InvalidArgumentError on id collisions.
  void absorb(const SignatureSet& other);

  std::vector<std::uint8_t> serialize() const;
  static SignatureSet deserialize(const std::vector<std::uint8_t>& data);

 private:
  std::vector<std::unique_ptr<TransactionSignature>> signatures_;
  std::map<std::string, const TransactionSignature*, std::less<>> by_id_;
  std::vector<DependencyEdge> edges_;
  std::unique_ptr<SignatureIndex> index_;  // null until the first add
};

// Composite key identifying a field within a request: "<location>:<name>".
std::string field_key(const RequestField& field);

// Helper used by signature matching and learning: match a set of RequestField
// templates against concrete (name, value) pairs. Every non-optional field
// must be present and match; present optional fields must match; extra
// concrete pairs are allowed only if `allow_extra`. Bindings accumulate into
// `bindings` (shared across fields for consistency). When `absent_out` is
// non-null, the field keys of absent optional fields are appended to it.
bool match_fields(const std::vector<RequestField>& fields,
                  const std::vector<std::pair<std::string, std::string>>& concrete,
                  bool case_insensitive_names, bool allow_extra, Bindings& bindings,
                  std::vector<std::string>* absent_out = nullptr);

}  // namespace appx::core

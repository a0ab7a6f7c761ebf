// Literal-prefilter dispatch index over a signature set.
//
// SignatureSet::match_request is on the proxy's per-message fast path: every
// client request, origin response and prefetch response is identified by
// matching it against the signatures (paper Fig. 6). A linear scan runs the
// full template machinery for every candidate, so the per-message cost grows
// with the number of signatures — and the multi-app proxy (SignatureSet::
// absorb) multiplies that by the number of accelerated apps.
//
// The index prunes candidates with two cheap invariants of template matching:
//   * the request method must equal the signature's method verbatim, and
//   * the concrete URI path must start with the longest literal prefix that
//     every match of the signature's path template shares (the leading
//     literal run, extended into the first hole's shape via
//     Regex::required_prefix).
// Signatures are bucketed by method into a byte-trie over their path
// prefixes; a lookup walks the request path once, collecting the signatures
// parked along the way, then confirms them with the full template match in
// insertion order. A literal host prefix is kept per signature as one more
// O(prefix) reject before the expensive confirmation. Results are
// bit-identical to the linear scan — the prefilter only removes signatures
// whose full match is guaranteed to fail.
//
// The index holds raw pointers into the owning SignatureSet, which inserts
// each signature as it is added, so the index is complete whenever the set
// is. Lookups change nothing in it: threads may match against one set at
// once, each counting into its own DispatchCounters.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/signature.hpp"
#include "http/message.hpp"

namespace appx::core {

class SignatureIndex {
 public:
  // Appends a signature; it comes after every signature inserted before it.
  void insert(const TransactionSignature* signature);

  // First signature (in the set's insertion order) whose templates match the
  // request; signatures of `app` only when app != "". Same contract as
  // SignatureSet::match_request.
  const TransactionSignature* match(const http::Request& request, std::string_view app = "",
                                    DispatchCounters* counters = nullptr) const;

  // Signatures surviving the method/path/host prefilter for this request, in
  // insertion order. Exposed for tests and instrumentation.
  std::vector<const TransactionSignature*> candidates(const http::Request& request) const;

  std::size_t size() const { return entries_.size(); }

  // The prefilter key computed for one signature (test hook).
  struct Key {
    std::string method;
    std::string host_prefix;
    std::string path_prefix;
  };
  static Key key_for(const TransactionSignature& signature);

 private:
  struct Entry {
    const TransactionSignature* sig = nullptr;
    std::uint32_t order = 0;       // insertion index in the owning set
    std::string host_prefix;       // request host must start with this
  };
  struct TrieNode {
    // Sparse children; signature path prefixes are short and few, so a
    // linearly scanned edge list beats a 256-wide table on cache footprint.
    std::vector<std::pair<char, std::int32_t>> children;
    std::vector<std::uint32_t> entries;  // Entry indices terminating here
  };

  std::int32_t child_of(std::int32_t node, char c) const;
  void collect(const http::Request& request, std::vector<std::uint32_t>& out) const;

  std::vector<Entry> entries_;                    // insertion order
  std::map<std::string, std::int32_t> method_roots_;  // method -> trie root
  std::vector<TrieNode> nodes_;                   // shared pool, all tries
};

}  // namespace appx::core

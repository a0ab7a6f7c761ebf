#include "core/signature_index.hpp"

#include <algorithm>

#include "pattern/regex.hpp"

namespace appx::core {

namespace {

// Longest string every match of `t` must start with: the leading literal
// run, extended into the first hole's shape via Regex::required_prefix.
std::string template_prefix(const FieldTemplate& t) {
  std::string prefix;
  for (std::size_t i = 0; i < t.segments().size(); ++i) {
    const FieldTemplate::Segment& seg = t.segments()[i];
    if (!seg.is_hole) {
      prefix += seg.text;  // adjacent literals are merged, but be permissive
      continue;
    }
    // A ".*" hole (no compiled shape) requires no prefix.
    if (const pattern::Regex* shape = t.shape_regex(i)) prefix += shape->required_prefix();
    break;  // beyond the first hole the offset is no longer fixed
  }
  return prefix;
}

}  // namespace

SignatureIndex::Key SignatureIndex::key_for(const TransactionSignature& signature) {
  Key key;
  key.method = signature.request.method;
  key.host_prefix = template_prefix(signature.request.host);
  key.path_prefix = template_prefix(signature.request.path);
  return key;
}

void SignatureIndex::insert(const TransactionSignature* sig) {
  const auto order = static_cast<std::uint32_t>(entries_.size());
  const Key key = key_for(*sig);

  const auto [it, inserted] = method_roots_.try_emplace(key.method, 0);
  if (inserted) {
    it->second = static_cast<std::int32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  std::int32_t node = it->second;
  for (char c : key.path_prefix) {
    std::int32_t next = child_of(node, c);
    if (next < 0) {
      next = static_cast<std::int32_t>(nodes_.size());
      nodes_.emplace_back();
      nodes_[static_cast<std::size_t>(node)].children.emplace_back(c, next);
    }
    node = next;
  }
  nodes_[static_cast<std::size_t>(node)].entries.push_back(order);

  entries_.push_back(Entry{sig, order, key.host_prefix});
}

std::int32_t SignatureIndex::child_of(std::int32_t node, char c) const {
  for (const auto& [edge, target] : nodes_[static_cast<std::size_t>(node)].children) {
    if (edge == c) return target;
  }
  return -1;
}

void SignatureIndex::collect(const http::Request& request,
                             std::vector<std::uint32_t>& out) const {
  const auto root = method_roots_.find(request.method);
  if (root == method_roots_.end()) return;
  std::int32_t node = root->second;
  const auto& path_entries = nodes_[static_cast<std::size_t>(node)].entries;
  out.insert(out.end(), path_entries.begin(), path_entries.end());
  for (char c : request.uri.path) {
    node = child_of(node, c);
    if (node < 0) break;
    const auto& more = nodes_[static_cast<std::size_t>(node)].entries;
    out.insert(out.end(), more.begin(), more.end());
  }
  // Per-node lists are ascending, but deeper nodes can hold earlier
  // signatures; restore global insertion order for first-match semantics.
  std::sort(out.begin(), out.end());
}

const TransactionSignature* SignatureIndex::match(const http::Request& request,
                                                  std::string_view app,
                                                  DispatchCounters* counters) const {
  // Reusable per-thread candidate buffer: the fast path allocates nothing in
  // steady state, and threads matching against one shared index never touch
  // each other's buffers.
  thread_local std::vector<std::uint32_t> candidates;
  candidates.clear();
  collect(request, candidates);
  if (counters != nullptr) {
    counters->lookups.fetch_add(1, std::memory_order_relaxed);
    counters->candidates.fetch_add(static_cast<std::int64_t>(candidates.size()),
                                   std::memory_order_relaxed);
  }
  for (std::uint32_t idx : candidates) {
    const Entry& entry = entries_[idx];
    if (!app.empty() && entry.sig->app != app) continue;
    if (!std::string_view(request.uri.host).starts_with(entry.host_prefix)) continue;
    if (entry.sig->match(request)) {
      if (counters != nullptr) counters->confirmed.fetch_add(1, std::memory_order_relaxed);
      return entry.sig;
    }
  }
  return nullptr;
}

std::vector<const TransactionSignature*> SignatureIndex::candidates(
    const http::Request& request) const {
  std::vector<std::uint32_t> indices;
  collect(request, indices);
  std::vector<const TransactionSignature*> out;
  out.reserve(indices.size());
  for (std::uint32_t idx : indices) {
    const Entry& entry = entries_[idx];
    if (!std::string_view(request.uri.host).starts_with(entry.host_prefix)) continue;
    out.push_back(entry.sig);
  }
  return out;
}

}  // namespace appx::core

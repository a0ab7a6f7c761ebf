// Refcounted immutable body bytes (DESIGN.md §5h).
//
// A BodySlab is a (bytes, keepalive) pair: a view of the payload plus a
// shared owner of whatever storage backs it. Copying a slab bumps a refcount
// and never touches the payload, so one prefetched response body can sit in
// the PrefetchCache, ride a Decision to a worker thread, and wait in a
// connection's pending-write queue simultaneously — all the same bytes,
// freed when the last holder lets go. A slab held by a write queue keeps the
// body alive even if the cache entry is evicted (or the cache destroyed)
// mid-write.
//
// Slabs are immutable by construction: there is no mutating access to the
// payload. "Mutation" at call sites (resp.body = ...) rebinds the slab.
#pragma once

#include <cstddef>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace appx::http {

class BodySlab {
 public:
  BodySlab() = default;

  // Adopt a string's buffer: no byte copy, one shared-ownership allocation.
  // Implicit so `response.body = std::move(s)` keeps working at call sites.
  BodySlab(std::string bytes) {  // NOLINT(google-explicit-constructor)
    if (bytes.empty()) return;
    auto owner = std::make_shared<const std::string>(std::move(bytes));
    bytes_ = *owner;
    keepalive_ = std::move(owner);
  }
  BodySlab(std::string_view bytes)  // NOLINT(google-explicit-constructor)
      : BodySlab(std::string(bytes)) {}
  BodySlab(const char* bytes)  // NOLINT(google-explicit-constructor)
      : BodySlab(std::string(bytes)) {}

  // Copy bytes into a fresh slab (the miss path copies an upstream body out
  // of the parser's buffer exactly once, here).
  static BodySlab copy(std::string_view bytes) { return BodySlab(std::string(bytes)); }

  // View over storage with static lifetime (canned error responses). No
  // refcount, no allocation.
  static BodySlab static_bytes(std::string_view bytes) {
    BodySlab slab;
    slab.bytes_ = bytes;
    return slab;
  }

  // View over caller-owned storage kept alive by `keepalive` (e.g. bytes
  // inside another refcounted object).
  static BodySlab alias(std::string_view bytes, std::shared_ptr<const void> keepalive) {
    BodySlab slab;
    slab.bytes_ = bytes;
    slab.keepalive_ = std::move(keepalive);
    return slab;
  }

  std::string_view view() const { return bytes_; }
  operator std::string_view() const { return bytes_; }  // NOLINT
  const char* data() const { return bytes_.data(); }
  std::size_t size() const { return bytes_.size(); }
  bool empty() const { return bytes_.empty(); }
  std::string str() const { return std::string(bytes_); }

  // Slabs compare by content (cache keys and tests compare bodies). The
  // const char* overload is an exact match so string literals don't trip the
  // implicit-conversion candidates into ambiguity.
  friend bool operator==(const BodySlab& a, const BodySlab& b) { return a.bytes_ == b.bytes_; }
  friend bool operator==(const BodySlab& a, std::string_view b) { return a.bytes_ == b; }
  friend bool operator==(const BodySlab& a, const std::string& b) { return a.bytes_ == b; }
  friend bool operator==(const BodySlab& a, const char* b) {
    return a.bytes_ == std::string_view(b);
  }

  friend std::ostream& operator<<(std::ostream& os, const BodySlab& slab) {
    return os << slab.bytes_;
  }

 private:
  std::string_view bytes_;
  std::shared_ptr<const void> keepalive_;
};

}  // namespace appx::http

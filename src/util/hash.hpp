// Stable (platform-independent) hashing.
//
// Signature hashes (the `hash` field in the proxy configuration, Fig. 9 of the
// paper) must be stable across runs and machines, so we use FNV-1a rather than
// std::hash.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace appx {

std::uint64_t fnv1a(std::string_view data);
std::uint64_t fnv1a(const void* data, std::size_t len);

// Combine hashes (boost-style mix).
std::uint64_t hash_combine(std::uint64_t seed, std::uint64_t value);

// Short printable digest, e.g. "ar93ba"-style ids in configurations: the
// first hex_chars (at most 16) hex digits of fnv1a(data).
std::string short_digest(std::string_view data, std::size_t hex_chars = 12);
// Appends short_digest(data, hex_chars) to `out` without a temporary.
void append_short_digest(std::string& out, std::string_view data, std::size_t hex_chars = 12);

}  // namespace appx

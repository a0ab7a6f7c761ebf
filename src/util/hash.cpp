#include "util/hash.hpp"

namespace appx {

std::uint64_t fnv1a(std::string_view data) { return fnv1a(data.data(), data.size()); }

std::uint64_t fnv1a(const void* data, std::size_t len) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t hash_combine(std::uint64_t seed, std::uint64_t value) {
  return seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

std::string short_digest(std::string_view data, std::size_t hex_chars) {
  std::string out;
  append_short_digest(out, data, hex_chars);
  return out;
}

void append_short_digest(std::string& out, std::string_view data, std::size_t hex_chars) {
  static constexpr char kHex[] = "0123456789abcdef";
  const std::uint64_t h = fnv1a(data);
  const std::size_t n = hex_chars < 16 ? hex_chars : 16;
  for (std::size_t i = 0; i < n; ++i) out += kHex[(h >> (60 - 4 * i)) & 0xf];
}

}  // namespace appx

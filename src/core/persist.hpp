// Durable learned state (DESIGN.md §5k): the versioned snapshot container.
//
// APPx's acceleration only pays off once the proxy has *learned* — resolved
// wildcards, dependency flows, per-signature value estimates. Cluster mode
// (warm restart, user handoff between nodes) needs that state to survive the
// process, so the engine (ShardedProxyEngine) packs each learned component's
// bytes into a named section of one self-describing binary container:
//
//   magic "APPXSNAP" | u32 container version | u32 section count
//   sections: { str name, u32 section version, u64 payload length, payload }
//   trailing u64 FNV-1a checksum over everything before it
//
// Versioning rules:
//   * A container whose version is NEWER than this build understands is
//     rejected with SnapshotVersionError — an old node never misparses a new
//     node's snapshot.
//   * Unknown section NAMES are skipped: an old snapshot restored by a newer
//     build (or vice versa) warms every component both sides know about.
//   * A section whose version is newer than its reader supports leaves that
//     component cold (SnapshotView::decode returns false); the rest of the
//     snapshot still restores.
//   * Truncation/bit-rot fails the checksum before any section is parsed:
//     SnapshotCorruptError, never a crash or a half-restored engine. A
//     payload that passes the checksum but does not decode (a hand-made
//     blob: the checksum is public) is SnapshotCorruptError as well.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/byte_io.hpp"
#include "util/error.hpp"

namespace appx::core {

// Bumped when the CONTAINER layout changes (not when a component's section
// payload evolves — sections carry their own versions).
inline constexpr std::uint32_t kSnapshotFormatVersion = 1;

// Any snapshot failure; catch this to degrade to a cold start.
class SnapshotError : public Error {
 public:
  explicit SnapshotError(const std::string& what) : Error(what) {}
};

// The blob comes from a future build: forward-incompatible, rejected cleanly.
class SnapshotVersionError : public SnapshotError {
 public:
  explicit SnapshotVersionError(const std::string& what) : SnapshotError(what) {}
};

// Bad magic, failed checksum, or a section table that does not parse.
class SnapshotCorruptError : public SnapshotError {
 public:
  explicit SnapshotCorruptError(const std::string& what) : SnapshotError(what) {}
};

// Accumulates sections and renders the container.
class SnapshotBuilder {
 public:
  void add_raw(std::string_view name, std::uint32_t version, const ByteWriter& payload);

  // Render the container (magic, version, table, checksum). The builder can
  // keep accumulating and finish() again; each call re-renders.
  std::vector<std::uint8_t> finish() const;

 private:
  struct Section {
    std::string name;
    std::uint32_t version;
    std::vector<std::uint8_t> payload;
  };
  std::vector<Section> sections_;
};

// Parsed view over a snapshot blob. Parsing validates magic, container
// version and checksum up front; section payloads are only decoded by the
// component they belong to.
class SnapshotView {
 public:
  // Throws SnapshotCorruptError / SnapshotVersionError. The blob must outlive
  // the view (payloads are referenced, not copied).
  explicit SnapshotView(const std::vector<std::uint8_t>& blob);

  struct Section {
    std::uint32_t version = 0;
    const std::uint8_t* data = nullptr;
    std::size_t size = 0;
  };

  std::uint32_t container_version() const { return container_version_; }
  std::size_t section_count() const { return sections_.size(); }
  const Section* find(std::string_view name) const;

  // Decode section `name` with `read(ByteReader&, std::uint32_t version)`.
  // Returns false without calling `read` — the state it feeds stays cold —
  // when the section is absent or was written by a revision newer than
  // `supported`. Any decode error surfaces as SnapshotCorruptError.
  template <typename Decode>
  bool decode(std::string_view name, std::uint32_t supported, Decode&& read) const {
    const Section* section = readable(name, supported);
    if (section == nullptr) return false;
    ByteReader in(section->data, section->size);
    try {
      read(in, section->version);
    } catch (const SnapshotError&) {
      throw;
    } catch (const Error& e) {
      throw_undecodable(name, e);
    }
    return true;
  }

 private:
  // The section if present and no newer than `supported` (a newer one is
  // logged: that component restarts cold).
  const Section* readable(std::string_view name, std::uint32_t supported) const;
  [[noreturn]] static void throw_undecodable(std::string_view name, const Error& e);

  std::uint32_t container_version_ = 0;
  std::map<std::string, Section, std::less<>> sections_;
};

}  // namespace appx::core

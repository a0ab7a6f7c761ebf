#include "core/persist.hpp"

#include "util/hash.hpp"
#include "util/log.hpp"

namespace appx::core {

namespace {

constexpr char kMagic[8] = {'A', 'P', 'P', 'X', 'S', 'N', 'A', 'P'};

}  // namespace

void SnapshotBuilder::add_raw(std::string_view name, std::uint32_t version,
                              const ByteWriter& payload) {
  Section section;
  section.name = std::string(name);
  section.version = version;
  section.payload = payload.data();
  sections_.push_back(std::move(section));
}

std::vector<std::uint8_t> SnapshotBuilder::finish() const {
  ByteWriter out;
  out.raw(kMagic, sizeof(kMagic));
  out.u32(kSnapshotFormatVersion);
  out.u32(static_cast<std::uint32_t>(sections_.size()));
  for (const Section& section : sections_) {
    out.str(section.name);
    out.u32(section.version);
    out.u64(section.payload.size());
    out.raw(section.payload.data(), section.payload.size());
  }
  const std::uint64_t checksum = fnv1a(out.data().data(), out.size());
  out.u64(checksum);
  return out.take();
}

SnapshotView::SnapshotView(const std::vector<std::uint8_t>& blob) {
  // Envelope first: magic, then checksum over everything before the trailing
  // u64, so truncation and bit-rot are caught before any parsing.
  if (blob.size() < sizeof(kMagic) + 4 + 4 + 8 ||
      std::string_view(reinterpret_cast<const char*>(blob.data()), sizeof(kMagic)) !=
          std::string_view(kMagic, sizeof(kMagic))) {
    throw SnapshotCorruptError("snapshot: bad magic or short file (" +
                               std::to_string(blob.size()) + " bytes)");
  }
  const std::size_t body = blob.size() - 8;
  ByteReader tail(blob.data() + body, 8);
  if (tail.u64() != fnv1a(blob.data(), body)) {
    throw SnapshotCorruptError("snapshot: checksum mismatch (truncated or corrupt file)");
  }

  ByteReader in(blob.data(), body);
  try {
    in.skip(sizeof(kMagic));
    container_version_ = in.u32();
    if (container_version_ > kSnapshotFormatVersion) {
      throw SnapshotVersionError(
          "snapshot: container format v" + std::to_string(container_version_) +
          " is newer than supported v" + std::to_string(kSnapshotFormatVersion) +
          "; refusing to guess (cold start instead)");
    }
    const std::uint32_t count = in.u32();
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::string name = in.str();
      Section section;
      section.version = in.u32();
      section.size = in.u64();
      if (section.size > in.remaining()) {
        throw ParseError("section '" + name + "' overruns the file");
      }
      section.data = in.cursor();
      in.skip(section.size);
      sections_.emplace(name, section);
    }
  } catch (const SnapshotError&) {
    throw;
  } catch (const Error& e) {
    throw SnapshotCorruptError(std::string("snapshot: malformed section table: ") + e.what());
  }
}

const SnapshotView::Section* SnapshotView::find(std::string_view name) const {
  const auto it = sections_.find(name);
  return it == sections_.end() ? nullptr : &it->second;
}

const SnapshotView::Section* SnapshotView::readable(std::string_view name,
                                                    std::uint32_t supported) const {
  const Section* section = find(name);
  if (section != nullptr && section->version > supported) {
    log_warn("persist") << "section '" << name << "' is v" << section->version
                        << " but this build supports v" << supported
                        << "; component stays cold";
    return nullptr;
  }
  return section;
}

void SnapshotView::throw_undecodable(std::string_view name, const Error& e) {
  throw SnapshotCorruptError("snapshot: section '" + std::string(name) +
                             "' failed to decode: " + e.what());
}

}  // namespace appx::core

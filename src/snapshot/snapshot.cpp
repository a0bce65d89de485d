#include "snapshot/snapshot.hpp"

#include <cstring>
#include <string>
#include <utility>

#include "common/assert.hpp"

namespace bacp::snapshot {

const char* to_string(SectionId id) {
  switch (id) {
    case SectionId::SystemMeta: return "system_meta";
    case SectionId::Noc: return "noc";
    case SectionId::Dram: return "dram";
    case SectionId::Directory: return "directory";
    case SectionId::L2: return "l2";
    case SectionId::L1: return "l1";
    case SectionId::Generators: return "generators";
    case SectionId::Profilers: return "profilers";
    case SectionId::Timers: return "timers";
    case SectionId::Sched: return "sched";
  }
  return "?";
}

namespace {

constexpr std::uint64_t kPrime = 0x00000100000001B3ull;
constexpr std::uint64_t kBasis = 0xCBF29CE484222325ull;

std::uint64_t load_word(const std::uint8_t* at) {
  std::uint64_t word = 0;
  std::memcpy(&word, at, sizeof(word));
  return word;
}

std::uint32_t load_u32(const std::uint8_t* at) {
  std::uint32_t value = 0;
  std::memcpy(&value, at, sizeof(value));
  return value;
}

}  // namespace

std::uint64_t checksum(std::span<const std::uint8_t> bytes) {
  // Four lanes, one word each per 32-byte block. memcpy keeps the word
  // loads legal on any alignment; host byte order is fine because
  // snapshots are host-order throughout.
  std::uint64_t lane0 = kBasis;
  std::uint64_t lane1 = kBasis ^ 0x9E3779B97F4A7C15ull;
  std::uint64_t lane2 = kBasis ^ 0xC2B2AE3D27D4EB4Full;
  std::uint64_t lane3 = kBasis ^ 0x165667B19E3779F9ull;
  const std::uint8_t* at = bytes.data();
  std::size_t left = bytes.size();
  for (; left >= 32; left -= 32, at += 32) {
    lane0 = (lane0 ^ load_word(at)) * kPrime;
    lane1 = (lane1 ^ load_word(at + 8)) * kPrime;
    lane2 = (lane2 ^ load_word(at + 16)) * kPrime;
    lane3 = (lane3 ^ load_word(at + 24)) * kPrime;
  }
  // Ordered fold: each lane enters at its own step (so exchanging two
  // lanes' values changes the result), then the tail words and bytes.
  std::uint64_t hash = (kBasis ^ lane0) * kPrime;
  hash = (hash ^ lane1) * kPrime;
  hash = (hash ^ lane2) * kPrime;
  hash = (hash ^ lane3) * kPrime;
  for (; left >= 8; left -= 8, at += 8) hash = (hash ^ load_word(at)) * kPrime;
  for (; left > 0; --left, ++at) hash = (hash ^ *at) * kPrime;
  return hash;
}

Framing validate_framing(std::span<const std::uint8_t> bytes) {
  Framing framing;
  // Counts one invariant; `describe` builds the defect only on failure, so
  // a sound snapshot costs the walk and the checksums and nothing else.
  const auto check = [&framing](bool ok, auto&& describe) {
    ++framing.checks;
    if (!ok) framing.defects.push_back(describe());
    return ok;
  };
  using std::to_string;
  const auto size = [&] { return to_string(bytes.size()) + " bytes"; };

  if (!check(bytes.size() >= kHeaderBytes, [&] {
        return FramingDefect{"snapshot", "min_size", ">= " + to_string(kHeaderBytes), size()};
      })) {
    return framing;  // nothing past the (absent) header is interpretable
  }
  const std::uint64_t magic = load_word(bytes.data());
  check(magic == kMagic, [&] {
    return FramingDefect{"snapshot", "magic", to_string(kMagic), to_string(magic)};
  });
  const std::uint32_t version = load_u32(bytes.data() + 8);
  check(version == kVersion, [&] {
    return FramingDefect{"snapshot", "version", to_string(kVersion), to_string(version)};
  });
  const std::uint32_t count = load_u32(bytes.data() + 12);
  framing.table.config_digest = load_word(bytes.data() + 16);
  if (!check(count <= kMaxSections, [&] {
        return FramingDefect{"snapshot", "section_count", "<= " + to_string(kMaxSections),
                             to_string(count)};
      })) {
    return framing;  // a bogus count poisons every table offset below
  }
  const std::uint64_t payload_offset = kHeaderBytes + std::uint64_t{count} * kTableEntryBytes;
  if (!check(bytes.size() >= payload_offset, [&] {
        return FramingDefect{"snapshot", "table_bounds", ">= " + to_string(payload_offset),
                             size()};
      })) {
    return framing;
  }

  std::uint64_t expected_offset = payload_offset;
  std::uint32_t previous_id = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint8_t* entry = bytes.data() + kHeaderBytes + std::size_t{i} * kTableEntryBytes;
    const std::uint32_t id = load_u32(entry);
    const std::uint64_t offset = load_word(entry + 8);
    const std::uint64_t length = load_word(entry + 16);
    const std::uint64_t sealed = load_word(entry + 24);
    const auto defect = [&](std::string field, std::string expected, std::string actual) {
      return FramingDefect{
          "section[" + to_string(i) + "]." + to_string(static_cast<SectionId>(id)),
          std::move(field), std::move(expected), std::move(actual)};
    };
    check(id > previous_id, [&] {
      return defect("section_order", "id > " + to_string(previous_id), to_string(id));
    });
    previous_id = id;
    check(offset == expected_offset, [&] {
      return defect("section_offset", to_string(expected_offset), to_string(offset));
    });
    if (!check(offset <= bytes.size() && length <= bytes.size() - offset, [&] {
          return defect("section_bounds", "within " + size(),
                        "offset " + to_string(offset) + " length " + to_string(length));
        })) {
      return framing;  // cannot checksum a payload outside the buffer
    }
    const std::uint64_t actual = checksum(bytes.subspan(offset, length));
    check(actual == sealed,
          [&] { return defect("checksum", to_string(sealed), to_string(actual)); });
    framing.table.entries[i] = SectionEntry{static_cast<SectionId>(id), offset, length};
    expected_offset = offset + length;
  }
  check(bytes.size() == expected_offset, [&] {
    return FramingDefect{"snapshot", "trailing_bytes", to_string(expected_offset) + " bytes",
                         size()};
  });
  framing.table.count = count;
  return framing;
}

SystemSnapshot& SystemSnapshot::operator=(SystemSnapshot&& other) noexcept {
  // The source is left empty and unvalidated, never as a table that
  // points past a buffer it no longer holds.
  bytes_ = std::exchange(other.bytes_, {});
  mapped_ = std::exchange(other.mapped_, {});
  backing_ = std::exchange(other.backing_, nullptr);
  table_ = std::exchange(other.table_, {});
  validated_ = std::exchange(other.validated_, false);
  return *this;
}

std::optional<SystemSnapshot> SystemSnapshot::from_bytes(std::vector<std::uint8_t> bytes) {
  const Framing framing = validate_framing(bytes);
  if (!framing.ok()) return std::nullopt;
  SystemSnapshot snapshot;
  snapshot.bytes_ = std::move(bytes);
  snapshot.table_ = framing.table;
  snapshot.validated_ = true;
  return snapshot;
}

std::optional<SystemSnapshot> SystemSnapshot::from_mapping(
    std::span<const std::uint8_t> bytes, std::shared_ptr<const void> backing) {
  BACP_ASSERT(backing != nullptr, "a mapped snapshot needs its backing");
  // Validated against the mapped pages themselves, so a truncated or
  // bit-rotted bank file fails closed here, before any restore reads it.
  const Framing framing = validate_framing(bytes);
  if (!framing.ok()) return std::nullopt;
  SystemSnapshot snapshot;
  snapshot.mapped_ = bytes;
  snapshot.backing_ = std::move(backing);
  snapshot.table_ = framing.table;
  snapshot.validated_ = true;
  return snapshot;
}

bool operator==(const SystemSnapshot& a, const SystemSnapshot& b) {
  const std::span<const std::uint8_t> left = a.data();
  const std::span<const std::uint8_t> right = b.data();
  return left.size() == right.size() &&
         (left.empty() || std::memcmp(left.data(), right.data(), left.size()) == 0);
}

Writer SnapshotBuilder::begin_section(SectionId id) {
  BACP_ASSERT(sections_.size() < kMaxSections, "too many snapshot sections");
  BACP_ASSERT(sections_.empty() ||
                  static_cast<std::uint32_t>(sections_.back().id) <
                      static_cast<std::uint32_t>(id),
              "snapshot sections must be appended in increasing id order");
  sections_.push_back(Section{id, {}});
  return Writer(sections_.back().payload);
}

SystemSnapshot SnapshotBuilder::finish() {
  SystemSnapshot snapshot;
  std::vector<std::uint8_t>& bytes = snapshot.bytes_;
  std::size_t payload_bytes = 0;
  for (const Section& section : sections_) payload_bytes += section.payload.size();
  const std::size_t table_offset = kHeaderBytes;
  const std::size_t payload_offset =
      table_offset + sections_.size() * kTableEntryBytes;
  bytes.reserve(payload_offset + payload_bytes);

  Writer header(bytes);
  header.u64(kMagic);
  header.u32(kVersion);
  header.u32(static_cast<std::uint32_t>(sections_.size()));
  header.u64(config_digest_);

  // The builder seals what it writes, so its output is validated by
  // construction: one checksum pass per section, and the table it records
  // is the one the header describes.
  std::uint64_t offset = payload_offset;
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    const Section& section = sections_[i];
    header.u32(static_cast<std::uint32_t>(section.id));
    header.u32(0);  // padding: keeps every table field naturally aligned
    header.u64(offset);
    header.u64(section.payload.size());
    header.u64(checksum(section.payload));
    snapshot.table_.entries[i] = SectionEntry{section.id, offset, section.payload.size()};
    offset += section.payload.size();
  }
  for (const Section& section : sections_) {
    if (section.payload.empty()) continue;
    const std::size_t at = bytes.size();
    bytes.resize(at + section.payload.size());
    std::memcpy(bytes.data() + at, section.payload.data(), section.payload.size());
  }
  snapshot.table_.config_digest = config_digest_;
  snapshot.table_.count = sections_.size();
  snapshot.validated_ = true;
  return snapshot;
}

SnapshotView::SnapshotView(const SystemSnapshot& snapshot) : snapshot_(&snapshot) {
  BACP_ASSERT(snapshot.validated(), "snapshot was never validated");
}

bool SnapshotView::has_section(SectionId id) const {
  for (const SectionEntry& entry : snapshot_->sections()) {
    if (entry.id == id) return true;
  }
  return false;
}

Reader SnapshotView::section(SectionId id) const {
  for (const SectionEntry& entry : snapshot_->sections()) {
    if (entry.id == id) {
      // subspan of data(): on a mapped snapshot this Reader walks the
      // mmap'd pages directly — the zero-copy restore path.
      return Reader(snapshot_->data().subspan(entry.offset, entry.length));
    }
  }
  BACP_ASSERT(false, "snapshot section missing");
  return Reader({});
}

}  // namespace bacp::snapshot

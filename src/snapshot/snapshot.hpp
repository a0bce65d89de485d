#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "snapshot/codec.hpp"

namespace bacp::snapshot {

/// One section per stateful subsystem of sim::System. Ids are stable
/// format constants: renumbering breaks every serialized snapshot.
enum class SectionId : std::uint32_t {
  SystemMeta = 1,  ///< mix, allocation, epoch counters, history
  Noc = 2,
  Dram = 3,
  Directory = 4,
  L2 = 5,
  L1 = 6,          ///< all per-core L1s, core order
  Generators = 7,  ///< all per-core trace generators, core order
  Profilers = 8,   ///< all per-core MSA profilers, core order
  Timers = 9,      ///< all per-core timers, core order
  Sched = 10,      ///< sched::Service tenant table and scheduler clocks
};

const char* to_string(SectionId id);

/// Format constants shared by the builder, the validator and the view.
/// Layout (all integers host-order):
///   [0]  magic   u64  "BACPSNAP"
///   [8]  version u32
///   [12] count   u32  number of sections
///   [16] digest  u64  config fingerprint of the producing system
///   [24] table   count x {id u32, pad u32, offset u64, length u64, checksum u64}
///   ...  payload  sections, contiguous, in table order
inline constexpr std::uint64_t kMagic = 0x50414E5350434142ull;  // "BACPSNAP"
// v2: section checksums switched from byte-serial FNV-1a to a word-at-a-time
// variant.
// v3: trace generators write only their live recency windows, and the L2
// no longer writes its residency index (restore derives it from the banks'
// valid tags), which shrinks a default-shape snapshot about 4x.
// v4: every SetAssocCache (L2 banks and L1s) writes per-set masks and
// recency order plus a {tag, allocator} record for valid ways only — dead
// ways are not state — which halves a default-shape snapshot again.
// v5: section checksums run four independent word lanes (checksum() below);
// every section payload is byte-identical to v4.
// Banked snapshots of an older version fail the version check and rewarm —
// the bank is a cache, so a version bump costs time, never correctness.
inline constexpr std::uint32_t kVersion = 5;
inline constexpr std::size_t kHeaderBytes = 24;
inline constexpr std::size_t kTableEntryBytes = 32;
inline constexpr std::size_t kMaxSections = 16;

/// Per-section integrity checksum. Four FNV-style lanes (xor a host-order
/// 8-byte word, multiply by the FNV prime) take words round-robin, so the
/// four multiply chains run in parallel instead of one dependent chain;
/// the lanes, then the leftover words and bytes, fold into one final
/// chain. Each step is a bijection of the chain state, so any single
/// changed word changes the result; distinct lane seeds and a fold that
/// takes each lane at its own step make a swap of two adjacent words
/// visible too.
/// Format-internal (not FNV-compatible), which kVersion >= 5 records.
/// A snapshot is checksummed exactly once per life: SnapshotBuilder::finish
/// seals what it writes, and SystemSnapshot::from_bytes / from_mapping
/// verify what they adopt. Restores trust the validated table.
std::uint64_t checksum(std::span<const std::uint8_t> bytes);

/// One section-table entry: where a section's payload lies.
struct SectionEntry {
  SectionId id{};
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
};

/// A snapshot's parsed header and section table.
struct SectionTable {
  std::uint64_t config_digest = 0;
  std::size_t count = 0;
  std::array<SectionEntry, kMaxSections> entries{};
};

/// One framing defect, in audit::Violation's terms.
struct FramingDefect {
  std::string object;  ///< "snapshot" or "section[i].<name>"
  std::string field;   ///< e.g. "magic", "checksum", "trailing_bytes"
  std::string expected;
  std::string actual;
};

/// Result of validate_framing(): every evaluated check, every defect, and
/// — when the framing is sound — the parsed table.
struct Framing {
  SectionTable table;
  std::vector<FramingDefect> defects;
  std::size_t checks = 0;  ///< invariants evaluated, pass or fail

  bool ok() const { return defects.empty(); }
};

/// The one framing validator: header, version, table bounds and order,
/// contiguous offsets, one checksum pass over every payload, and no
/// trailing bytes. Reports every defect it can reach rather than stopping
/// at the first (audit::audit_snapshot turns them into Violations); a
/// defect that makes later offsets meaningless ends the walk. Allocates
/// only when it finds a defect.
Framing validate_framing(std::span<const std::uint8_t> bytes);

/// A whole simulated system's warm state as one flat, immutable buffer,
/// validated exactly once and carrying its validated section table.
/// Copyable and shareable across threads. Three paths make one:
///   - SnapshotBuilder::finish seals the bytes it writes;
///   - from_bytes() adopts an owned buffer through validate_framing();
///   - from_mapping() adopts a memory-mapped bank file zero-copy through
///     validate_framing(). The type-erased `backing` keeps the mapping
///     alive for every copy, SnapshotView and Reader; harness::SnapshotCache
///     supplies a common::MappedFile. The pages are trusted after
///     validation under DESIGN §9's bank contract: published files are
///     renamed into place, never written in place.
/// A default-constructed or moved-from snapshot is unvalidated, and
/// SnapshotView (so every restore) refuses it.
class SystemSnapshot {
 public:
  SystemSnapshot() = default;
  SystemSnapshot(const SystemSnapshot&) = default;
  SystemSnapshot& operator=(const SystemSnapshot&) = default;
  SystemSnapshot(SystemSnapshot&& other) noexcept { *this = std::move(other); }
  SystemSnapshot& operator=(SystemSnapshot&& other) noexcept;

  /// Validates `bytes` and takes ownership; nullopt on any framing defect.
  static std::optional<SystemSnapshot> from_bytes(std::vector<std::uint8_t> bytes);
  /// Validates the mapped `bytes` in place and keeps `backing` alive for
  /// the snapshot's lifetime; nullopt on any framing defect.
  static std::optional<SystemSnapshot> from_mapping(std::span<const std::uint8_t> bytes,
                                                    std::shared_ptr<const void> backing);

  bool validated() const { return validated_; }
  /// True when the bytes live in a mapped bank file rather than the heap.
  bool mapped() const { return backing_ != nullptr; }
  std::span<const std::uint8_t> data() const {
    return backing_ != nullptr ? mapped_ : std::span<const std::uint8_t>(bytes_);
  }
  std::size_t size_bytes() const { return data().size(); }
  std::uint64_t config_digest() const { return table_.config_digest; }
  std::span<const SectionEntry> sections() const {
    return std::span<const SectionEntry>(table_.entries).first(table_.count);
  }

  /// Byte equality of the two buffers (owned or mapped alike).
  friend bool operator==(const SystemSnapshot& a, const SystemSnapshot& b);

 private:
  friend class SnapshotBuilder;

  std::vector<std::uint8_t> bytes_;
  std::span<const std::uint8_t> mapped_;
  std::shared_ptr<const void> backing_;
  SectionTable table_;
  bool validated_ = false;
};

/// Accumulates sections and assembles the final buffer. Sections must be
/// appended in strictly increasing SectionId order so identical state
/// always produces identical bytes.
class SnapshotBuilder {
 public:
  explicit SnapshotBuilder(std::uint64_t config_digest)
      : config_digest_(config_digest) {
    // A begin_section() Writer points into sections_; pre-sizing keeps
    // every section slot stable while earlier Writers may still be live.
    sections_.reserve(kMaxSections);
  }

  /// Starts a section; write its payload through the returned Writer
  /// before the next begin_section()/finish() call.
  Writer begin_section(SectionId id);

  SystemSnapshot finish();

 private:
  struct Section {
    SectionId id;
    std::vector<std::uint8_t> payload;
  };

  std::uint64_t config_digest_;
  std::vector<Section> sections_;
};

/// Read-side accessor over a validated snapshot. Construction asserts the
/// snapshot is validated (SystemSnapshot's contract) and never re-hashes:
/// section lookups read the table the snapshot carries.
class SnapshotView {
 public:
  explicit SnapshotView(const SystemSnapshot& snapshot);

  std::uint64_t config_digest() const { return snapshot_->config_digest(); }

  bool has_section(SectionId id) const;

  /// Reader over one section's payload; asserts the section exists.
  Reader section(SectionId id) const;

 private:
  const SystemSnapshot* snapshot_;
};

}  // namespace bacp::snapshot

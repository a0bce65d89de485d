#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/simd.hpp"
#include "common/types.hpp"
#include "snapshot/codec.hpp"

namespace bacp::audit {
class CacheAuditor;
class NucaAuditor;
}  // namespace bacp::audit

namespace bacp::cache {

/// One cache line's bookkeeping. Addresses are block-granular, so the full
/// block address doubles as the tag (the set index is re-derivable).
struct Line {
  BlockAddress block = 0;
  CoreId allocator = kInvalidCore;  ///< core whose allocation brought it in
  bool valid = false;
  bool dirty = false;
};

/// Result of a lookup or fill.
struct LookupResult {
  bool hit = false;
  WayIndex way = 0;
};

struct FillResult {
  WayIndex way = 0;
  std::optional<Line> evicted;  ///< set when a valid line was displaced
};

/// Per-core hit/miss/eviction counters for one cache structure.
struct CacheStats {
  std::vector<std::uint64_t> hits;
  std::vector<std::uint64_t> misses;
  std::vector<std::uint64_t> evictions;

  explicit CacheStats(std::size_t num_cores = 0)
      : hits(num_cores, 0), misses(num_cores, 0), evictions(num_cores, 0) {}

  std::uint64_t total_hits() const;
  std::uint64_t total_misses() const;
  std::uint64_t total_accesses() const { return total_hits() + total_misses(); }
  double miss_ratio() const;
  void clear();
};

/// Set-associative cache with true LRU and the paper's *vertical fine-grain
/// cache-way partitioning* (Section III-B, after Iyer's CQoS): every way
/// carries a core mask, identical across all sets of the structure, and a
/// modified LRU victim policy only ever replaces a line in a way the
/// requesting core owns — so workloads in disjoint ways cannot evict each
/// other's data.
///
/// Storage is structure-of-arrays: probes scan a contiguous per-set tag
/// column (one or two cache lines for an 8-way set) instead of striding
/// over Line structs, validity/dirtiness are per-set bitmasks, and recency
/// is each set's MRU-first order of way ids, one byte per way — the same
/// bytes the snapshot writes, so save and restore copy it instead of
/// relinking. Touch-to-MRU shifts the prefix ahead of the touched way by
/// one byte; victim selection walks the order from its LRU end. Behavior
/// is bit-identical to the straightforward `vector<Line>` +
/// `vector<WayIndex> lru_order` formulation (see tests/test_equivalence.cpp,
/// which replays both against random streams).
class SetAssocCache {
 public:
  struct Config {
    std::string name = "cache";
    std::uint32_t num_sets = 64;
    WayCount ways = 8;
    std::uint32_t num_cores = 1;  ///< width of the statistics arrays
  };

  explicit SetAssocCache(const Config& config);

  /// LRU-updating lookup. On a hit the line moves to MRU and `is_write`
  /// marks it dirty. A hit is legal in *any* way (partitioning restricts
  /// replacement, not lookup — exactly as in the paper).
  LookupResult access(BlockAddress block, CoreId core, bool is_write);

  /// Installs a block for `core`, evicting (modified-LRU) from the ways the
  /// core owns. Precondition: the block is not present and the core owns at
  /// least one way.
  FillResult fill(BlockAddress block, CoreId core, bool dirty);

  /// access() hit path when the caller already knows the way the block
  /// occupies (e.g. from the DNUCA residency index): counts the hit, moves
  /// the line to MRU and applies the write's dirty bit — identical
  /// side effects to a hitting access(), minus the tag scan.
  void touch_hit(BlockAddress block, WayIndex way, CoreId core, bool is_write);

  /// mark_dirty() with the way already known.
  void mark_dirty_at(BlockAddress block, WayIndex way);

  /// invalidate() with the way already known. Precondition: the line is
  /// valid and holds `block`.
  Line invalidate_at(BlockAddress block, WayIndex way);

  /// Non-perturbing presence check.
  bool probe(BlockAddress block) const;

  /// Marks a resident block dirty without touching LRU state (used for
  /// writeback updates arriving from the level above). Returns false when
  /// the block is not resident.
  bool mark_dirty(BlockAddress block);

  /// Removes a block if present; returns its prior contents.
  std::optional<Line> invalidate(BlockAddress block);

  /// Least-recently-used valid line of the set that holds `block`'s set
  /// index, restricted to ways owned by `core` (used by the Cascade
  /// aggregation to demote down the chain). Empty if all such ways are
  /// invalid.
  std::optional<Line> lru_line_for_core(BlockAddress block, CoreId core) const;

  /// Replaces the per-way core masks. Resident lines are untouched: after a
  /// repartition, stale data in reassigned ways is displaced naturally by
  /// the new owner's fills (paper Section III-B).
  void set_way_partition(const std::vector<CoreMask>& masks);
  const std::vector<CoreMask>& way_partition() const { return way_masks_; }

  /// Number of ways owned by `core`.
  WayCount ways_owned(CoreId core) const;

  const Config& config() const { return config_; }
  const CacheStats& stats() const { return stats_; }
  void clear_stats() { stats_.clear(); }

  /// Rewinds the cache to its just-constructed state — all lines invalid,
  /// construction recency order, unpartitioned way masks, zero statistics —
  /// without freeing or reallocating any storage. A snapshot taken after
  /// reset_in_place() is byte-identical to one taken after construction.
  void reset_in_place();

  /// Count of valid lines (for occupancy tests).
  std::uint64_t valid_lines() const;

  /// Serializes the full mutable state for warm-state snapshots (format
  /// v4): the geometry echo, the way masks and statistics, a live-line
  /// count; then one record per set — the valid and dirty masks (the low
  /// ceil(ways / 8) bytes, least significant first) and the recency order
  /// MRU first, one byte per way; then one {tag u64, allocator u32} record
  /// per valid way, sets ascending, ways ascending. Dead ways are not
  /// state: no lookup, fill or victim path trusts an invalid way's tag, and
  /// the allocator of every invalid way is kInvalidCore by contract
  /// (audit_cache). Identical state always serializes to identical bytes.
  void save_state(snapshot::Writer& writer) const;

  /// Restores a save_state() image. Asserts the geometry echo, valid bits
  /// below `ways`, dirty ⊆ valid, each recency order a permutation of the
  /// ways (then copied in as is), and the live count against the valid
  /// bits. Dead ways get allocator kInvalidCore and keep whatever tag
  /// bytes they held.
  /// on_live(set, way, block) runs once per restored valid line, in stream
  /// order — DnucaCache derives its residency index from it in the same
  /// pass.
  template <typename OnLive>
  void restore_state(snapshot::Reader& reader, OnLive&& on_live);
  void restore_state(snapshot::Reader& reader) {
    restore_state(reader, [](std::uint32_t, WayIndex, BlockAddress) {});
  }

  /// Snapshot of every valid line (invariant checks and debugging; O(size)).
  std::vector<Line> resident_lines() const;

  /// Invokes fn(set, way, block) for every valid line, sets in order and
  /// ways ascending within a set. Walks the validity bitmasks, so invalid
  /// ways cost nothing and nothing is allocated.
  template <typename Fn>
  void for_each_valid(Fn&& fn) const {
    for (std::uint32_t set = 0; set < config_.num_sets; ++set) {
      for (std::uint64_t valid = meta_[set].valid; valid != 0; valid &= valid - 1) {
        const auto way = static_cast<WayIndex>(std::countr_zero(valid));
        fn(set, way, tags_[line_index(set, way)]);
      }
    }
  }

  std::uint32_t set_index(BlockAddress block) const {
    return static_cast<std::uint32_t>(block & (config_.num_sets - 1));
  }

  /// Read-prefetches the set metadata, tag column and recency order for
  /// `block`'s set. sim::System issues it for each core's next buffered
  /// access, so the L1 lookup that follows finds its set lines warm.
  void prefetch_set(BlockAddress block) const {
    const std::uint32_t set = set_index(block);
    common::simd::prefetch_read(&meta_[set]);
    common::simd::prefetch_read(tags_.data() + line_index(set, 0));
    common::simd::prefetch_read(order_.data() + line_index(set, 0));
  }

 private:
  /// The structural auditor reads raw recency bytes and metadata bitmasks;
  /// the test peer plants corruptions for the auditor's kill-tests. Only
  /// these two may bypass the public API.
  friend class audit::CacheAuditor;
  friend class audit::NucaAuditor;  // reads per-slot lines for residency checks
  friend struct CacheTestPeer;

  /// One set's validity/dirtiness bitmasks (bit w == way w).
  struct SetMeta {
    std::uint64_t valid = 0;
    std::uint64_t dirty = 0;
  };

  std::size_t line_index(std::uint32_t set, WayIndex way) const {
    return std::size_t{set} * config_.ways + way;
  }
  Line line_at(std::uint32_t set, WayIndex way) const;
  std::uint8_t* order_of(std::uint32_t set) { return order_.data() + line_index(set, 0); }
  const std::uint8_t* order_of(std::uint32_t set) const {
    return order_.data() + line_index(set, 0);
  }
  void touch_mru(std::uint32_t set, WayIndex way);
  /// Least recently used way among `candidates` (a way bitmask), or
  /// config_.ways when the set holds none of them.
  WayIndex lru_of(std::uint32_t set, std::uint64_t candidates) const;
  std::optional<LookupResult> find(BlockAddress block) const;
  void rebuild_owned_ways();
  /// restore_state() pieces: restore_layout() reads everything ahead of
  /// the set records (geometry echo, way masks, statistics) and returns the
  /// live count; restore_set() decodes one set record (masks, recency
  /// order) and asserts its shape.
  std::uint64_t restore_layout(snapshot::Reader& reader);
  void restore_set(std::uint32_t set, const std::uint8_t* record);

  /// Snapshot record sizes: one set's {valid, dirty, recency order}, and
  /// one live line's {tag, allocator}.
  std::size_t mask_bytes() const { return (config_.ways + 7) / 8; }
  std::size_t set_record_bytes() const { return 2 * mask_bytes() + config_.ways; }
  static constexpr std::size_t kLiveRecordBytes = sizeof(BlockAddress) + sizeof(CoreId);

  Config config_;
  // Per-line columns (num_sets * ways, way-major within a set). Tags of one
  // set are contiguous so the probe loop reads a single cache line or two.
  // NOLINTNEXTLINE(bacp-reset-fields): an invalid way's tag is never read; reset clears every valid bit
  std::vector<BlockAddress> tags_;
  std::vector<CoreId> allocators_;
  std::vector<SetMeta> meta_;
  // Per-set recency, MRU first: order_[line_index(set, rank)] is the way
  // at `rank`. Always a permutation of the set's ways (audit_cache).
  std::vector<std::uint8_t> order_;
  std::vector<CoreMask> way_masks_;
  // Per-core bitmask of owned ways, derived from way_masks_ so the fill
  // path finds "first invalid owned way" with one countr_zero.
  // NOLINTNEXTLINE(bacp-snapshot-fields): derived from way_masks_; rebuilt by rebuild_owned_ways() on restore
  std::vector<std::uint64_t> owned_ways_;
  CacheStats stats_;
};

template <typename OnLive>
void SetAssocCache::restore_state(snapshot::Reader& reader, OnLive&& on_live) {
  const std::uint64_t live = restore_layout(reader);
  const std::size_t set_bytes = set_record_bytes();
  const std::uint8_t* set_record =
      reader.bytes(std::size_t{config_.num_sets} * set_bytes).data();
  const std::uint8_t* line_record = reader.bytes(live * kLiveRecordBytes).data();
  // One pass: each set's record, then its live lines' records.
  std::uint64_t consumed = 0;
  for (std::uint32_t set = 0; set < config_.num_sets; ++set, set_record += set_bytes) {
    restore_set(set, set_record);
    const std::uint64_t valid = meta_[set].valid;
    consumed += static_cast<std::uint64_t>(std::popcount(valid));
    BACP_ASSERT(consumed <= live, "snapshot live line count mismatch");
    const std::size_t base = line_index(set, 0);
    std::fill_n(allocators_.data() + base, config_.ways, kInvalidCore);
    for (std::uint64_t bits = valid; bits != 0; bits &= bits - 1) {
      const auto way = static_cast<WayIndex>(std::countr_zero(bits));
      BlockAddress block = 0;
      std::memcpy(&block, line_record, sizeof(block));
      std::memcpy(&allocators_[base + way], line_record + sizeof(block), sizeof(CoreId));
      tags_[base + way] = block;
      line_record += kLiveRecordBytes;
      on_live(set, way, block);
    }
  }
  BACP_ASSERT(consumed == live, "snapshot live line count mismatch");
}

}  // namespace bacp::cache

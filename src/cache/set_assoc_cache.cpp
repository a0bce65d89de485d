#include "cache/set_assoc_cache.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>
#include <utility>

#include "common/assert.hpp"

namespace bacp::cache {

std::uint64_t CacheStats::total_hits() const {
  return std::accumulate(hits.begin(), hits.end(), std::uint64_t{0});
}

std::uint64_t CacheStats::total_misses() const {
  return std::accumulate(misses.begin(), misses.end(), std::uint64_t{0});
}

double CacheStats::miss_ratio() const {
  const std::uint64_t total = total_accesses();
  return total == 0 ? 0.0 : static_cast<double>(total_misses()) / static_cast<double>(total);
}

void CacheStats::clear() {
  std::fill(hits.begin(), hits.end(), 0);
  std::fill(misses.begin(), misses.end(), 0);
  std::fill(evictions.begin(), evictions.end(), 0);
}

SetAssocCache::SetAssocCache(const Config& config)
    : config_(config), stats_(config.num_cores) {
  BACP_ASSERT(is_pow2(config_.num_sets), "num_sets must be a power of two");
  BACP_ASSERT(config_.ways >= 1, "cache needs at least one way");
  BACP_ASSERT(config_.ways <= 64, "per-set bitmasks support at most 64 ways");
  BACP_ASSERT(config_.num_cores >= 1, "cache needs at least one core");
  const std::size_t lines = std::size_t{config_.num_sets} * config_.ways;
  tags_.assign(lines, 0);
  allocators_.resize(lines);
  meta_.resize(config_.num_sets);
  order_.resize(lines);
  way_masks_.resize(config_.ways);
  reset_in_place();
}

void SetAssocCache::reset_in_place() {
  // Tags keep their bytes: with every valid bit cleared below, no way's
  // tag is read again before a fill overwrites it.
  std::fill(allocators_.begin(), allocators_.end(), kInvalidCore);
  std::fill(meta_.begin(), meta_.end(), SetMeta{});
  // Initial recency order: way 0 MRU .. way (ways-1) LRU, matching the
  // iota-initialized lru_order of the reference formulation. Every set
  // starts with the same order, so set 0's is copied to the rest.
  std::iota(order_.data(), order_.data() + config_.ways, std::uint8_t{0});
  for (std::uint32_t set = 1; set < config_.num_sets; ++set) {
    std::memcpy(order_of(set), order_.data(), config_.ways);
  }
  // Default: every core owns every way (unpartitioned shared cache).
  std::fill(way_masks_.begin(), way_masks_.end(), ~CoreMask{0});
  rebuild_owned_ways();
  stats_.clear();
}

Line SetAssocCache::line_at(std::uint32_t set, WayIndex way) const {
  const std::size_t index = line_index(set, way);
  Line line;
  line.block = tags_[index];
  line.allocator = allocators_[index];
  line.valid = ((meta_[set].valid >> way) & 1) != 0;
  line.dirty = ((meta_[set].dirty >> way) & 1) != 0;
  return line;
}

void SetAssocCache::touch_mru(std::uint32_t set, WayIndex way) {
  // Shift every way ahead of `way` back one rank and put `way` first, in
  // one pass that stops where `way` stood.
  std::uint8_t* order = order_of(set);
  std::uint8_t carry = order[0];
  if (carry == way) return;
  order[0] = static_cast<std::uint8_t>(way);
  for (WayIndex rank = 1; carry != way; ++rank) std::swap(carry, order[rank]);
}

WayIndex SetAssocCache::lru_of(std::uint32_t set, std::uint64_t candidates) const {
  const std::uint8_t* order = order_of(set);
  for (WayIndex rank = config_.ways; rank-- > 0;) {
    if (((candidates >> order[rank]) & 1) != 0) return order[rank];
  }
  return config_.ways;
}

std::optional<LookupResult> SetAssocCache::find(BlockAddress block) const {
  const std::uint32_t set = set_index(block);
  const std::uint64_t valid = meta_[set].valid;
  if (valid == 0) return std::nullopt;
  const BlockAddress* tags = tags_.data() + line_index(set, 0);
  // A matching tag in an *invalid* way (stale bytes left by invalidate)
  // must not stop the search.
  for (WayIndex way = 0; way < config_.ways; ++way) {
    if (tags[way] == block && ((valid >> way) & 1) != 0) return LookupResult{true, way};
  }
  return std::nullopt;
}

LookupResult SetAssocCache::access(BlockAddress block, CoreId core, bool is_write) {
  BACP_DASSERT(core < config_.num_cores, "core id out of range");
  const std::uint32_t set = set_index(block);
  if (const auto found = find(block)) {
    ++stats_.hits[core];
    touch_mru(set, found->way);
    if (is_write) meta_[set].dirty |= std::uint64_t{1} << found->way;
    return *found;
  }
  ++stats_.misses[core];
  return LookupResult{false, 0};
}

FillResult SetAssocCache::fill(BlockAddress block, CoreId core, bool dirty) {
  BACP_DASSERT(core < config_.num_cores, "core id out of range");
  BACP_SLOW_DASSERT(!probe(block), "fill of a block that is already resident");
  const std::uint32_t set = set_index(block);
  const std::uint64_t owned = owned_ways_[core];

  // Prefer an invalid owned way (lowest way index first); otherwise the
  // LRU-most owned way (paper's modified LRU: walk recency order from the
  // LRU end, restricted to ways whose mask includes the requesting core).
  WayIndex victim = config_.ways;
  const std::uint64_t invalid_owned = owned & ~meta_[set].valid;
  if (invalid_owned != 0) {
    victim = static_cast<WayIndex>(std::countr_zero(invalid_owned));
  } else if (std::has_single_bit(owned)) {
    // A one-way partition (the equal-partition default) has exactly one
    // candidate — the recency walk below would only rediscover it.
    victim = static_cast<WayIndex>(std::countr_zero(owned));
  } else {
    victim = lru_of(set, owned);
  }
  BACP_ASSERT(victim < config_.ways, "fill by a core that owns no ways");

  FillResult result;
  result.way = victim;
  const std::uint64_t bit = std::uint64_t{1} << victim;
  const std::size_t index = line_index(set, victim);
  if ((meta_[set].valid & bit) != 0) {
    result.evicted = line_at(set, victim);
    ++stats_.evictions[core];
  }
  tags_[index] = block;
  allocators_[index] = core;
  meta_[set].valid |= bit;
  if (dirty) {
    meta_[set].dirty |= bit;
  } else {
    meta_[set].dirty &= ~bit;
  }
  touch_mru(set, victim);
  return result;
}

bool SetAssocCache::probe(BlockAddress block) const { return find(block).has_value(); }

void SetAssocCache::touch_hit(BlockAddress block, WayIndex way, CoreId core,
                              bool is_write) {
  BACP_DASSERT(core < config_.num_cores, "core id out of range");
  const std::uint32_t set = set_index(block);
  BACP_DASSERT(way < config_.ways && tags_[line_index(set, way)] == block &&
                   ((meta_[set].valid >> way) & 1) != 0,
               "touch_hit location out of sync with cache contents");
  ++stats_.hits[core];
  touch_mru(set, way);
  if (is_write) meta_[set].dirty |= std::uint64_t{1} << way;
}

void SetAssocCache::mark_dirty_at(BlockAddress block, WayIndex way) {
  const std::uint32_t set = set_index(block);
  BACP_DASSERT(way < config_.ways && tags_[line_index(set, way)] == block &&
                   ((meta_[set].valid >> way) & 1) != 0,
               "mark_dirty_at location out of sync with cache contents");
  meta_[set].dirty |= std::uint64_t{1} << way;
}

Line SetAssocCache::invalidate_at(BlockAddress block, WayIndex way) {
  const std::uint32_t set = set_index(block);
  BACP_DASSERT(way < config_.ways && tags_[line_index(set, way)] == block &&
                   ((meta_[set].valid >> way) & 1) != 0,
               "invalidate_at location out of sync with cache contents");
  const Line copy = line_at(set, way);
  const std::uint64_t bit = std::uint64_t{1} << way;
  meta_[set].valid &= ~bit;
  meta_[set].dirty &= ~bit;
  allocators_[line_index(set, way)] = kInvalidCore;
  // Demote the freed way to LRU so it is the next allocation target.
  std::uint8_t* order = order_of(set);
  WayIndex rank = 0;
  while (order[rank] != way) ++rank;
  for (; rank + 1 < config_.ways; ++rank) order[rank] = order[rank + 1];
  order[config_.ways - 1] = static_cast<std::uint8_t>(way);
  return copy;
}

bool SetAssocCache::mark_dirty(BlockAddress block) {
  const auto found = find(block);
  if (!found) return false;
  meta_[set_index(block)].dirty |= std::uint64_t{1} << found->way;
  return true;
}

std::optional<Line> SetAssocCache::invalidate(BlockAddress block) {
  const auto found = find(block);
  if (!found) return std::nullopt;
  return invalidate_at(block, found->way);
}

std::optional<Line> SetAssocCache::lru_line_for_core(BlockAddress block, CoreId core) const {
  const std::uint32_t set = set_index(block);
  const WayIndex way = lru_of(set, owned_ways_[core] & meta_[set].valid);
  if (way == config_.ways) return std::nullopt;
  return line_at(set, way);
}

void SetAssocCache::set_way_partition(const std::vector<CoreMask>& masks) {
  BACP_ASSERT(masks.size() == config_.ways, "one mask per way required");
  for (CoreMask mask : masks) {
    BACP_ASSERT(mask != 0, "every way must belong to at least one core");
  }
  way_masks_ = masks;
  rebuild_owned_ways();
}

void SetAssocCache::rebuild_owned_ways() {
  owned_ways_.assign(config_.num_cores, 0);
  for (CoreId core = 0; core < config_.num_cores; ++core) {
    const CoreMask bit = core_bit(core);
    for (WayIndex way = 0; way < config_.ways; ++way) {
      if ((way_masks_[way] & bit) != 0) owned_ways_[core] |= std::uint64_t{1} << way;
    }
  }
}

WayCount SetAssocCache::ways_owned(CoreId core) const {
  const CoreMask bit = core_bit(core);
  WayCount owned = 0;
  for (CoreMask mask : way_masks_) {
    if ((mask & bit) != 0) ++owned;
  }
  return owned;
}

std::vector<Line> SetAssocCache::resident_lines() const {
  std::vector<Line> lines;
  for_each_valid([&](std::uint32_t set, WayIndex way, BlockAddress) {
    lines.push_back(line_at(set, way));
  });
  return lines;
}

namespace {

// Snapshot mask encoding: the low `bytes` bytes, least significant first.
void put_mask(std::uint8_t* out, std::uint64_t mask, std::size_t bytes) {
  for (std::size_t i = 0; i < bytes; ++i) {
    out[i] = static_cast<std::uint8_t>(mask >> (8 * i));
  }
}

std::uint64_t get_mask(const std::uint8_t* in, std::size_t bytes) {
  std::uint64_t mask = 0;
  for (std::size_t i = 0; i < bytes; ++i) mask |= std::uint64_t{in[i]} << (8 * i);
  return mask;
}

}  // namespace

void SetAssocCache::save_state(snapshot::Writer& writer) const {
  // Geometry echo: restore_state() cross-checks these against the live
  // cache so a snapshot can never be applied to a differently-shaped one.
  writer.u32(config_.num_sets);
  writer.u32(config_.ways);
  writer.u32(config_.num_cores);
  writer.scalars(std::span<const CoreMask>(way_masks_));
  writer.scalars(std::span<const std::uint64_t>(stats_.hits));
  writer.scalars(std::span<const std::uint64_t>(stats_.misses));
  writer.scalars(std::span<const std::uint64_t>(stats_.evictions));
  const std::uint64_t live = valid_lines();
  writer.u64(live);
  const std::size_t masks = mask_bytes();
  std::uint8_t* set_record =
      writer.bytes(std::size_t{config_.num_sets} * set_record_bytes()).data();
  for (std::uint32_t set = 0; set < config_.num_sets; ++set) {
    put_mask(set_record, meta_[set].valid, masks);
    put_mask(set_record + masks, meta_[set].dirty, masks);
    // The live recency order is the record's: one copy, no walk.
    std::memcpy(set_record + 2 * masks, order_of(set), config_.ways);
    set_record += set_record_bytes();
  }
  std::uint8_t* line_record = writer.bytes(live * kLiveRecordBytes).data();
  for_each_valid([&](std::uint32_t set, WayIndex way, BlockAddress block) {
    std::memcpy(line_record, &block, sizeof(block));
    std::memcpy(line_record + sizeof(block), &allocators_[line_index(set, way)],
                sizeof(CoreId));
    line_record += kLiveRecordBytes;
  });
}

std::uint64_t SetAssocCache::restore_layout(snapshot::Reader& reader) {
  BACP_ASSERT(reader.u32() == config_.num_sets, "snapshot num_sets mismatch");
  BACP_ASSERT(reader.u32() == config_.ways, "snapshot ways mismatch");
  BACP_ASSERT(reader.u32() == config_.num_cores, "snapshot num_cores mismatch");
  reader.scalars_into(std::span<CoreMask>(way_masks_));
  reader.scalars_into(std::span<std::uint64_t>(stats_.hits));
  reader.scalars_into(std::span<std::uint64_t>(stats_.misses));
  reader.scalars_into(std::span<std::uint64_t>(stats_.evictions));
  rebuild_owned_ways();
  const std::uint64_t live = reader.u64();
  BACP_ASSERT(live <= tags_.size(), "snapshot live line count mismatch");
  return live;
}

void SetAssocCache::restore_set(std::uint32_t set, const std::uint8_t* record) {
  const std::size_t masks = mask_bytes();
  const std::uint64_t way_bits =
      config_.ways == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << config_.ways) - 1;
  SetMeta& meta = meta_[set];
  meta.valid = get_mask(record, masks);
  meta.dirty = get_mask(record + masks, masks);
  BACP_ASSERT((meta.valid & ~way_bits) == 0, "snapshot valid bit beyond the way count");
  BACP_ASSERT((meta.dirty & ~meta.valid) == 0, "snapshot dirty bit on an invalid way");
  // Recency order, MRU first: check it is a permutation of the ways before
  // any way id indexes a mask, then copy it in as is.
  const std::uint8_t* order = record + 2 * masks;
  std::uint64_t seen = 0;
  bool in_range = true;
  for (WayIndex rank = 0; rank < config_.ways; ++rank) {
    in_range &= order[rank] < config_.ways;
    seen |= std::uint64_t{1} << (order[rank] & 63u);
  }
  BACP_ASSERT(in_range && seen == way_bits,
              "snapshot recency order is not a permutation of the ways");
  std::memcpy(order_of(set), order, config_.ways);
}

std::uint64_t SetAssocCache::valid_lines() const {
  std::uint64_t count = 0;
  for (const SetMeta& meta : meta_) {
    count += static_cast<std::uint64_t>(std::popcount(meta.valid));
  }
  return count;
}

}  // namespace bacp::cache

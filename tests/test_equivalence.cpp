// Equivalence suite for the hot-path data structures: every optimized
// component is replayed against a deliberately naive reference
// formulation on randomized streams and must agree bit-for-bit.
//
//   - cache::SetAssocCache (packed bitmask metadata + intrusive byte-wide
//     LRU links) vs. a vector<Line> + per-set `vector<WayIndex> lru_order`
//     cache, including the known-way fast paths (touch_hit, mark_dirty_at,
//     invalidate_at) and mid-stream repartitions;
//   - msa::StackProfiler (flat stacks + memmove move-to-front) vs. a
//     vector-of-vectors Mattson stack, across sampling factors and tag
//     widths;
//   - trace::SyntheticTraceGenerator (ring-buffer recency lists) vs. a
//     vector-of-vectors erase/insert formulation, including a mid-stream
//     model switch, and its rewound batches vs. scalar next() calls;
//   - core::CoreTimer (min-heap on done_at, in-place window scans) vs. a
//     multiset-ordered formulation of the original pop-loop semantics;
//   - nuca::DnucaCache residency index (exact {bank, way}) vs. brute-force
//     probes over every bank.
//
// Streams are >= 10^6 operations in total so LRU wrap-around, stack
// overflow, ring wrap and hash-table growth/erase churn are all exercised.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "audit/audit.hpp"
#include "cache/partial_tag.hpp"
#include "cache/set_assoc_cache.hpp"
#include "common/rng.hpp"
#include "core/core_timer.hpp"
#include "msa/stack_profiler.hpp"
#include "nuca/dnuca_cache.hpp"
#include "partition/static_policies.hpp"
#include "sim/system.hpp"
#include "sim/system_config.hpp"
#include "snapshot/codec.hpp"
#include "trace/mix.hpp"
#include "trace/spec2000.hpp"
#include "trace/synthetic.hpp"

namespace bacp {
namespace {

// ---------------------------------------------------------------------------
// Reference set-associative cache: vector<Line> per set plus an explicit
// MRU-first `lru_order` vector, shuffled with erase/insert. Matches the
// documented semantics of cache::SetAssocCache operation for operation.
// ---------------------------------------------------------------------------

class RefCache {
 public:
  struct AccessResult {
    bool hit = false;
    WayIndex way = 0;
  };
  struct FillOutcome {
    WayIndex way = 0;
    std::optional<cache::Line> evicted;
  };

  explicit RefCache(const cache::SetAssocCache::Config& config)
      : config_(config),
        lines_(std::size_t{config.num_sets} * config.ways),
        lru_(config.num_sets),
        way_masks_(config.ways, ~CoreMask{0}),
        hits_(config.num_cores, 0),
        misses_(config.num_cores, 0),
        evictions_(config.num_cores, 0) {
    for (auto& order : lru_) {
      order.resize(config_.ways);
      std::iota(order.begin(), order.end(), 0u);
    }
  }

  AccessResult access(BlockAddress block, CoreId core, bool is_write) {
    const std::uint32_t set = set_of(block);
    const int way = find_way(set, block);
    if (way < 0) {
      ++misses_[core];
      return {false, 0};
    }
    ++hits_[core];
    touch_mru(set, static_cast<WayIndex>(way));
    if (is_write) line(set, static_cast<WayIndex>(way)).dirty = true;
    return {true, static_cast<WayIndex>(way)};
  }

  FillOutcome fill(BlockAddress block, CoreId core, bool dirty) {
    const std::uint32_t set = set_of(block);
    WayIndex victim = config_.ways;  // sentinel
    for (WayIndex way = 0; way < config_.ways; ++way) {
      if (owned(core, way) && !line(set, way).valid) {
        victim = way;
        break;
      }
    }
    if (victim == config_.ways) {
      const auto& order = lru_[set];
      for (auto it = order.rbegin(); it != order.rend(); ++it) {
        if (owned(core, *it)) {
          victim = *it;
          break;
        }
      }
    }
    FillOutcome outcome;
    outcome.way = victim;
    cache::Line& slot = line(set, victim);
    if (slot.valid) {
      outcome.evicted = slot;
      ++evictions_[core];
    }
    slot.block = block;
    slot.allocator = core;
    slot.valid = true;
    slot.dirty = dirty;
    touch_mru(set, victim);
    return outcome;
  }

  bool mark_dirty(BlockAddress block) {
    const std::uint32_t set = set_of(block);
    const int way = find_way(set, block);
    if (way < 0) return false;
    line(set, static_cast<WayIndex>(way)).dirty = true;
    return true;
  }

  std::optional<cache::Line> invalidate(BlockAddress block) {
    const std::uint32_t set = set_of(block);
    const int way = find_way(set, block);
    if (way < 0) return std::nullopt;
    cache::Line& slot = line(set, static_cast<WayIndex>(way));
    const cache::Line copy = slot;
    slot.valid = false;
    slot.dirty = false;
    slot.allocator = kInvalidCore;
    demote_lru(set, static_cast<WayIndex>(way));
    return copy;
  }

  std::optional<cache::Line> lru_line_for_core(BlockAddress block, CoreId core) const {
    const std::uint32_t set = set_of(block);
    const auto& order = lru_[set];
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const cache::Line& slot = lines_[std::size_t{set} * config_.ways + *it];
      if (owned(core, *it) && slot.valid) return slot;
    }
    return std::nullopt;
  }

  void set_way_partition(const std::vector<CoreMask>& masks) { way_masks_ = masks; }

  bool probe(BlockAddress block) const {
    return find_way(set_of(block), block) >= 0;
  }

  std::optional<WayIndex> way_of(BlockAddress block) const {
    const int way = find_way(set_of(block), block);
    if (way < 0) return std::nullopt;
    return static_cast<WayIndex>(way);
  }

  std::uint64_t valid_lines() const {
    std::uint64_t count = 0;
    for (const auto& slot : lines_) {
      if (slot.valid) ++count;
    }
    return count;
  }

  const std::vector<std::uint64_t>& hits() const { return hits_; }
  const std::vector<std::uint64_t>& misses() const { return misses_; }
  const std::vector<std::uint64_t>& evictions() const { return evictions_; }

 private:
  std::uint32_t set_of(BlockAddress block) const {
    return static_cast<std::uint32_t>(block & (config_.num_sets - 1));
  }
  cache::Line& line(std::uint32_t set, WayIndex way) {
    return lines_[std::size_t{set} * config_.ways + way];
  }
  bool owned(CoreId core, WayIndex way) const {
    return (way_masks_[way] & core_bit(core)) != 0;
  }
  int find_way(std::uint32_t set, BlockAddress block) const {
    for (WayIndex way = 0; way < config_.ways; ++way) {
      const cache::Line& slot = lines_[std::size_t{set} * config_.ways + way];
      if (slot.valid && slot.block == block) return static_cast<int>(way);
    }
    return -1;
  }
  void touch_mru(std::uint32_t set, WayIndex way) {
    auto& order = lru_[set];
    order.erase(std::find(order.begin(), order.end(), way));
    order.insert(order.begin(), way);
  }
  void demote_lru(std::uint32_t set, WayIndex way) {
    auto& order = lru_[set];
    order.erase(std::find(order.begin(), order.end(), way));
    order.push_back(way);
  }

  cache::SetAssocCache::Config config_;
  std::vector<cache::Line> lines_;
  std::vector<std::vector<WayIndex>> lru_;
  std::vector<CoreMask> way_masks_;
  std::vector<std::uint64_t> hits_;
  std::vector<std::uint64_t> misses_;
  std::vector<std::uint64_t> evictions_;
};

/// Random per-way masks where every way has an owner and every core owns
/// at least one way (the fill precondition).
std::vector<CoreMask> random_partition(common::Rng& rng, WayCount ways,
                                       std::uint32_t num_cores) {
  const CoreMask all = num_cores >= 32 ? ~CoreMask{0}
                                       : ((CoreMask{1} << num_cores) - 1);
  std::vector<CoreMask> masks(ways);
  for (auto& mask : masks) {
    mask = static_cast<CoreMask>(rng.next_u64()) & all;
    if (mask == 0) mask = all;
  }
  for (CoreId core = 0; core < num_cores; ++core) {
    bool owns = false;
    for (const CoreMask mask : masks) {
      owns = owns || (mask & core_bit(core)) != 0;
    }
    if (!owns) masks[rng.next_below(ways)] |= core_bit(core);
  }
  return masks;
}

void replay_cache(const cache::SetAssocCache::Config& config, std::uint64_t seed,
                  std::size_t ops) {
  cache::SetAssocCache real(config);
  RefCache ref(config);
  common::Rng rng(seed);
  std::vector<BlockAddress> pool;

  for (std::size_t i = 0; i < ops; ++i) {
    const std::uint64_t op = rng.next_below(100);
    const CoreId core = static_cast<CoreId>(rng.next_below(config.num_cores));
    BlockAddress block;
    if (!pool.empty() && rng.next_bool(0.7)) {
      block = pool[rng.next_below(pool.size())];
    } else {
      block = rng.next_u64() & 0x3FFF;  // small space => frequent reuse
      pool.push_back(block);
    }
    const bool is_write = rng.next_bool(0.3);

    if (op < 70) {
      // Access, filling on a miss — the L2 service pattern.
      const auto expected = ref.access(block, core, is_write);
      if (expected.hit && i % 2 == 0) {
        // Exercise the known-way fast path on alternating hits.
        real.touch_hit(block, expected.way, core, is_write);
      } else {
        const auto got = real.access(block, core, is_write);
        ASSERT_EQ(got.hit, expected.hit) << "op " << i;
        if (got.hit) {
          ASSERT_EQ(got.way, expected.way) << "op " << i;
        }
      }
      if (!expected.hit) {
        const auto got = real.fill(block, core, is_write);
        const auto want = ref.fill(block, core, is_write);
        ASSERT_EQ(got.way, want.way) << "op " << i;
        ASSERT_EQ(got.evicted.has_value(), want.evicted.has_value()) << "op " << i;
        if (got.evicted) {
          ASSERT_EQ(got.evicted->block, want.evicted->block) << "op " << i;
          ASSERT_EQ(got.evicted->allocator, want.evicted->allocator) << "op " << i;
          ASSERT_EQ(got.evicted->dirty, want.evicted->dirty) << "op " << i;
        }
      }
    } else if (op < 78) {
      const auto way = ref.way_of(block);
      if (way.has_value() && i % 2 == 0) {
        real.mark_dirty_at(block, *way);
        ASSERT_TRUE(ref.mark_dirty(block)) << "op " << i;
      } else {
        ASSERT_EQ(real.mark_dirty(block), ref.mark_dirty(block)) << "op " << i;
      }
    } else if (op < 86) {
      const auto way = ref.way_of(block);
      const auto want = ref.invalidate(block);
      if (way.has_value() && i % 2 == 0) {
        const auto got = real.invalidate_at(block, *way);
        ASSERT_EQ(got.block, want->block) << "op " << i;
        ASSERT_EQ(got.allocator, want->allocator) << "op " << i;
        ASSERT_EQ(got.dirty, want->dirty) << "op " << i;
      } else {
        const auto got = real.invalidate(block);
        ASSERT_EQ(got.has_value(), want.has_value()) << "op " << i;
        if (got) {
          ASSERT_EQ(got->block, want->block) << "op " << i;
          ASSERT_EQ(got->dirty, want->dirty) << "op " << i;
        }
      }
    } else if (op < 94) {
      const auto got = real.lru_line_for_core(block, core);
      const auto want = ref.lru_line_for_core(block, core);
      ASSERT_EQ(got.has_value(), want.has_value()) << "op " << i;
      if (got) {
        ASSERT_EQ(got->block, want->block) << "op " << i;
      }
    } else {
      const auto masks = random_partition(rng, config.ways, config.num_cores);
      real.set_way_partition(masks);
      ref.set_way_partition(masks);
    }

    if (i % 10'000 == 9'999) {
      // Equivalence with the reference proves observable behavior; the
      // structural audit proves the internals (LRU byte-links, bitmasks,
      // allocator columns) that equivalence alone cannot see.
      const auto report = audit::audit_cache(real);
      ASSERT_TRUE(report.ok()) << "op " << i << ": " << report.to_string();
    }
  }
  {
    const auto report = audit::audit_cache(real);
    ASSERT_TRUE(report.ok()) << report.to_string();
  }

  ASSERT_EQ(real.valid_lines(), ref.valid_lines());
  for (CoreId core = 0; core < config.num_cores; ++core) {
    ASSERT_EQ(real.stats().hits[core], ref.hits()[core]) << "core " << core;
    ASSERT_EQ(real.stats().misses[core], ref.misses()[core]) << "core " << core;
    ASSERT_EQ(real.stats().evictions[core], ref.evictions()[core]) << "core " << core;
  }
  for (const BlockAddress block : pool) {
    ASSERT_EQ(real.probe(block), ref.probe(block)) << "block " << block;
  }
}

TEST(CacheEquivalence, DirectMappedSingleCore) {
  replay_cache({"dm", 64, 1, 1}, 0xC0FFEE, 120'000);
}

TEST(CacheEquivalence, FourWayFourCores) {
  replay_cache({"4w", 64, 4, 4}, 0xBEEF, 150'000);
}

TEST(CacheEquivalence, EightWayEightCoresRepartitioned) {
  replay_cache({"8w", 32, 8, 8}, 0xFACADE, 150'000);
}

TEST(CacheEquivalence, WideSixteenWay) {
  replay_cache({"16w", 16, 16, 4}, 0x5EED, 120'000);
}

TEST(CacheEquivalence, LongAuditedReplay) {
  // Pushes the suite's structurally-audited replay volume past 1e6 ops:
  // 540k across the four configs above + 400k here + 200k in the DNUCA
  // residency replays below, every slice audited at periodic checkpoints.
  replay_cache({"8w-long", 64, 8, 8}, 0xAD17, 400'000);
}

// ---------------------------------------------------------------------------
// Reference Mattson stack profiler: per-sampled-set vector stacks moved to
// front with erase/insert.
// ---------------------------------------------------------------------------

class RefProfiler {
 public:
  explicit RefProfiler(const msa::ProfilerConfig& config)
      : config_(config),
        set_shift_(log2_floor(config.num_sets)),
        stacks_((config.num_sets + config.set_sampling - 1) / config.set_sampling),
        bins_(std::size_t{config.profiled_ways} + 1, 0) {}

  void observe(BlockAddress block) {
    ++observed_;
    const auto set = static_cast<std::uint32_t>(block & (config_.num_sets - 1));
    if (set % config_.set_sampling != 0) return;
    ++sampled_;
    const std::uint64_t entry =
        config_.partial_tag_bits == 0
            ? (block >> set_shift_)
            : static_cast<std::uint64_t>(
                  cache::partial_tag(block >> set_shift_, config_.partial_tag_bits));
    auto& stack = stacks_[set / config_.set_sampling];
    const auto found = std::find(stack.begin(), stack.end(), entry);
    if (found != stack.end()) {
      ++bins_[static_cast<std::size_t>(found - stack.begin())];
      stack.erase(found);
    } else {
      ++bins_[config_.profiled_ways];
      if (stack.size() == config_.profiled_ways) stack.pop_back();
    }
    stack.insert(stack.begin(), entry);
  }

  void decay() {
    for (auto& bin : bins_) bin >>= 1;
  }

  const std::vector<std::uint64_t>& bins() const { return bins_; }
  std::uint64_t observed() const { return observed_; }
  std::uint64_t sampled() const { return sampled_; }

 private:
  msa::ProfilerConfig config_;
  std::uint32_t set_shift_;
  std::vector<std::vector<std::uint64_t>> stacks_;
  std::vector<std::uint64_t> bins_;
  std::uint64_t observed_ = 0;
  std::uint64_t sampled_ = 0;
};

void replay_profiler(const msa::ProfilerConfig& config, std::uint64_t seed,
                     std::size_t ops) {
  msa::StackProfiler real(config);
  RefProfiler ref(config);
  common::Rng rng(seed);
  std::vector<BlockAddress> pool;
  for (std::size_t i = 0; i < ops; ++i) {
    BlockAddress block;
    if (!pool.empty() && rng.next_bool(0.75)) {
      block = pool[rng.next_below(pool.size())];
    } else {
      block = rng.next_u64() & 0xFFFFFF;
      pool.push_back(block);
    }
    real.observe(block);
    ref.observe(block);
    if (i % 50'000 == 49'999) {
      real.decay();
      ref.decay();
    }
  }
  ASSERT_EQ(real.observed_accesses(), ref.observed());
  ASSERT_EQ(real.sampled_accesses(), ref.sampled());
  const auto bins = real.histogram().bins();
  ASSERT_EQ(bins.size(), ref.bins().size());
  for (std::size_t bin = 0; bin < bins.size(); ++bin) {
    ASSERT_EQ(bins[bin], ref.bins()[bin]) << "bin " << bin;
  }
}

TEST(ProfilerEquivalence, FullSamplingFullTags) {
  msa::ProfilerConfig config;
  config.num_sets = 64;
  config.set_sampling = 1;
  config.partial_tag_bits = 0;
  config.profiled_ways = 16;
  replay_profiler(config, 0xAB1E, 150'000);
}

TEST(ProfilerEquivalence, SampledPartialTags) {
  msa::ProfilerConfig config;
  config.num_sets = 256;
  config.set_sampling = 8;
  config.partial_tag_bits = 12;
  config.profiled_ways = 24;
  replay_profiler(config, 0xD00D, 150'000);
}

TEST(ProfilerEquivalence, PaperScaleSampling) {
  msa::ProfilerConfig config;  // defaults: 2048 sets, 1-in-32, 12b tags, 72 ways
  replay_profiler(config, 0x90210, 150'000);
}

// ---------------------------------------------------------------------------
// Reference synthetic trace generator: per-set vector recency lists with
// erase/insert, same RNG and sampler draws as the ring-buffer generator.
// ---------------------------------------------------------------------------

class RefGenerator {
 public:
  RefGenerator(const trace::WorkloadModel& model, const trace::GeneratorConfig& config,
               std::uint64_t seed)
      : model_(&model),
        config_(config),
        rng_(seed, config.core),
        sampler_(model.stack_distance_weights(config.max_depth)),
        lists_(config.num_sets) {}

  void switch_model(const trace::WorkloadModel& model) {
    model_ = &model;
    sampler_ = common::DiscreteSampler(model.stack_distance_weights(config_.max_depth));
  }

  trace::MemoryAccess next() {
    const auto set = static_cast<std::uint32_t>(rng_.next_below(config_.num_sets));
    auto& list = lists_[set];
    const std::size_t depth_bin = sampler_.sample(rng_);
    BlockAddress block;
    if (depth_bin >= config_.max_depth || depth_bin >= list.size()) {
      const std::uint64_t id = next_block_id_++;
      block = (static_cast<std::uint64_t>(config_.core) << 52) |
              (id << log2_floor(config_.num_sets)) | set;
      list.insert(list.begin(), block);
      if (list.size() > config_.max_depth) list.pop_back();
    } else {
      block = list[depth_bin];
      list.erase(list.begin() + static_cast<std::ptrdiff_t>(depth_bin));
      list.insert(list.begin(), block);
    }
    trace::MemoryAccess access;
    access.block = block;
    access.core = config_.core;
    access.is_write = rng_.next_bool(model_->write_fraction);
    return access;
  }

 private:
  const trace::WorkloadModel* model_;
  trace::GeneratorConfig config_;
  common::Rng rng_;
  common::DiscreteSampler sampler_;
  std::vector<std::vector<BlockAddress>> lists_;
  std::uint64_t next_block_id_ = 0;
};

TEST(GeneratorEquivalence, RingBufferMatchesVectorListsAcrossModelSwitch) {
  const auto& model_a = trace::spec2000_by_name("art");
  const auto& model_b = trace::spec2000_by_name("mcf");
  trace::GeneratorConfig config;
  config.num_sets = 128;
  config.max_depth = 48;  // not a power of two: exercises ring wrap
  config.core = 3;
  trace::SyntheticTraceGenerator real(model_a, config, 77);
  RefGenerator ref(model_a, config, 77);
  for (std::size_t i = 0; i < 200'000; ++i) {
    if (i == 100'000) {
      real.switch_model(model_b);
      ref.switch_model(model_b);
    }
    const auto got = real.next();
    const auto want = ref.next();
    ASSERT_EQ(got.block, want.block) << "access " << i;
    ASSERT_EQ(got.core, want.core) << "access " << i;
    ASSERT_EQ(got.is_write, want.is_write) << "access " << i;
  }
}

std::vector<std::uint8_t> generator_bytes(const trace::SyntheticTraceGenerator& generator) {
  std::vector<std::uint8_t> bytes;
  snapshot::Writer writer(bytes);
  generator.save_state(writer);
  return bytes;
}

// sim::System refills each core's stream buffer with next_batch() and
// rewinds the unconsumed suffix with truncate_batch() at every run
// boundary, so the buffer depth must never show: after any cut the
// generator is the one `consumed` scalar next() calls would have left.
TEST(GeneratorEquivalence, BatchTruncateMatchesScalarAtEveryCut) {
  const auto& model_a = trace::spec2000_by_name("art");
  const auto& model_b = trace::spec2000_by_name("mcf");
  struct Shape {
    std::uint32_t num_sets;
    WayCount max_depth;
  };
  // max_depth 6 lives in an 8-slot ring, so windows wrap; max_depth 8 fills
  // the whole ring, so a fresh insert overwrites the live LRU tail and the
  // rewind must put it back.
  for (const Shape shape : {Shape{16, 6}, Shape{4, 8}}) {
    SCOPED_TRACE("max_depth " + std::to_string(shape.max_depth));
    const trace::GeneratorConfig config{shape.num_sets, shape.max_depth, 5};
    trace::SyntheticTraceGenerator batched(model_a, config, 21);
    trace::SyntheticTraceGenerator scalar(model_a, config, 21);
    common::Rng rng(0xC07, shape.max_depth);
    trace::AccessBatch batch;
    constexpr int kCuts = 120;
    for (int cut = 0; cut < kCuts; ++cut) {
      if (cut == kCuts / 2) {
        batched.switch_model(model_b);
        scalar.switch_model(model_b);
      }
      const auto n =
          static_cast<std::uint32_t>(1 + rng.next_below(trace::AccessBatch::kMaxSize));
      // Every tenth cut pins an edge: nothing consumed, or all of it.
      std::uint32_t consumed = static_cast<std::uint32_t>(rng.next_below(n + 1));
      if (cut % 10 == 0) consumed = 0;
      if (cut % 10 == 5) consumed = n;
      batched.next_batch(batch, n);
      ASSERT_EQ(batch.size, n);
      for (std::uint32_t i = 0; i < consumed; ++i) {
        const auto want = scalar.next();
        ASSERT_EQ(batch.accesses[i].block, want.block) << "cut " << cut << " lane " << i;
        ASSERT_EQ(batch.accesses[i].is_write, want.is_write)
            << "cut " << cut << " lane " << i;
      }
      batched.truncate_batch(consumed);
      ASSERT_EQ(generator_bytes(batched), generator_bytes(scalar)) << "cut " << cut;
      for (int i = 0; i < 1'000; ++i) {
        const auto got = batched.next();
        const auto want = scalar.next();
        ASSERT_EQ(got.block, want.block) << "cut " << cut << " access " << i;
        ASSERT_EQ(got.is_write, want.is_write) << "cut " << cut << " access " << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Reference core timer: multiset-ordered window (the original
// priority-queue formulation's semantics) vs. the in-place heap scans.
// ---------------------------------------------------------------------------

class RefCoreTimer {
 public:
  explicit RefCoreTimer(const core::CoreTimerConfig& config)
      : config_(config), rng_(config.seed, config.core) {}

  double peek_issue() {
    double t = time_ + next_gap();
    if (window_.size() >= config_.mlp_window) {
      // Ascending walk over completion times: the first `mlp_window`-th
      // entry still in flight at t is the earliest the issue can happen.
      std::uint32_t in_flight = 0;
      for (const double done_at : done_ats_) {
        if (done_at > t) {
          ++in_flight;
          if (in_flight >= config_.mlp_window) {
            // earliest done_at > t is the first one seen in sorted order
            t = *done_ats_.upper_bound(t);
            break;
          }
        }
      }
    }
    const double next_instr = instructions_ + config_.instructions_per_l2_access;
    for (const auto& entry : window_) {
      if (next_instr - entry.issued_at > static_cast<double>(config_.rob_entries)) {
        t = std::max(t, entry.done_at);
      }
    }
    return static_cast<double>(static_cast<Cycle>(t));
  }

  double advance_to_issue() {
    const double issue = peek_issue();
    pending_gap_ = -1.0;
    time_ = issue;
    instructions_ += config_.instructions_per_l2_access;
    while (!done_ats_.empty() && *done_ats_.begin() <= time_) {
      remove_earliest();
    }
    return issue;
  }

  void record_completion(double done_at) {
    window_.push_back({done_at, instructions_});
    done_ats_.insert(done_at);
    while (window_.size() > config_.mlp_window) {
      time_ = std::max(time_, *done_ats_.begin());
      remove_earliest();
    }
  }

  void drain() {
    if (!done_ats_.empty()) time_ = std::max(time_, *done_ats_.rbegin());
    window_.clear();
    done_ats_.clear();
  }

  double time() const { return time_; }
  double instructions() const { return instructions_; }

 private:
  struct Entry {
    double done_at = 0.0;
    double issued_at = 0.0;
  };

  double next_gap() {
    if (pending_gap_ < 0.0) {
      const double jitter = 1.0 + config_.gap_jitter * (2.0 * rng_.next_double() - 1.0);
      pending_gap_ = config_.instructions_per_l2_access * config_.base_cpi * jitter;
    }
    return pending_gap_;
  }

  void remove_earliest() {
    const double earliest = *done_ats_.begin();
    done_ats_.erase(done_ats_.begin());
    for (auto it = window_.begin(); it != window_.end(); ++it) {
      if (it->done_at == earliest) {
        window_.erase(it);
        break;
      }
    }
  }

  core::CoreTimerConfig config_;
  common::Rng rng_;
  double time_ = 0.0;
  double instructions_ = 0.0;
  double pending_gap_ = -1.0;
  std::vector<Entry> window_;
  std::multiset<double> done_ats_;
};

TEST(CoreTimerEquivalence, HeapMatchesOrderedWindow) {
  core::CoreTimerConfig config;
  config.base_cpi = 0.7;
  config.instructions_per_l2_access = 40.0;
  config.mlp_window = 4;
  config.rob_entries = 128;
  config.gap_jitter = 0.5;
  config.seed = 99;
  config.core = 1;
  core::CoreTimer real(config);
  RefCoreTimer ref(config);
  common::Rng latencies(0x1A7E);
  for (std::size_t i = 0; i < 100'000; ++i) {
    ASSERT_EQ(real.peek_issue(), static_cast<Cycle>(ref.peek_issue())) << "step " << i;
    const Cycle issue = real.advance_to_issue();
    const double ref_issue = ref.advance_to_issue();
    ASSERT_EQ(issue, static_cast<Cycle>(ref_issue)) << "step " << i;
    ASSERT_EQ(real.time(), static_cast<Cycle>(ref.time())) << "step " << i;
    ASSERT_EQ(real.instructions(), ref.instructions()) << "step " << i;
    const Cycle done_at = issue + 20 + latencies.next_below(400);
    real.record_completion(done_at);
    ref.record_completion(static_cast<double>(done_at));
    if (i % 10'000 == 9'999) {
      real.drain();
      ref.drain();
      ASSERT_EQ(real.time(), static_cast<Cycle>(ref.time())) << "step " << i;
    }
  }
  real.drain();
  ref.drain();
  ASSERT_EQ(real.time(), static_cast<Cycle>(ref.time()));
  ASSERT_EQ(real.instructions(), ref.instructions());
}

// ---------------------------------------------------------------------------
// DNUCA residency index vs. brute-force bank probes.
// ---------------------------------------------------------------------------

void check_residency_index(nuca::AggregationKind kind, std::uint64_t seed) {
  nuca::DnucaConfig config;
  config.geometry.num_cores = 4;
  config.geometry.num_banks = 8;
  config.geometry.ways_per_bank = 4;
  config.sets_per_bank = 16;
  config.aggregation = kind;
  noc::NocConfig noc_config;
  noc_config.num_cores = 4;
  noc_config.num_banks = 8;
  noc::Noc noc(noc_config);
  nuca::DnucaCache cache(config, noc);
  cache.apply_assignment(partition::equal_partition(config.geometry).assignment);

  common::Rng rng(seed);
  std::vector<BlockAddress> pool;
  for (std::size_t i = 0; i < 100'000; ++i) {
    BlockAddress block;
    if (!pool.empty() && rng.next_bool(0.7)) {
      block = pool[rng.next_below(pool.size())];
    } else {
      block = rng.next_u64() & 0xFFFF;
      pool.push_back(block);
    }
    const CoreId core = static_cast<CoreId>(rng.next_below(4));
    cache.access(block, core, rng.next_bool(0.3), static_cast<Cycle>(i));
    if (i % 1000 == 999) {
      // The residency index must agree with a brute-force scan over every
      // bank for every block ever touched, and blocks must never be
      // resident in two banks at once (the single-residency invariant).
      for (const BlockAddress probe : pool) {
        BankId found = kInvalidBank;
        std::uint32_t copies = 0;
        for (BankId bank = 0; bank < config.geometry.num_banks; ++bank) {
          if (cache.bank(bank).probe(probe)) {
            found = bank;
            ++copies;
          }
        }
        ASSERT_LE(copies, 1u) << "block " << probe << " resident in two banks";
        ASSERT_EQ(cache.bank_of(probe), found) << "block " << probe;
        ASSERT_EQ(cache.resident(probe), copies == 1) << "block " << probe;
      }
      // Brute-force probes check presence; the structural audit checks the
      // exact {bank, way} coordinates, view tables and per-bank internals.
      const auto report = audit::audit_nuca(cache);
      ASSERT_TRUE(report.ok()) << "op " << i << ": " << report.to_string();
    }
  }
}

TEST(DnucaEquivalence, ResidencyIndexMatchesBruteForceProbesParallel) {
  check_residency_index(nuca::AggregationKind::Parallel, 0xD0CA);
}

TEST(DnucaEquivalence, ResidencyIndexMatchesBruteForceProbesCascade) {
  // Cascade demotes down bank chains and swaps on promotion — the paths
  // that rewrite residency {bank, way} pairs most aggressively.
  check_residency_index(nuca::AggregationKind::Cascade, 0xCA5C);
}

// ---------------------------------------------------------------------------
// DnucaCache::access_batch (the column API) vs. one-at-a-time scalar access.
// ---------------------------------------------------------------------------

/// Drives two identical DnucaCache instances over the same access stream —
/// one through scalar access(), one through access_batch() cut into
/// `batch_size` chunks (the final chunk is a tail whenever batch_size does
/// not divide the stream) — and requires bit-identical outcomes, statistics
/// and structural state: the column API must leave nothing distinguishable
/// from scalar execution.
void check_batch_equivalence(nuca::AggregationKind kind, std::uint32_t batch_size,
                             std::size_t accesses, std::uint64_t seed) {
  nuca::DnucaConfig config;
  config.geometry.num_cores = 4;
  config.geometry.num_banks = 8;
  config.geometry.ways_per_bank = 4;
  config.sets_per_bank = 32;
  config.aggregation = kind;
  noc::NocConfig noc_config;
  noc_config.num_cores = 4;
  noc_config.num_banks = 8;
  noc::Noc noc_scalar(noc_config);
  noc::Noc noc_batched(noc_config);
  nuca::DnucaCache scalar(config, noc_scalar);
  nuca::DnucaCache batched(config, noc_batched);
  // SharedDnuca hashes fills over all banks, so every core must own ways
  // everywhere; the partitioned kinds run the paper's even split.
  const auto assignment =
      kind == nuca::AggregationKind::SharedDnuca
          ? partition::no_partition(config.geometry).assignment
          : partition::equal_partition(config.geometry).assignment;
  scalar.apply_assignment(assignment);
  batched.apply_assignment(assignment);

  // Column inputs with a mid-stream hot pool: plenty of in-view hits,
  // off-view hits (cores round-robin over a shared pool) and misses.
  common::Rng rng(seed);
  std::vector<BlockAddress> blocks(accesses);
  std::vector<CoreId> cores(accesses);
  std::vector<bacp::Cycle> times(accesses);
  std::vector<bool> write_bits(accesses);
  std::vector<BlockAddress> pool;
  for (std::size_t i = 0; i < accesses; ++i) {
    if (!pool.empty() && rng.next_bool(0.6)) {
      blocks[i] = pool[rng.next_below(pool.size())];
    } else {
      blocks[i] = rng.next_u64() & 0x3FFF;
      pool.push_back(blocks[i]);
    }
    cores[i] = static_cast<CoreId>(rng.next_below(config.geometry.num_cores));
    write_bits[i] = rng.next_bool(0.3);
    times[i] = static_cast<bacp::Cycle>(i * 3);
  }

  std::vector<nuca::L2AccessOutcome> scalar_outcomes(accesses);
  for (std::size_t i = 0; i < accesses; ++i) {
    scalar_outcomes[i] = scalar.access(blocks[i], cores[i], write_bits[i], times[i]);
  }

  // access_batch takes a raw bool column; std::vector<bool> is packed.
  std::vector<char> write_column(write_bits.begin(), write_bits.end());
  std::vector<nuca::L2AccessOutcome> batched_outcomes(accesses);
  for (std::size_t start = 0; start < accesses; start += batch_size) {
    const std::uint32_t count = static_cast<std::uint32_t>(
        std::min<std::size_t>(batch_size, accesses - start));
    batched.access_batch(blocks.data() + start, cores.data() + start,
                         reinterpret_cast<const bool*>(write_column.data()) + start,
                         times.data() + start, count, batched_outcomes.data() + start);
  }

  for (std::size_t i = 0; i < accesses; ++i) {
    const auto& a = scalar_outcomes[i];
    const auto& b = batched_outcomes[i];
    ASSERT_EQ(a.hit, b.hit) << "access " << i;
    ASSERT_EQ(a.bank, b.bank) << "access " << i;
    ASSERT_EQ(a.ready_at, b.ready_at) << "access " << i;
    ASSERT_EQ(a.directory_lookups, b.directory_lookups) << "access " << i;
    ASSERT_EQ(a.evicted.size(), b.evicted.size()) << "access " << i;
    for (std::size_t e = 0; e < a.evicted.size(); ++e) {
      ASSERT_EQ(a.evicted[e].block, b.evicted[e].block) << "access " << i;
      ASSERT_EQ(a.evicted[e].dirty, b.evicted[e].dirty) << "access " << i;
    }
  }

  ASSERT_EQ(scalar.stats().hits, batched.stats().hits);
  ASSERT_EQ(scalar.stats().misses, batched.stats().misses);
  ASSERT_EQ(scalar.stats().promotions, batched.stats().promotions);
  ASSERT_EQ(scalar.stats().demotions, batched.stats().demotions);
  ASSERT_EQ(scalar.stats().directory_lookups, batched.stats().directory_lookups);
  ASSERT_EQ(scalar.stats().offview_hits, batched.stats().offview_hits);

  // Structural state: every touched block resides in the same place, and
  // both instances pass the full structural audit.
  for (const BlockAddress block : pool) {
    ASSERT_EQ(scalar.bank_of(block), batched.bank_of(block)) << "block " << block;
  }
  const auto report = audit::audit_nuca(batched);
  ASSERT_TRUE(report.ok()) << report.to_string();
}

TEST(BatchEquivalence, BatchSizeOneMatchesScalarParallel) {
  check_batch_equivalence(nuca::AggregationKind::Parallel, 1, 20'000, 0xBA7C);
}

TEST(BatchEquivalence, SmallBatchesWithTailsParallel) {
  // 7 leaves a tail on nearly every chunk boundary of a 20'000 stream.
  check_batch_equivalence(nuca::AggregationKind::Parallel, 7, 20'000, 0xBA7C);
}

TEST(BatchEquivalence, FullBatchesParallel) {
  check_batch_equivalence(nuca::AggregationKind::Parallel, 64, 50'000, 0xBA7C);
}

TEST(BatchEquivalence, MaxBatchParallel) {
  check_batch_equivalence(nuca::AggregationKind::Parallel,
                          trace::AccessBatch::kMaxSize, 50'000, 0xBA7C);
}

TEST(BatchEquivalence, FullBatchesCascade) {
  // Cascade exercises promotion/demotion chains across chunk boundaries.
  check_batch_equivalence(nuca::AggregationKind::Cascade, 64, 30'000, 0xCA5C);
}

TEST(BatchEquivalence, FullBatchesSharedDnuca) {
  // SharedDnuca migrates a block one bank closer on every hit, so a block's
  // bank and way change between accesses within one chunk.
  check_batch_equivalence(nuca::AggregationKind::SharedDnuca, 64, 30'000, 0x5DCA);
}

TEST(BatchEquivalence, RepartitionBetweenBatches) {
  // Repartitioning mid-stream creates off-view residents, whose migration
  // consumes the Parallel fill cursor just as misses do.
  nuca::DnucaConfig config;
  config.geometry.num_cores = 4;
  config.geometry.num_banks = 8;
  config.geometry.ways_per_bank = 4;
  config.sets_per_bank = 16;
  config.aggregation = nuca::AggregationKind::Parallel;
  noc::NocConfig noc_config;
  noc_config.num_cores = 4;
  noc_config.num_banks = 8;
  noc::Noc noc_scalar(noc_config);
  noc::Noc noc_batched(noc_config);
  nuca::DnucaCache scalar(config, noc_scalar);
  nuca::DnucaCache batched(config, noc_batched);

  common::Rng rng(0x9EBA);
  const std::size_t phases = 8;
  const std::size_t per_phase = 4'096;
  for (std::size_t phase = 0; phase < phases; ++phase) {
    // Alternate between the even split and the unpartitioned baseline:
    // blocks placed anywhere under no_partition become off-view residents
    // the moment the even split comes back.
    const auto assignment =
        phase % 2 == 0 ? partition::equal_partition(config.geometry).assignment
                       : partition::no_partition(config.geometry).assignment;
    scalar.apply_assignment(assignment);
    batched.apply_assignment(assignment);

    std::vector<BlockAddress> blocks(per_phase);
    std::vector<CoreId> cores(per_phase);
    std::vector<bacp::Cycle> times(per_phase);
    std::vector<char> write_column(per_phase);
    for (std::size_t i = 0; i < per_phase; ++i) {
      blocks[i] = rng.next_u64() & 0xFFF;
      cores[i] = static_cast<CoreId>(rng.next_below(config.geometry.num_cores));
      write_column[i] = rng.next_bool(0.2) ? 1 : 0;
      times[i] = static_cast<bacp::Cycle>((phase * per_phase + i) * 2);
    }

    std::vector<nuca::L2AccessOutcome> outcomes(per_phase);
    for (std::size_t start = 0; start < per_phase;
         start += trace::AccessBatch::kMaxSize) {
      const std::uint32_t count = static_cast<std::uint32_t>(
          std::min<std::size_t>(trace::AccessBatch::kMaxSize, per_phase - start));
      batched.access_batch(blocks.data() + start, cores.data() + start,
                           reinterpret_cast<const bool*>(write_column.data()) + start,
                           times.data() + start, count, outcomes.data() + start);
    }
    for (std::size_t i = 0; i < per_phase; ++i) {
      const auto expected =
          scalar.access(blocks[i], cores[i], write_column[i] != 0, times[i]);
      ASSERT_EQ(expected.hit, outcomes[i].hit) << "phase " << phase << " i " << i;
      ASSERT_EQ(expected.bank, outcomes[i].bank) << "phase " << phase << " i " << i;
      ASSERT_EQ(expected.ready_at, outcomes[i].ready_at)
          << "phase " << phase << " i " << i;
    }
  }
  ASSERT_EQ(scalar.stats().offview_hits, batched.stats().offview_hits);
  ASSERT_GT(batched.stats().offview_hits, 0u)
      << "repartition stream never exercised the off-view path";
  const auto report = audit::audit_nuca(batched);
  ASSERT_TRUE(report.ok()) << report.to_string();
}

// ---------------------------------------------------------------------------
// Pooled System reuse: reset_in_place vs. fresh construction. The pooling
// contract (harness::SystemPool) is that a rewound System is
// indistinguishable from a newly constructed one — here the optimized
// formulation is "rewind a dirty System" and the reference is "construct a
// fresh one", compared at the save_state() byte level and replayed forward.
// ---------------------------------------------------------------------------

TEST(PoolEquivalence, ResetInPlaceMatchesFreshConstructionBitForBit) {
  sim::SystemConfig config = sim::SystemConfig::baseline();
  config.epoch_cycles = 1'500'000;
  config.finalize();
  const auto first_mix = trace::mix_from_names(
      {"mcf", "eon", "art", "gcc", "bzip2", "sixtrack", "facerec", "gzip"});
  const auto second_mix = trace::mix_from_names(
      {"gzip", "facerec", "sixtrack", "bzip2", "gcc", "art", "eon", "mcf"});

  // Dirty the reused System thoroughly: warm-up plus a measured run leaves
  // every component (caches, residency index, profiler stacks, generator
  // rings, timers, observability series) full of first-trial state.
  sim::System reused(config, first_mix);
  reused.warm_up(300'000);
  reused.run(300'000);
  reused.reset_in_place(second_mix);

  sim::System fresh(config, second_mix);
  EXPECT_TRUE(reused.save_state() == fresh.save_state());

  // ...and the rewound System replays the second trial on the exact
  // trajectory of the fresh one, not merely from an equal-looking start.
  // (save_state() is legal only at statistics-clean points, so the warm
  // states compare as bytes and the measured runs compare as results.)
  reused.warm_up(200'000);
  fresh.warm_up(200'000);
  EXPECT_TRUE(reused.save_state() == fresh.save_state());
  reused.run(400'000);
  fresh.run(400'000);
  EXPECT_EQ(reused.results().to_json().dump(), fresh.results().to_json().dump());
}

TEST(PoolEquivalence, RepeatedResetsDoNotDrift) {
  // Three successive lease cycles on one System against three fresh
  // constructions: any residue that survives one reset would compound here.
  sim::SystemConfig config = sim::SystemConfig::baseline();
  config.epoch_cycles = 1'500'000;
  config.finalize();
  const std::vector<trace::WorkloadMix> mixes = {
      trace::mix_from_names(
          {"mcf", "eon", "art", "gcc", "bzip2", "sixtrack", "facerec", "gzip"}),
      trace::mix_from_names(
          {"art", "gzip", "mcf", "facerec", "eon", "bzip2", "gcc", "sixtrack"}),
      trace::mix_from_names(
          {"bzip2", "gcc", "gzip", "eon", "sixtrack", "mcf", "art", "facerec"}),
  };

  sim::System reused(config, mixes[0]);
  for (const auto& mix : mixes) {
    reused.reset_in_place(mix);
    reused.warm_up(150'000);

    sim::System fresh(config, mix);
    fresh.warm_up(150'000);
    ASSERT_TRUE(reused.save_state() == fresh.save_state());

    reused.run(250'000);
    fresh.run(250'000);
    ASSERT_EQ(reused.results().to_json().dump(), fresh.results().to_json().dump());
  }
}

}  // namespace
}  // namespace bacp

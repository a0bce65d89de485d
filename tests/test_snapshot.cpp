#include "snapshot/snapshot.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "audit/audit.hpp"
#include "audit/snapshot_audit.hpp"
#include "audit/system_audit.hpp"
#include "common/thread_pool.hpp"
#include "harness/experiments.hpp"
#include "harness/snapshot_cache.hpp"
#include "harness/system_pool.hpp"
#include "sim/system.hpp"
#include "sim/system_config.hpp"
#include "snapshot/codec.hpp"
#include "trace/mix.hpp"
#include "trace/spec2000.hpp"
#include "trace/synthetic.hpp"

namespace bacp {
namespace {

sim::SystemConfig fast_config(sim::PolicyKind policy) {
  sim::SystemConfig config = sim::SystemConfig::baseline();
  config.policy = policy;
  config.epoch_cycles = 1'500'000;
  config.finalize();
  return config;
}

trace::WorkloadMix capacity_diverse_mix() {
  return trace::mix_from_names(
      {"mcf", "eon", "art", "gcc", "bzip2", "sixtrack", "facerec", "gzip"});
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

TEST(Codec, RoundTripsScalarsStringsAndArrays) {
  std::vector<std::uint8_t> buffer;
  snapshot::Writer writer(buffer);
  writer.u8(0xAB);
  writer.u16(0xCDEF);
  writer.u32(0x12345678u);
  writer.u64(0x1122334455667788ull);
  writer.f64(-0.125);
  const std::vector<std::uint32_t> values = {1, 2, 3, 5, 8};
  writer.scalars(std::span<const std::uint32_t>(values));
  writer.str("bacp");

  snapshot::Reader reader(buffer);
  EXPECT_EQ(reader.u8(), 0xAB);
  EXPECT_EQ(reader.u16(), 0xCDEF);
  EXPECT_EQ(reader.u32(), 0x12345678u);
  EXPECT_EQ(reader.u64(), 0x1122334455667788ull);
  EXPECT_EQ(reader.f64(), -0.125);
  EXPECT_EQ(reader.scalars<std::uint32_t>(), values);
  EXPECT_EQ(reader.str(), "bacp");
  EXPECT_TRUE(reader.exhausted());
}

TEST(Codec, BuilderProducesAuditCleanFraming) {
  snapshot::SnapshotBuilder builder(/*config_digest=*/42);
  {
    auto writer = builder.begin_section(snapshot::SectionId::Noc);
    writer.u64(7);
  }
  {
    auto writer = builder.begin_section(snapshot::SectionId::Dram);
    writer.str("payload");
  }
  const snapshot::SystemSnapshot snapshot = builder.finish();
  const snapshot::SnapshotView view(snapshot);
  EXPECT_EQ(view.config_digest(), 42u);
  EXPECT_TRUE(view.has_section(snapshot::SectionId::Noc));
  EXPECT_FALSE(view.has_section(snapshot::SectionId::L2));
  const auto report = audit::audit_snapshot(snapshot);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.checks, 0u);
}

// ---------------------------------------------------------------------------
// System round trip
// ---------------------------------------------------------------------------

TEST(SystemSnapshot, SaveIsDeterministic) {
  sim::System system(fast_config(sim::PolicyKind::BankAware), capacity_diverse_mix());
  system.warm_up(400'000);
  const auto first = system.save_state();
  const auto second = system.save_state();
  EXPECT_EQ(first.bytes, second.bytes);
  EXPECT_GT(first.size_bytes(), 0u);
}

TEST(SystemSnapshot, RestoreResumesBitIdentically) {
  const auto config = fast_config(sim::PolicyKind::BankAware);
  const auto mix = capacity_diverse_mix();

  sim::System original(config, mix);
  original.warm_up(600'000);
  const auto snapshot = original.save_state();
  EXPECT_TRUE(audit::audit_snapshot(snapshot).ok());

  sim::System restored(config, mix);
  restored.restore_state(snapshot);

  // The restored system must pass the full structural audit before running.
  const auto structural = audit::audit_system(restored);
  EXPECT_TRUE(structural.ok()) << structural.to_string();
  EXPECT_GT(structural.checks, 0u);

  original.run(900'000);
  restored.run(900'000);
  EXPECT_EQ(original.results().to_json().dump(), restored.results().to_json().dump());
  EXPECT_EQ(original.epochs_run(), restored.epochs_run());

  // ...and resume along the *same* trajectory, not merely a similar one:
  // the warm states coincide byte-for-byte after the measured window too
  // (compare through a second save from freshly restored twins).
  sim::System twin_a(config, mix);
  twin_a.restore_state(snapshot);
  const auto resaved = twin_a.save_state();
  EXPECT_EQ(resaved.bytes, snapshot.bytes);
}

TEST(SystemSnapshot, RestoreRejectsMismatchedConfig) {
  const auto mix = capacity_diverse_mix();
  sim::System original(fast_config(sim::PolicyKind::BankAware), mix);
  original.warm_up(100'000);
  const auto snapshot = original.save_state();

  sim::System other(fast_config(sim::PolicyKind::EqualPartition), mix);
  EXPECT_DEATH(other.restore_state(snapshot), "digest");
}

TEST(SystemSnapshot, AdoptWarmStateRunsAllPolicies) {
  const auto mix = capacity_diverse_mix();
  const auto base = fast_config(sim::PolicyKind::BankAware);

  sim::System canonical(sim::canonical_warm_config(base), mix);
  canonical.warm_up(400'000);
  const auto snapshot = canonical.save_state();

  for (const auto policy : {sim::PolicyKind::NoPartition, sim::PolicyKind::EqualPartition,
                            sim::PolicyKind::BankAware}) {
    sim::System variant(fast_config(policy), mix);
    variant.adopt_warm_state(snapshot);
    const auto structural = audit::audit_system(variant);
    EXPECT_TRUE(structural.ok()) << structural.to_string();
    variant.run(600'000);
    EXPECT_GT(variant.results().l2_misses(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Sparse recency-ring encoding
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> save_generator(const trace::SyntheticTraceGenerator& generator) {
  std::vector<std::uint8_t> bytes;
  snapshot::Writer writer(bytes);
  generator.save_state(writer);
  return bytes;
}

void restore_generator(trace::SyntheticTraceGenerator& generator,
                       const std::vector<std::uint8_t>& bytes) {
  snapshot::Reader reader(bytes);
  generator.restore_state(reader);
  EXPECT_TRUE(reader.exhausted());
}

/// The per-set ring heads and sizes as a saved generator section records
/// them (read back through the public codec, not the generator's internals).
struct RingShape {
  std::vector<std::uint32_t> heads;
  std::vector<std::uint32_t> sizes;
  std::size_t sizes_offset = 0;  ///< byte offset of sizes[0] in the section
  std::size_t live_offset = 0;   ///< byte offset of the total live count
};

RingShape ring_shape(std::span<const std::uint8_t> section) {
  snapshot::Reader reader(section);
  (void)reader.u32();  // num_sets
  (void)reader.u32();  // max_depth
  (void)reader.u32();  // core
  (void)reader.str();  // model name
  for (int word = 0; word < 4; ++word) (void)reader.u64();  // RNG state
  RingShape shape;
  shape.heads = reader.scalars<std::uint32_t>();
  shape.sizes_offset = section.size() - reader.remaining() + sizeof(std::uint64_t);
  shape.sizes = reader.scalars<std::uint32_t>();
  shape.live_offset = section.size() - reader.remaining();
  return shape;
}

struct RingCase {
  std::uint32_t num_sets;
  WayCount max_depth;
  std::uint32_t accesses;
};

// Each case pins one corner of the window encoding: tiny rings driven long
// enough that every window is full (max_depth 8 fills the whole 8-slot
// ring, so a fresh insert overwrites the live LRU tail), full windows in a
// larger ring (max_depth 6 in 8 slots, leaving dead slots inside a wrapped
// window's stride), and a wide, barely touched generator whose sets are
// mostly empty.
TEST(GeneratorSnapshot, SparseWindowsRoundTripWrappedFullAndEmptySets) {
  const auto& model = trace::spec2000_by_name("mcf");
  for (const RingCase ring : {RingCase{4, 8, 2'000}, RingCase{4, 6, 2'000},
                              RingCase{64, 8, 20}}) {
    SCOPED_TRACE("num_sets " + std::to_string(ring.num_sets) + " max_depth " +
                 std::to_string(ring.max_depth));
    const trace::GeneratorConfig config{ring.num_sets, ring.max_depth, 3};
    trace::SyntheticTraceGenerator original(model, config, /*seed=*/11);
    for (std::uint32_t i = 0; i < ring.accesses; ++i) (void)original.next();
    const auto saved = save_generator(original);

    const RingShape shape = ring_shape(saved);
    const std::uint32_t capacity = std::bit_ceil(std::uint32_t{ring.max_depth});
    bool wrapped = false;
    bool full = false;
    bool empty = false;
    for (std::uint32_t set = 0; set < ring.num_sets; ++set) {
      wrapped |= shape.heads[set] + shape.sizes[set] > capacity;
      full |= shape.sizes[set] == ring.max_depth;
      empty |= shape.sizes[set] == 0;
    }
    if (ring.accesses < ring.num_sets) {
      EXPECT_TRUE(empty);
    } else {
      EXPECT_TRUE(wrapped);
      EXPECT_TRUE(full);
    }

    // A differently seeded twin proves the RNG state travels too.
    trace::SyntheticTraceGenerator restored(model, config, /*seed=*/99);
    restore_generator(restored, saved);
    EXPECT_EQ(save_generator(restored), saved);

    // A batch rewound on the restored twin lands where scalar calls do: on
    // a full 8-slot ring the rewind must restore the overwritten LRU tail.
    trace::AccessBatch batch;
    restored.next_batch(batch, 64);
    restored.truncate_batch(10);
    for (int i = 0; i < 10; ++i) (void)original.next();
    EXPECT_EQ(save_generator(restored), save_generator(original));

    for (int i = 0; i < 500; ++i) {
      const auto expected = original.next();
      const auto actual = restored.next();
      ASSERT_EQ(actual.block, expected.block) << "access " << i;
      ASSERT_EQ(actual.is_write, expected.is_write) << "access " << i;
    }
    EXPECT_EQ(save_generator(restored), save_generator(original));
  }
}

// Restore scatters only the live windows, so every slot outside them keeps
// whatever the target System held before. A System warmed further than the
// snapshot holds its own, longer recency windows there; restoring into it
// must be indistinguishable from restoring into a freshly built System.
TEST(GeneratorSnapshot, StaleDeadSlotsDoNotLeakThroughRestore) {
  const auto config = fast_config(sim::PolicyKind::BankAware);
  const auto mix = capacity_diverse_mix();
  sim::System original(config, mix);
  original.warm_up(200'000);
  const auto snapshot = original.save_state();

  sim::System stale(config, mix);
  stale.warm_up(700'000);
  stale.restore_state(snapshot);
  sim::System fresh(config, mix);
  fresh.restore_state(snapshot);
  EXPECT_EQ(stale.save_state().bytes, snapshot.bytes);
  EXPECT_EQ(fresh.save_state().bytes, snapshot.bytes);

  stale.run(500'000);
  fresh.run(500'000);
  EXPECT_EQ(stale.results().to_json().dump(), fresh.results().to_json().dump());
  stale.reset_measurement();
  fresh.reset_measurement();
  EXPECT_EQ(stale.save_state().bytes, fresh.save_state().bytes);
}

/// Rewrites one section of `snapshot` in place and re-seals its table
/// checksum, so only restore_state's own shape checks stand between the
/// edit and the restored state.
void edit_section(snapshot::SystemSnapshot& snapshot, snapshot::SectionId id,
                  const std::function<void(std::span<std::uint8_t>)>& edit) {
  std::uint8_t* base = snapshot.bytes.data();
  std::uint32_t count = 0;
  std::memcpy(&count, base + 12, sizeof(count));
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint8_t* entry = base + snapshot::kHeaderBytes + i * snapshot::kTableEntryBytes;
    std::uint32_t entry_id = 0;
    std::memcpy(&entry_id, entry, sizeof(entry_id));
    if (entry_id != static_cast<std::uint32_t>(id)) continue;
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
    std::memcpy(&offset, entry + 8, sizeof(offset));
    std::memcpy(&length, entry + 16, sizeof(length));
    const std::span<std::uint8_t> payload(base + offset, length);
    edit(payload);
    const std::uint64_t checksum = snapshot::fnv1a(payload);
    std::memcpy(entry + 24, &checksum, sizeof(checksum));
    return;
  }
  FAIL() << "no section " << snapshot::to_string(id);
}

TEST(GeneratorSnapshotDeathTest, RestoreRejectsImpossibleRingShapes) {
  const auto config = fast_config(sim::PolicyKind::BankAware);
  const auto mix = capacity_diverse_mix();
  sim::System original(config, mix);
  original.warm_up(100'000);
  const auto snapshot = original.save_state();

  auto oversized = snapshot;
  edit_section(oversized, snapshot::SectionId::Generators, [&](std::span<std::uint8_t> core0) {
    const RingShape shape = ring_shape(core0);
    const std::uint32_t size = config.geometry.total_ways() + 1;
    std::memcpy(core0.data() + shape.sizes_offset, &size, sizeof(size));
  });
  sim::System target(config, mix);
  EXPECT_TRUE(audit::audit_snapshot(oversized).ok());
  EXPECT_DEATH(target.restore_state(oversized), "exceeds max_depth");

  auto miscounted = snapshot;
  edit_section(miscounted, snapshot::SectionId::Generators, [](std::span<std::uint8_t> core0) {
    const RingShape shape = ring_shape(core0);
    std::uint64_t live = 0;
    std::memcpy(&live, core0.data() + shape.live_offset, sizeof(live));
    ++live;
    std::memcpy(core0.data() + shape.live_offset, &live, sizeof(live));
  });
  EXPECT_TRUE(audit::audit_snapshot(miscounted).ok());
  EXPECT_DEATH(target.restore_state(miscounted), "live ring entry count");
}

// ---------------------------------------------------------------------------
// Derived L2 residency
// ---------------------------------------------------------------------------

// The residency index is never serialized: restore derives it from the
// banks' valid tags. It must pass the structural NUCA audit in every build
// (not only at BACP_AUDIT checkpoints) and place each resident block at the
// bank and way it occupied on the saving System.
TEST(SystemSnapshot, RestoreDerivesResidencyFromBankTags) {
  const auto mix = capacity_diverse_mix();
  for (const auto policy : {sim::PolicyKind::NoPartition, sim::PolicyKind::EqualPartition,
                            sim::PolicyKind::BankAware}) {
    SCOPED_TRACE(sim::to_string(policy));
    const auto config = fast_config(policy);
    sim::System original(config, mix);
    original.warm_up(600'000);
    sim::System restored(config, mix);
    restored.restore_state(original.save_state());

    const auto report = audit::audit_nuca(restored.l2());
    EXPECT_TRUE(report.ok()) << report.to_string();
    EXPECT_GT(report.checks, 0u);

    using Triple = std::tuple<std::uint32_t, WayIndex, BlockAddress>;
    const auto valid_lines = [](const cache::SetAssocCache& bank) {
      std::vector<Triple> lines;
      bank.for_each_valid([&](std::uint32_t set, WayIndex way, BlockAddress block) {
        lines.emplace_back(set, way, block);
      });
      return lines;
    };
    std::uint64_t resident = 0;
    std::uint64_t misindexed = 0;
    for (BankId bank = 0; bank < config.geometry.num_banks; ++bank) {
      const auto lines = valid_lines(original.l2().bank(bank));
      ASSERT_EQ(valid_lines(restored.l2().bank(bank)), lines) << "bank " << bank;
      resident += lines.size();
      for (const auto& [set, way, block] : lines) {
        if (restored.l2().bank_of(block) != bank) ++misindexed;
      }
    }
    EXPECT_GT(resident, 0u);
    EXPECT_EQ(misindexed, 0u);
  }
}

// ---------------------------------------------------------------------------
// Live-line cache sections (format v4)
// ---------------------------------------------------------------------------

/// Byte offsets of one SetAssocCache image inside a saved section, read back
/// through the public codec: geometry echo, way masks, statistics, the
/// live-line count, per-set {valid, dirty, recency order} records, then one
/// {tag u64, allocator u32} record per valid way.
struct CacheImage {
  std::uint32_t ways = 0;
  std::size_t mask_bytes = 0;
  std::size_t record_bytes = 0;  ///< bytes per set record
  std::size_t live_offset = 0;   ///< the live-line count
  std::size_t sets_offset = 0;   ///< set 0's record
  std::size_t lines_offset = 0;  ///< the first live-line record
  std::size_t end = 0;           ///< one past the image
};

CacheImage cache_image(std::span<const std::uint8_t> section, std::size_t offset) {
  snapshot::Reader reader(section.subspan(offset));
  CacheImage image;
  const std::uint32_t num_sets = reader.u32();
  image.ways = reader.u32();
  (void)reader.u32();  // num_cores
  image.mask_bytes = (image.ways + 7) / 8;
  image.record_bytes = 2 * image.mask_bytes + image.ways;
  (void)reader.scalars<CoreMask>();  // way masks
  for (int counter = 0; counter < 3; ++counter) (void)reader.scalars<std::uint64_t>();
  image.live_offset = section.size() - reader.remaining();
  const std::uint64_t live = reader.u64();
  image.sets_offset = section.size() - reader.remaining();
  (void)reader.bytes(num_sets * image.record_bytes);
  image.lines_offset = section.size() - reader.remaining();
  (void)reader.bytes(live * (sizeof(BlockAddress) + sizeof(CoreId)));
  image.end = section.size() - reader.remaining();
  return image;
}

/// Offset of core 0's partition view (its u64 length) in an L2 section:
/// the num_banks and num_cores echo, every bank image, then the views.
std::size_t l2_views_offset(std::span<const std::uint8_t> section, std::uint32_t num_banks) {
  std::size_t offset = 2 * sizeof(std::uint32_t);
  for (std::uint32_t bank = 0; bank < num_banks; ++bank) {
    offset = cache_image(section, offset).end;
  }
  return offset;
}

// v4 writes valid ways only, so restore leaves every dead way's tag as the
// target System held it. Here the target is a pooled System that already
// ran another trial, was rewound for this mix (reset_in_place clears valid
// bits, not tags) and then ran further than the snapshot: restoring
// straight over that live state must be indistinguishable from a fresh
// restore, and every dead way must read as empty to the audits.
TEST(CacheSnapshot, PooledDeadWaysWithForeignTagsDoNotLeakThroughRestore) {
  const auto config = fast_config(sim::PolicyKind::BankAware);
  const auto mix = capacity_diverse_mix();
  sim::System original(config, mix);
  original.warm_up(200'000);
  const auto snapshot = original.save_state();

  harness::SystemPool pool;
  {
    auto previous = pool.acquire(
        config, trace::mix_from_names(
                    {"art", "mcf", "gzip", "eon", "facerec", "gcc", "sixtrack", "bzip2"}));
    previous->warm_up(300'000);
    previous->run(300'000);
  }
  auto pooled = pool.acquire(config, mix);
  ASSERT_TRUE(pooled.pooled_hit());
  pooled->reset_in_place(mix);
  pooled->warm_up(700'000);

  // Mark the L2 ways that hold live lines before the restore.
  const std::uint32_t num_banks = config.geometry.num_banks;
  const std::size_t bank_lines =
      std::size_t{pooled->l2().bank(0).config().num_sets} * config.geometry.ways_per_bank;
  std::vector<std::uint8_t> held(num_banks * bank_lines, 0);
  for (BankId bank = 0; bank < num_banks; ++bank) {
    pooled->l2().bank(bank).for_each_valid([&](std::uint32_t set, WayIndex way, BlockAddress) {
      held[bank * bank_lines + set * config.geometry.ways_per_bank + way] = 1;
    });
  }
  pooled->restore_state(snapshot);
  for (BankId bank = 0; bank < num_banks; ++bank) {
    pooled->l2().bank(bank).for_each_valid([&](std::uint32_t set, WayIndex way, BlockAddress) {
      held[bank * bank_lines + set * config.geometry.ways_per_bank + way] = 0;
    });
  }
  // Ways that held a line the snapshot leaves dead: their stale tags and
  // allocators are exactly what a dead-way leak would expose.
  EXPECT_GT(std::count(held.begin(), held.end(), std::uint8_t{1}), 0);

  const auto nuca_report = audit::audit_nuca(pooled->l2());
  EXPECT_TRUE(nuca_report.ok()) << nuca_report.to_string();
  for (CoreId core = 0; core < config.geometry.num_cores; ++core) {
    const auto l1_report = audit::audit_cache(pooled->l1(core));
    EXPECT_TRUE(l1_report.ok()) << l1_report.to_string();
  }
  EXPECT_EQ(pooled->save_state().bytes, snapshot.bytes);

  sim::System fresh(config, mix);
  fresh.restore_state(snapshot);
  pooled->run(500'000);
  fresh.run(500'000);
  EXPECT_EQ(pooled->results().to_json().dump(), fresh.results().to_json().dump());
  pooled->reset_measurement();
  fresh.reset_measurement();
  EXPECT_EQ(pooled->save_state().bytes, fresh.save_state().bytes);
}

TEST(CacheSnapshotDeathTest, RestoreRejectsImpossibleLineShapes) {
  const auto config = fast_config(sim::PolicyKind::BankAware);
  const auto mix = capacity_diverse_mix();
  sim::System original(config, mix);
  original.warm_up(100'000);
  const auto snapshot = original.save_state();
  constexpr std::size_t kBank0 = 2 * sizeof(std::uint32_t);
  sim::System target(config, mix);

  auto miscounted = snapshot;
  edit_section(miscounted, snapshot::SectionId::L2, [](std::span<std::uint8_t> l2) {
    const CacheImage bank0 = cache_image(l2, kBank0);
    std::uint64_t live = 0;
    std::memcpy(&live, l2.data() + bank0.live_offset, sizeof(live));
    ++live;
    std::memcpy(l2.data() + bank0.live_offset, &live, sizeof(live));
  });
  EXPECT_TRUE(audit::audit_snapshot(miscounted).ok());
  EXPECT_DEATH(target.restore_state(miscounted), "live line count");

  auto dirty_dead = snapshot;
  edit_section(dirty_dead, snapshot::SectionId::L2, [](std::span<std::uint8_t> l2) {
    const CacheImage bank0 = cache_image(l2, kBank0);
    ASSERT_EQ(bank0.mask_bytes, 1u);
    const std::uint8_t all_ways = static_cast<std::uint8_t>((1u << bank0.ways) - 1);
    for (std::size_t at = bank0.sets_offset; at < bank0.lines_offset; at += bank0.record_bytes) {
      const std::uint8_t dead = static_cast<std::uint8_t>(~l2[at] & all_ways);
      if (dead == 0) continue;
      l2[at + 1] = static_cast<std::uint8_t>(l2[at + 1] | (dead & -dead));
      return;
    }
    FAIL() << "bank 0 has no set with a dead way";
  });
  EXPECT_TRUE(audit::audit_snapshot(dirty_dead).ok());
  EXPECT_DEATH(target.restore_state(dirty_dead), "dirty bit on an invalid way");

  // L1s are 2-way, so their one-byte masks can name a way past the last.
  auto phantom_way = snapshot;
  edit_section(phantom_way, snapshot::SectionId::L1, [](std::span<std::uint8_t> l1) {
    const CacheImage core0 = cache_image(l1, 0);
    ASSERT_LT(core0.ways, 8u);
    l1[core0.sets_offset] = static_cast<std::uint8_t>(l1[core0.sets_offset] | (1u << core0.ways));
  });
  EXPECT_TRUE(audit::audit_snapshot(phantom_way).ok());
  EXPECT_DEATH(target.restore_state(phantom_way), "valid bit beyond the way count");
}

TEST(NucaSnapshotDeathTest, RestoreRejectsImpossibleViews) {
  const auto config = fast_config(sim::PolicyKind::NoPartition);
  const auto mix = capacity_diverse_mix();
  sim::System original(config, mix);
  original.warm_up(100'000);
  const auto snapshot = original.save_state();
  const std::uint32_t num_banks = config.geometry.num_banks;
  sim::System target(config, mix);

  auto out_of_range = snapshot;
  edit_section(out_of_range, snapshot::SectionId::L2, [&](std::span<std::uint8_t> l2) {
    const std::size_t view = l2_views_offset(l2, num_banks);
    std::memcpy(l2.data() + view + sizeof(std::uint64_t), &num_banks, sizeof(BankId));
  });
  EXPECT_TRUE(audit::audit_snapshot(out_of_range).ok());
  EXPECT_DEATH(target.restore_state(out_of_range), "view names a bank out of range");

  auto repeated = snapshot;
  edit_section(repeated, snapshot::SectionId::L2, [&](std::span<std::uint8_t> l2) {
    const std::size_t view = l2_views_offset(l2, num_banks);
    std::uint64_t length = 0;
    std::memcpy(&length, l2.data() + view, sizeof(length));
    ASSERT_GE(length, 2u);
    std::uint8_t* first = l2.data() + view + sizeof(std::uint64_t);
    std::memcpy(first + sizeof(BankId), first, sizeof(BankId));
  });
  EXPECT_TRUE(audit::audit_snapshot(repeated).ok());
  EXPECT_DEATH(target.restore_state(repeated), "view names a bank twice");
}

// ---------------------------------------------------------------------------
// Warm-state fingerprint
// ---------------------------------------------------------------------------

TEST(ConfigDigest, SeparatesWarmStateRelevantFields) {
  const auto mix = capacity_diverse_mix();
  const auto base = fast_config(sim::PolicyKind::BankAware);
  const std::uint64_t digest = sim::config_digest(base, mix);

  auto changed = base;
  changed.seed = base.seed + 1;
  EXPECT_NE(sim::config_digest(changed, mix), digest);

  changed = base;
  changed.policy = sim::PolicyKind::EqualPartition;
  EXPECT_NE(sim::config_digest(changed, mix), digest);

  changed = base;
  changed.epoch_cycles = base.epoch_cycles * 2;
  EXPECT_NE(sim::config_digest(changed, mix), digest);

  changed = base;
  changed.aggregation = nuca::AggregationKind::Cascade;
  EXPECT_NE(sim::config_digest(changed, mix), digest);

  changed = base;
  changed.gap_jitter = base.gap_jitter + 0.001;
  EXPECT_NE(sim::config_digest(changed, mix), digest);

  const auto other_mix = trace::mix_from_names(
      {"gcc", "eon", "art", "mcf", "bzip2", "sixtrack", "facerec", "gzip"});
  EXPECT_NE(sim::config_digest(base, other_mix), digest);
}

TEST(ConfigDigest, WarmStateDigestIsPolicyNeutral) {
  const auto mix = capacity_diverse_mix();
  const auto base = fast_config(sim::PolicyKind::BankAware);
  const std::uint64_t digest = sim::warm_state_digest(base, mix);

  // The canonical warm-up neutralizes the knobs that only matter once
  // epochs fire: policy, aggregation and epoch length.
  auto changed = base;
  changed.policy = sim::PolicyKind::NoPartition;
  EXPECT_EQ(sim::warm_state_digest(changed, mix), digest);
  changed.aggregation = nuca::AggregationKind::AddressHash;
  EXPECT_EQ(sim::warm_state_digest(changed, mix), digest);
  changed.epoch_cycles = 123'456;
  EXPECT_EQ(sim::warm_state_digest(changed, mix), digest);

  // Everything that shapes warm contents still separates.
  changed = base;
  changed.seed = base.seed + 1;
  EXPECT_NE(sim::warm_state_digest(changed, mix), digest);
}

// Fingerprint completeness is enforced at compile time: system_config.cpp
// static_asserts the exact sizeof of SystemConfig and every nested config
// struct, so adding a warm-state-relevant field without extending
// config_digest() fails the build rather than silently aliasing cache keys.
// This test pins the contract at runtime too (a changed size with an
// *updated* assert but unextended digest would still alias): two configs
// differing in any single scalar field must never collide.
TEST(ConfigDigest, NearbyConfigsDoNotCollide) {
  const auto mix = capacity_diverse_mix();
  const auto base = fast_config(sim::PolicyKind::BankAware);
  const std::uint64_t digest = sim::config_digest(base, mix);

  auto changed = base;
  changed.l1_ways += 1;
  EXPECT_NE(sim::config_digest(changed, mix), digest);
  changed = base;
  changed.noc.cycles_per_hop += 1;
  EXPECT_NE(sim::config_digest(changed, mix), digest);
  changed = base;
  changed.dram.access_latency += 1;
  EXPECT_NE(sim::config_digest(changed, mix), digest);
  changed = base;
  changed.mshr.entries_per_core += 1;
  EXPECT_NE(sim::config_digest(changed, mix), digest);
  changed = base;
  changed.profiler.set_sampling *= 2;
  EXPECT_NE(sim::config_digest(changed, mix), digest);
}

// ---------------------------------------------------------------------------
// SnapshotCache
// ---------------------------------------------------------------------------

TEST(SnapshotCache, WarmsEachKeyExactlyOnce) {
  harness::SnapshotCache cache;
  std::atomic<int> warmups{0};
  common::ThreadPool pool(4);
  pool.parallel_for(16, [&](std::size_t task) {
    const auto snapshot = cache.get_or_warm(task % 2, [&] {
      ++warmups;
      return snapshot::SnapshotBuilder(/*config_digest=*/task % 2).finish();
    });
    ASSERT_NE(snapshot, nullptr);
  });
  EXPECT_EQ(warmups.load(), 2);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 14u);
}

TEST(SnapshotCache, WarmupKeySeparatesLengths) {
  EXPECT_NE(harness::warmup_key(1, 100), harness::warmup_key(1, 200));
  EXPECT_NE(harness::warmup_key(1, 100), harness::warmup_key(2, 100));
  EXPECT_EQ(harness::warmup_key(1, 100), harness::warmup_key(1, 100));
}

// The tentpole's headline invariant: with snapshot reuse on (default) and
// shared warm-up off, sweep results are byte-identical to cold warm-up and
// independent of the worker count.
TEST(SnapshotCache, SweepResultsIndependentOfReuseAndThreads) {
  const auto sets = std::vector<harness::ExperimentSet>{harness::table3_sets()[1]};
  auto config = harness::DetailedRunConfig{}
                    .with_warmup_instructions(150'000)
                    .with_measure_instructions(300'000)
                    .with_epoch_cycles(1'500'000);

  const auto reference = harness::run_detailed_sweep(
      sets, config.with_num_threads(1).with_snapshot_reuse(false));
  const auto reused = harness::run_detailed_sweep(
      sets, config.with_num_threads(3).with_snapshot_reuse(true));
  ASSERT_EQ(reference.size(), reused.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(reference[i].none.to_json().dump(), reused[i].none.to_json().dump());
    EXPECT_EQ(reference[i].equal.to_json().dump(), reused[i].equal.to_json().dump());
    EXPECT_EQ(reference[i].bank_aware.to_json().dump(),
              reused[i].bank_aware.to_json().dump());
  }
}

// ---------------------------------------------------------------------------
// mmap zero-copy bank reads
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> contents(const snapshot::SystemSnapshot& snapshot) {
  const auto span = snapshot.data();
  return {span.begin(), span.end()};
}

// A bank entry is loaded zero-copy: the snapshot is backed by the mapped
// file, carries the saved bytes, and a System restored from the mapped pages
// resumes on the exact trajectory the saved System was on.
TEST(SnapshotCache, MmapBankReadRestoresSavedTrajectory) {
  const std::string dir = testing::TempDir() + "/bacp-snapbank-mmap";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const auto config = fast_config(sim::PolicyKind::BankAware);
  const auto mix = capacity_diverse_mix();
  sim::System original(config, mix);
  original.warm_up(400'000);
  const auto saved = original.save_state();
  {
    harness::SnapshotCache cache;
    cache.set_file_bank(dir);
    cache.get_or_warm(0xD15C, [&] { return saved; });
  }

  harness::SnapshotCache mapped_cache;
  mapped_cache.set_file_bank(dir);
  const auto mapped = mapped_cache.get_or_warm(0xD15C, [&] { return saved; });
  ASSERT_EQ(mapped_cache.file_hits(), 1u);
  EXPECT_NE(mapped->backing, nullptr);
  EXPECT_TRUE(mapped->bytes.empty());
  EXPECT_EQ(contents(*mapped), saved.bytes);

  // Restoring straight off the mapped pages lands on the saved trajectory:
  // a re-save of the restored twin reproduces the banked bytes exactly.
  sim::System restored(config, mix);
  restored.restore_state(*mapped);
  EXPECT_TRUE(audit::audit_system(restored).ok());
  EXPECT_EQ(restored.save_state().bytes, saved.bytes);

  std::filesystem::remove_all(dir);
}

// Fail-closed: the per-section checksums are recomputed from the mapped
// region itself, so a truncated (or otherwise damaged) bank file is rejected
// before any restore can read it, and the cache falls back to warming.
TEST(SnapshotCache, TruncatedBankEntryFailsClosedUnderMmap) {
  const std::string dir = testing::TempDir() + "/bacp-snapbank-truncated";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    harness::SnapshotCache cache;
    cache.set_file_bank(dir);
    cache.get_or_warm(0x7C0B, [] {
      return snapshot::SnapshotBuilder(/*config_digest=*/0x7C0B).finish();
    });
  }
  std::string path;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    path = entry.path().string();
  }
  ASSERT_FALSE(path.empty());
  std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);

  int warmed = 0;
  harness::SnapshotCache cache;
  cache.set_file_bank(dir);
  const auto snapshot = cache.get_or_warm(0x7C0B, [&] {
    ++warmed;
    return snapshot::SnapshotBuilder(0x7C0B).finish();
  });
  EXPECT_EQ(warmed, 1);
  EXPECT_EQ(cache.file_hits(), 0u);
  EXPECT_TRUE(audit::audit_snapshot(*snapshot).ok());
  std::filesystem::remove_all(dir);
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// A format bump must cost time, never correctness: a bank entry written by
// an older format version is rejected at load, the key rewarms, the file is
// republished in the current format, and the run matches a cold bank's.
TEST(SnapshotCache, StaleVersionBankEntryRewarmsAndRepublishes) {
  const std::string cold_dir = testing::TempDir() + "/bacp-snapbank-cold";
  const std::string stale_dir = testing::TempDir() + "/bacp-snapbank-stale";
  for (const auto& dir : {cold_dir, stale_dir}) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
  }
  const auto config = fast_config(sim::PolicyKind::BankAware);
  const auto mix = capacity_diverse_mix();
  constexpr std::uint64_t kWarmup = 300'000;

  harness::SnapshotCache cold_cache;
  cold_cache.set_file_bank(cold_dir);
  sim::System cold(config, mix);
  harness::warm_system(cold, mix, kWarmup, &cold_cache, /*shared_warmup=*/false);
  cold.run(400'000);
  std::string cold_path;
  for (const auto& entry : std::filesystem::directory_iterator(cold_dir)) {
    cold_path = entry.path().string();
  }
  ASSERT_FALSE(cold_path.empty());
  const auto published = read_file(cold_path);

  // The same key in the stale bank holds a file stamped with the previous
  // format version — the skew every format bump actually produces.
  const std::string stale_path =
      stale_dir + "/" + std::filesystem::path(cold_path).filename().string();
  auto stale_bytes = published;
  const std::uint32_t old_version = snapshot::kVersion - 1;
  std::memcpy(stale_bytes.data() + 8, &old_version, sizeof(old_version));
  {
    std::ofstream out(stale_path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(stale_bytes.data()),
              static_cast<std::streamsize>(stale_bytes.size()));
  }
  snapshot::SystemSnapshot stale_snapshot;
  stale_snapshot.bytes = stale_bytes;
  EXPECT_FALSE(audit::audit_snapshot(stale_snapshot).ok());

  harness::SnapshotCache stale_cache;
  stale_cache.set_file_bank(stale_dir);
  sim::System rewarmed(config, mix);
  harness::warm_system(rewarmed, mix, kWarmup, &stale_cache, /*shared_warmup=*/false);
  EXPECT_EQ(stale_cache.file_hits(), 0u);
  EXPECT_EQ(stale_cache.misses(), 1u);
  rewarmed.run(400'000);
  EXPECT_EQ(rewarmed.results().to_json().dump(), cold.results().to_json().dump());
  EXPECT_EQ(read_file(stale_path), published);

  for (const auto& dir : {cold_dir, stale_dir}) std::filesystem::remove_all(dir);
}

TEST(SnapshotCache, VariantSweepForksOneWarmupInSharedMode) {
  const auto mix = capacity_diverse_mix();
  std::vector<harness::SweepVariant> variants;
  for (const Cycle epoch : {750'000ull, 1'500'000ull, 3'000'000ull}) {
    auto config = fast_config(sim::PolicyKind::BankAware);
    config.epoch_cycles = epoch;
    config.finalize();
    variants.push_back({std::to_string(epoch), config, 200'000});
  }
  harness::VariantSweepOptions options;
  options.num_threads = 3;
  options.shared_warmup = true;
  std::vector<std::uint64_t> misses(variants.size());
  harness::run_variant_sweep(variants, mix, options,
                             [&](sim::System& system, std::size_t index) {
                               system.run(400'000);
                               misses[index] = system.results().l2_misses();
                             });
  for (const std::uint64_t count : misses) EXPECT_GT(count, 0u);
}

}  // namespace
}  // namespace bacp

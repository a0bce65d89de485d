#include "msa/stack_profiler.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "snapshot/codec.hpp"
#include "trace/spec2000.hpp"
#include "trace/synthetic.hpp"

namespace bacp::msa {
namespace {

ProfilerConfig exact_config(std::uint32_t sets = 8, WayCount ways = 4) {
  ProfilerConfig config;
  config.num_sets = sets;
  config.set_sampling = 1;
  config.partial_tag_bits = 0;  // full tags
  config.profiled_ways = ways;
  return config;
}

/// Block in `set` with tag `t` for an 8-set view.
BlockAddress block(std::uint32_t set, std::uint64_t tag) { return tag * 8 + set; }

TEST(StackProfiler, FirstTouchIsAMiss) {
  StackProfiler profiler(exact_config());
  profiler.observe(block(0, 1));
  EXPECT_EQ(profiler.histogram().bin(4), 1u);  // C(K+1) miss counter
  EXPECT_EQ(profiler.histogram().total(), 1u);
}

TEST(StackProfiler, ImmediateReuseHitsMru) {
  StackProfiler profiler(exact_config());
  profiler.observe(block(0, 1));
  profiler.observe(block(0, 1));
  EXPECT_EQ(profiler.histogram().bin(0), 1u);  // C1 == MRU position
}

TEST(StackProfiler, StackDistanceMatchesInterveningDistinctBlocks) {
  StackProfiler profiler(exact_config());
  profiler.observe(block(0, 1));
  profiler.observe(block(0, 2));
  profiler.observe(block(0, 3));
  profiler.observe(block(0, 1));  // two distinct blocks since -> depth 3 -> C3
  EXPECT_EQ(profiler.histogram().bin(2), 1u);
}

TEST(StackProfiler, BeyondDepthCountsAsMiss) {
  StackProfiler profiler(exact_config(8, 2));  // 2-deep stack
  profiler.observe(block(0, 1));
  profiler.observe(block(0, 2));
  profiler.observe(block(0, 3));
  profiler.observe(block(0, 1));  // fell off the 2-deep stack
  EXPECT_EQ(profiler.histogram().bin(2), 4u);  // all four count as misses
}

TEST(StackProfiler, SetsAreIndependentStacks) {
  StackProfiler profiler(exact_config());
  profiler.observe(block(0, 1));
  profiler.observe(block(1, 2));  // different set: no aging of set 0
  profiler.observe(block(0, 1));
  EXPECT_EQ(profiler.histogram().bin(0), 1u);  // still MRU in its own set
}

TEST(StackProfiler, SetSamplingIgnoresUnsampledSets) {
  ProfilerConfig config = exact_config(8, 4);
  config.set_sampling = 4;  // only sets 0 and 4 are monitored
  StackProfiler profiler(config);
  profiler.observe(block(1, 1));
  profiler.observe(block(2, 1));
  profiler.observe(block(3, 1));
  EXPECT_EQ(profiler.sampled_accesses(), 0u);
  EXPECT_EQ(profiler.observed_accesses(), 3u);
  profiler.observe(block(0, 1));
  profiler.observe(block(4, 1));
  EXPECT_EQ(profiler.sampled_accesses(), 2u);
}

TEST(StackProfiler, CurveScalesBackBySamplingFactor) {
  ProfilerConfig config = exact_config(8, 4);
  config.set_sampling = 4;
  StackProfiler profiler(config);
  profiler.observe(block(0, 1));
  profiler.observe(block(4, 2));
  // 2 sampled misses scaled by 4 -> the curve estimates 8 accesses.
  EXPECT_DOUBLE_EQ(profiler.curve().total(), 8.0);
}

TEST(StackProfiler, DecayHalvesHistogram) {
  StackProfiler profiler(exact_config());
  for (int i = 0; i < 10; ++i) profiler.observe(block(0, 1));
  profiler.decay();
  // 1 miss + 9 MRU hits -> after decay: floor(9/2) = 4 hits.
  EXPECT_EQ(profiler.histogram().bin(0), 4u);
}

TEST(StackProfiler, ClearResetsEverything) {
  StackProfiler profiler(exact_config());
  profiler.observe(block(0, 1));
  profiler.observe(block(0, 1));
  profiler.clear();
  EXPECT_EQ(profiler.histogram().total(), 0u);
  EXPECT_EQ(profiler.observed_accesses(), 0u);
  // The stack is cleared too: the next touch is a fresh miss.
  profiler.observe(block(0, 1));
  EXPECT_EQ(profiler.histogram().bin(4), 1u);
}

/// Pins the stored-tag geometry: the partial tag hashes the bits *above*
/// the set index (with the set shift derived from num_sets once at
/// construction), so set bits never leak into the tag and tag bits are
/// never dropped. Regression test for the per-observe log2 recompute fix.
TEST(StackProfiler, StoredTagStripsExactlyTheSetIndexBits) {
  ProfilerConfig config = exact_config(64, 4);
  config.partial_tag_bits = 16;
  StackProfiler profiler(config);

  // Same tag bits, same set: a genuine reuse -> MRU hit.
  profiler.observe(7 * 64 + 3);
  profiler.observe(7 * 64 + 3);
  EXPECT_EQ(profiler.histogram().bin(0), 1u);

  // Same tag bits, different (sampled) set: distinct stacks, both misses,
  // and neither ages the other's stack.
  StackProfiler across_sets(config);
  across_sets.observe(7 * 64 + 0);
  across_sets.observe(7 * 64 + 1);
  across_sets.observe(7 * 64 + 0);
  EXPECT_EQ(across_sets.histogram().bin(0), 1u);  // still MRU in set 0
  EXPECT_EQ(across_sets.histogram().bin(4), 2u);  // one cold miss per set

  // Different tag bits, same set: distinct entries (16-bit tags over a
  // 6-bit tag distance cannot alias these), so no false hit.
  StackProfiler across_tags(config);
  across_tags.observe(7 * 64 + 3);
  across_tags.observe(8 * 64 + 3);
  EXPECT_EQ(across_tags.histogram().bin(4), 2u);
  EXPECT_EQ(across_tags.histogram().bin(0), 0u);
}

TEST(StackProfiler, PartialTagsCanAliasDistinctBlocks) {
  ProfilerConfig config = exact_config(2, 8);
  config.partial_tag_bits = 2;  // tiny tags force aliasing
  StackProfiler profiler(config);
  int false_hits = 0;
  for (std::uint64_t t = 0; t < 64; ++t) {
    profiler.observe(t * 2);  // set 0, all distinct blocks
  }
  // With 2-bit tags only 4 distinct entries exist: most "distinct" blocks
  // alias onto an existing entry and are recorded as (false) hits.
  for (std::size_t depth = 0; depth < 8; ++depth) {
    false_hits += static_cast<int>(profiler.histogram().bin(depth));
  }
  EXPECT_GT(false_hits, 30);
}

/// Accuracy property (the paper's Section III-A claim): the production
/// configuration — 12-bit tags, 1-in-32 sampling — projects miss curves
/// within ~5% of the full-tag reference.
TEST(StackProfiler, ProductionConfigWithinFivePercentOfReference) {
  const auto& model = trace::spec2000_by_name("bzip2");
  trace::GeneratorConfig generator_config;  // 2048 sets, 128 depth
  trace::SyntheticTraceGenerator generator(model, generator_config, 33);

  ProfilerConfig reference_config = exact_config(2048, 72);
  StackProfiler reference(reference_config);
  ProfilerConfig production_config;
  production_config.num_sets = 2048;
  production_config.set_sampling = 32;
  production_config.partial_tag_bits = 12;
  production_config.profiled_ways = 72;
  StackProfiler production(production_config);

  for (int i = 0; i < 600000; ++i) {
    const auto b = generator.next().block;
    reference.observe(b);
    production.observe(b);
  }
  const auto reference_curve = reference.curve();
  const auto production_curve = production.curve();
  for (WayCount w : {4u, 8u, 16u, 32u, 48u, 64u, 72u}) {
    const double ref = reference_curve.miss_ratio(w);
    const double got = production_curve.miss_ratio(w);
    EXPECT_NEAR(got, ref, 0.05 * ref + 0.02) << "at " << w << " ways";
  }
}

std::vector<std::uint8_t> saved_state(const StackProfiler& profiler) {
  std::vector<std::uint8_t> bytes;
  snapshot::Writer writer(bytes);
  profiler.save_state(writer);
  return bytes;
}

// observe_batch is the column form replay drivers call; counters and stacks
// must end byte-identical to per-element observe(), for pow2 and modulo
// sampling, full and partial tags, and long batches.
TEST(StackProfiler, ObserveBatchMatchesPerElementObserve) {
  struct Shape {
    std::uint32_t sets, sampling, tag_bits;
    WayCount ways;
  };
  for (const Shape shape : {Shape{64, 1, 0, 16}, Shape{256, 8, 12, 24},
                            Shape{2048, 32, 12, 72}, Shape{128, 3, 9, 8}}) {
    ProfilerConfig config;
    config.num_sets = shape.sets;
    config.set_sampling = shape.sampling;
    config.partial_tag_bits = shape.tag_bits;
    config.profiled_ways = shape.ways;
    StackProfiler batched(config);
    StackProfiler scalar(config);
    common::Rng rng(shape.sets * 31 + shape.sampling);
    std::vector<BlockAddress> pool;
    for (const std::uint32_t count : {1u, 7u, 64u, 256u, 300u, 1000u}) {
      std::vector<BlockAddress> blocks(count);
      for (auto& block : blocks) {
        if (!pool.empty() && rng.next_bool(0.75)) {
          block = pool[rng.next_below(pool.size())];
        } else {
          block = rng.next_u64() & 0xFFFFFF;
          pool.push_back(block);
        }
        scalar.observe(block);
      }
      batched.observe_batch(blocks.data(), count);
      ASSERT_EQ(saved_state(batched), saved_state(scalar))
          << "sets " << shape.sets << " sampling " << shape.sampling << " count " << count;
    }
  }
}

}  // namespace
}  // namespace bacp::msa

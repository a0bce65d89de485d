#include "cache/partial_tag.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

namespace bacp::cache {
namespace {

TEST(PartialTag, Deterministic) {
  EXPECT_EQ(partial_tag(0xDEADBEEF, 12), partial_tag(0xDEADBEEF, 12));
}

TEST(PartialTag, FitsWidth) {
  for (std::uint32_t width : {1u, 4u, 8u, 12u, 16u, 20u, 31u}) {
    for (std::uint64_t tag = 0; tag < 1000; ++tag) {
      EXPECT_LT(partial_tag(tag, width), 1u << width) << "width " << width;
    }
  }
}

TEST(PartialTag, WidthClampedAt32) {
  // width >= 32 uses all 32 output bits; must not shift by >= 64.
  EXPECT_EQ(partial_tag(123, 32), partial_tag(123, 40));
}

TEST(PartialTag, MixesLowBitPatterns) {
  // Sequential tags (the common streaming pattern) must spread across the
  // hash space rather than collide in runs.
  std::set<std::uint32_t> values;
  for (std::uint64_t tag = 0; tag < 4096; ++tag) values.insert(partial_tag(tag, 12));
  EXPECT_GT(values.size(), 2500u);  // near-uniform occupancy of 4096 buckets
}

TEST(PartialTag, AliasingRateMatchesWidth) {
  // With w bits, random distinct tags collide at roughly the birthday rate;
  // at 12 bits and 1000 tags expect some but bounded aliasing.
  std::map<std::uint32_t, int> buckets;
  constexpr int kTags = 1000;
  for (std::uint64_t tag = 0; tag < kTags; ++tag) {
    ++buckets[partial_tag(tag * 2654435761ull, 12)];
  }
  int collisions = 0;
  for (const auto& [value, count] : buckets) collisions += count - 1;
  EXPECT_GT(collisions, 10);   // partial tags do alias (the 5%-error source)
  EXPECT_LT(collisions, 300);  // but not pathologically
}

TEST(PartialTag, WiderTagsAliasLess) {
  auto collisions_at = [](std::uint32_t width) {
    std::map<std::uint32_t, int> buckets;
    for (std::uint64_t tag = 0; tag < 2000; ++tag) {
      ++buckets[partial_tag(tag * 0x9E3779B97F4A7C15ull + 7, width)];
    }
    int collisions = 0;
    for (const auto& [value, count] : buckets) collisions += count - 1;
    return collisions;
  };
  EXPECT_GT(collisions_at(8), collisions_at(16));
}

}  // namespace
}  // namespace bacp::cache

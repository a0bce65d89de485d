#include "common/flat_hash.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "coherence/moesi.hpp"
#include "common/rng.hpp"
#include "nuca/dnuca_cache.hpp"

namespace bacp::common {
namespace {

// The two per-access indices keep four slots per cache line: a u64 key, a
// value of at most 6 bytes and the 2-byte generation stamp.
static_assert(nuca::DnucaCache::ResidencyIndex::kSlotBytes == 16);
static_assert(coherence::MoesiDirectory::EntryIndex::kSlotBytes == 16);

TEST(FlatHash64, InsertFindErase) {
  FlatHash64<int> map;
  EXPECT_TRUE(map.empty());
  map.insert_or_assign(42, 7);
  ASSERT_NE(map.find(42), nullptr);
  EXPECT_EQ(*map.find(42), 7);
  EXPECT_EQ(map.find(43), nullptr);

  map.insert_or_assign(42, 9);  // overwrite, not duplicate
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(*map.find(42), 9);

  EXPECT_TRUE(map.erase(42));
  EXPECT_FALSE(map.erase(42));
  EXPECT_EQ(map.find(42), nullptr);
  EXPECT_TRUE(map.empty());
}

TEST(FlatHash64, FindOrEmplaceDefaultConstructs) {
  FlatHash64<std::uint64_t> map;
  std::uint64_t& value = map.find_or_emplace(5);
  EXPECT_EQ(value, 0u);
  value = 99;
  EXPECT_EQ(map.find_or_emplace(5), 99u);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatHash64, GrowsPastInitialCapacityAndKeepsEntries) {
  FlatHash64<std::uint64_t> map;
  for (std::uint64_t key = 0; key < 10'000; ++key) {
    map.insert_or_assign(key * 0x10001, key);
  }
  ASSERT_EQ(map.size(), 10'000u);
  for (std::uint64_t key = 0; key < 10'000; ++key) {
    const auto* value = map.find(key * 0x10001);
    ASSERT_NE(value, nullptr) << key;
    EXPECT_EQ(*value, key);
  }
}

TEST(FlatHash64, ReservePreventsRehash) {
  FlatHash64<int> map;
  map.reserve(1000);
  const std::size_t capacity = map.capacity();
  for (std::uint64_t key = 0; key < 1000; ++key) map.insert_or_assign(key, 1);
  EXPECT_EQ(map.capacity(), capacity);
}

TEST(FlatHash64, ClearEmptiesButKeepsCapacity) {
  FlatHash64<int> map;
  for (std::uint64_t key = 0; key < 100; ++key) map.insert_or_assign(key, 1);
  const std::size_t capacity = map.capacity();
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.capacity(), capacity);
  EXPECT_EQ(map.find(5), nullptr);
  map.insert_or_assign(5, 3);
  EXPECT_EQ(*map.find(5), 3);
}

// clear() bumps a 16-bit generation and sweeps the slab only when it
// wraps. Entries stamped with the first generation stay in the slab
// untouched, so without that sweep they would read as live again 65,535
// clears later: drive the table past the wrap and require every
// generation to start empty.
TEST(FlatHash64, GenerationWraparoundNeverResurrectsEntries) {
  FlatHash64<std::uint64_t> map;
  for (std::uint64_t key = 1; key <= 8; ++key) map.insert_or_assign(key, key);
  for (std::uint32_t round = 0; round < 70'000; ++round) {
    map.clear();
    ASSERT_TRUE(map.empty()) << "round " << round;
    for (std::uint64_t key = 1; key <= 8; ++key) {
      ASSERT_EQ(map.find(key), nullptr) << "round " << round << " key " << key;
    }
    std::size_t visited = 0;
    map.for_each([&](std::uint64_t, std::uint64_t) { ++visited; });
    ASSERT_EQ(visited, 0u) << "round " << round;
  }
  for (std::uint64_t key = 1; key <= 40; ++key) map.insert_or_assign(key, key * 3);
  EXPECT_EQ(map.size(), 40u);
  std::uint64_t visited = 0;
  map.for_each([&](std::uint64_t key, std::uint64_t value) {
    ++visited;
    EXPECT_GE(key, 1u);
    EXPECT_LE(key, 40u);
    EXPECT_EQ(value, key * 3);
  });
  EXPECT_EQ(visited, 40u);
  ASSERT_NE(map.find(7), nullptr);
  EXPECT_EQ(*map.find(7), 21u);
  EXPECT_EQ(map.find(41), nullptr);
}

// Entries of the previous generation still sit in the slab after clear():
// probe runs, backward-shift erase and reinsertion must all treat them as
// empty. A small key universe keeps every run long and colliding.
TEST(FlatHash64, EraseAndReinsertAfterClearMatchesStdUnorderedMap) {
  FlatHash64<std::uint32_t> map;
  std::unordered_map<std::uint64_t, std::uint32_t> reference;
  Rng rng(99, 0);
  constexpr std::uint64_t kUniverse = 64;
  for (std::uint32_t step = 0; step < 100'000; ++step) {
    const std::uint64_t key = rng.next_below(kUniverse) * 0x9E3779B9ull;
    switch (rng.next_below(16)) {
      case 0: {
        map.clear();
        reference.clear();
        break;
      }
      case 1:
      case 2:
      case 3:
      case 4:
      case 5:
      case 6: {
        map.insert_or_assign(key, step);
        reference[key] = step;
        break;
      }
      case 7:
      case 8:
      case 9:
      case 10: {
        EXPECT_EQ(map.erase(key), reference.erase(key) > 0) << "step " << step;
        break;
      }
      default: {
        const auto* found = map.find(key);
        const auto it = reference.find(key);
        ASSERT_EQ(found != nullptr, it != reference.end()) << "step " << step;
        if (found != nullptr) {
          EXPECT_EQ(*found, it->second) << "step " << step;
        }
        break;
      }
    }
    ASSERT_EQ(map.size(), reference.size()) << "step " << step;
  }
  std::size_t visited = 0;
  map.for_each([&](std::uint64_t key, std::uint32_t value) {
    ++visited;
    const auto it = reference.find(key);
    ASSERT_NE(it, reference.end()) << "key " << key;
    EXPECT_EQ(value, it->second);
  });
  EXPECT_EQ(visited, reference.size());
}

// insert_distinct is the bulk-load path: same contents as one
// insert_or_assign per key, across more keys than its prefetch distance,
// into a stale (cleared) slab, and growing when the caller did not reserve.
TEST(FlatHash64, InsertDistinctMatchesOneByOneInserts) {
  std::vector<std::uint64_t> keys;
  std::vector<std::uint32_t> values;
  for (std::uint32_t i = 0; i < 3'000; ++i) {
    keys.push_back((std::uint64_t{i} * 0x10001) ^ 0x5A5A);
    values.push_back(i * 7);
  }
  FlatHash64<std::uint32_t> bulk;
  for (std::uint64_t key = 0; key < 500; ++key) bulk.insert_or_assign(key + (1ull << 40), 1);
  bulk.clear();
  bulk.insert_distinct(keys.data(), values.data(), 5);
  bulk.insert_distinct(keys.data() + 5, values.data() + 5, keys.size() - 5);
  bulk.insert_distinct(keys.data(), values.data(), 0);
  ASSERT_EQ(bulk.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto* found = bulk.find(keys[i]);
    ASSERT_NE(found, nullptr) << i;
    EXPECT_EQ(*found, values[i]);
  }
  EXPECT_EQ(bulk.find(1ull << 40), nullptr);
  // A table reserved for the load never rehashes during it.
  FlatHash64<std::uint32_t> reserved;
  reserved.reserve(keys.size());
  const std::size_t capacity = reserved.capacity();
  reserved.insert_distinct(keys.data(), values.data(), keys.size());
  EXPECT_EQ(reserved.capacity(), capacity);
  EXPECT_EQ(reserved.size(), keys.size());
}

/// Backward-shift deletion is the delicate part: hammer the table with a
/// random insert/erase/lookup mix and require exact agreement with
/// std::unordered_map at every step.
TEST(FlatHash64, RandomizedAgainstStdUnorderedMap) {
  FlatHash64<std::uint32_t> map;
  std::unordered_map<std::uint64_t, std::uint32_t> reference;
  Rng rng(1234, 0);
  // A small key universe forces constant collisions, erasures of displaced
  // entries and reinsertions into freshly shifted runs.
  constexpr std::uint64_t kUniverse = 512;
  for (std::uint32_t step = 0; step < 200'000; ++step) {
    const std::uint64_t key = rng.next_below(kUniverse) * 0x9E3779B9ull;
    switch (rng.next_below(4)) {
      case 0:
      case 1: {
        map.insert_or_assign(key, step);
        reference[key] = step;
        break;
      }
      case 2: {
        EXPECT_EQ(map.erase(key), reference.erase(key) > 0) << "step " << step;
        break;
      }
      default: {
        const auto* found = map.find(key);
        const auto it = reference.find(key);
        ASSERT_EQ(found != nullptr, it != reference.end()) << "step " << step;
        if (found != nullptr) {
          EXPECT_EQ(*found, it->second) << "step " << step;
        }
        break;
      }
    }
    ASSERT_EQ(map.size(), reference.size()) << "step " << step;
  }
  // Full sweep at the end: every key agrees.
  for (std::uint64_t raw = 0; raw < kUniverse; ++raw) {
    const std::uint64_t key = raw * 0x9E3779B9ull;
    const auto* found = map.find(key);
    const auto it = reference.find(key);
    ASSERT_EQ(found != nullptr, it != reference.end()) << "key " << key;
    if (found != nullptr) {
      EXPECT_EQ(*found, it->second);
    }
  }
}

}  // namespace
}  // namespace bacp::common

// Oracle tests for the analytic kernels in common/simd.hpp (mu_scan,
// miss_counts): the AVX2 kernel and the dispatched entry point are checked
// against the scalar reference on randomized curves, bit for bit (memcmp on
// the doubles), across the lane-count, tail, clamp and empty-curve shapes
// the allocation search produces. On hosts without AVX2 the _avx2 symbols
// are the portable fallbacks, so the comparisons stay valid but trivial.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"

namespace bacp {
namespace {

using common::simd::Tier;

bool host_runs_avx2() {
#if defined(__x86_64__) || defined(_M_X64)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

/// A random miss-ratio curve in raw form: `size` non-decreasing prefix hit
/// counts with fractional parts (so every divide rounds), and a total at or
/// above the deepest prefix.
struct RawCurve {
  std::vector<double> prefix;
  double total = 0.0;
};

RawCurve random_curve(common::Rng& rng, std::size_t size) {
  RawCurve curve;
  double hits = 0.0;
  for (std::size_t i = 0; i < size; ++i) {
    hits += rng.next_double() * 1000.0;
    curve.prefix.push_back(hits);
  }
  curve.total = hits + rng.next_double() * 5000.0 + 1.0;
  return curve;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(SimdTier, ActiveTierFollowsCpu) {
  EXPECT_EQ(common::simd::active_tier(), host_runs_avx2() ? Tier::Avx2 : Tier::Scalar);
  EXPECT_STREQ(common::simd::to_string(Tier::Avx2), "avx2");
  EXPECT_STREQ(common::simd::to_string(Tier::Scalar), "scalar");
}

TEST(SimdMuScan, MatchesScalarBitForBit) {
  common::Rng rng(0x5CA7);
  for (const std::size_t size : {0u, 1u, 3u, 8u, 16u, 33u}) {
    for (std::uint32_t round = 0; round < 50; ++round) {
      const RawCurve curve = random_curve(rng, size);
      const auto inside = static_cast<std::uint32_t>(size == 0 ? 0 : rng.next_below(size));
      const auto past = static_cast<std::uint32_t>(size + rng.next_below(4));
      for (const std::uint32_t current : {0u, inside, past}) {
        for (const std::uint32_t max_extra : {1u, 3u, 4u, 5u, 31u}) {
          std::vector<double> scalar(max_extra, 0.0);
          std::vector<double> avx2(max_extra, -1.0);
          std::vector<double> dispatched(max_extra, -2.0);
          common::simd::detail::mu_scan_scalar(curve.prefix.data(), size, curve.total,
                                               current, max_extra, scalar.data());
          common::simd::detail::mu_scan_avx2(curve.prefix.data(), size, curve.total,
                                             current, max_extra, avx2.data());
          common::simd::mu_scan(curve.prefix.data(), size, curve.total, current,
                                max_extra, dispatched.data());
          ASSERT_TRUE(same_bits(scalar, avx2))
              << "size " << size << " current " << current << " max_extra " << max_extra;
          ASSERT_TRUE(same_bits(scalar, dispatched))
              << "size " << size << " current " << current << " max_extra " << max_extra;
        }
      }
    }
  }
}

TEST(SimdMissCounts, MatchesScalarBitForBit) {
  common::Rng rng(0x3155);
  std::uint32_t zero_ways = 0;
  std::uint32_t empty_curves = 0;
  std::uint32_t past_end = 0;
  for (std::size_t count = 1; count <= 9; ++count) {
    for (std::uint32_t round = 0; round < 200; ++round) {
      std::vector<RawCurve> curves;
      std::vector<const double*> prefixes;
      std::vector<std::uint32_t> sizes;
      std::vector<double> totals;
      std::vector<std::uint32_t> ways;
      for (std::size_t lane = 0; lane < count; ++lane) {
        const auto size = static_cast<std::uint32_t>(rng.next_below(3) == 0
                                                         ? 0
                                                         : 1 + rng.next_below(16));
        curves.push_back(random_curve(rng, size));
        sizes.push_back(size);
        totals.push_back(curves.back().total);
        ways.push_back(static_cast<std::uint32_t>(rng.next_below(size + 4)));
        zero_ways += ways.back() == 0 ? 1u : 0u;
        empty_curves += size == 0 ? 1u : 0u;
        past_end += ways.back() > size && size > 0 ? 1u : 0u;
      }
      for (const RawCurve& curve : curves) prefixes.push_back(curve.prefix.data());
      std::vector<double> scalar(count, 0.0);
      std::vector<double> avx2(count, -1.0);
      std::vector<double> dispatched(count, -2.0);
      common::simd::detail::miss_counts_scalar(prefixes.data(), sizes.data(),
                                               totals.data(), ways.data(), count,
                                               scalar.data());
      common::simd::detail::miss_counts_avx2(prefixes.data(), sizes.data(),
                                             totals.data(), ways.data(), count,
                                             avx2.data());
      common::simd::miss_counts(prefixes.data(), sizes.data(), totals.data(), ways.data(),
                                count, dispatched.data());
      ASSERT_TRUE(same_bits(scalar, avx2)) << "count " << count;
      ASSERT_TRUE(same_bits(scalar, dispatched)) << "count " << count;
    }
  }
  // The randomized lanes must actually reach every clamp branch.
  EXPECT_GT(zero_ways, 0u);
  EXPECT_GT(empty_curves, 0u);
  EXPECT_GT(past_end, 0u);
}

}  // namespace
}  // namespace bacp

#include "common/simd.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define BACP_X86 1
#endif

namespace bacp::common::simd {

const char* to_string(Tier tier) {
  switch (tier) {
    case Tier::Scalar: return "scalar";
    case Tier::Avx2: return "avx2";
  }
  return "?";
}

Tier active_tier() {
#ifdef BACP_X86
  static const Tier tier =
      __builtin_cpu_supports("avx2") != 0 ? Tier::Avx2 : Tier::Scalar;
  return tier;
#else
  return Tier::Scalar;
#endif
}

namespace detail {

#ifdef BACP_X86

__attribute__((target("avx2"))) void mu_scan_avx2(const double* prefix_hits,
                                                  std::size_t size, double total,
                                                  std::uint32_t current,
                                                  std::uint32_t max_extra,
                                                  double* out) {
  const double base =
      (current == 0 || size == 0)
          ? total
          : total - prefix_hits[(current < size ? current : size) - 1];
  const __m256d vbase = _mm256_set1_pd(base);
  const __m256d vtotal = _mm256_set1_pd(total);
  const __m256d vstep = _mm256_set1_pd(4.0);
  // Contiguous region: current + n <= size, so the lane loads walk
  // prefix_hits linearly. Each lane replays the scalar op sequence
  // (sub, sub, div) on the same operands — bit-identical, just 4-wide.
  const std::uint32_t contiguous =
      size > current
          ? (max_extra < static_cast<std::uint32_t>(size - current)
                 ? max_extra
                 : static_cast<std::uint32_t>(size - current))
          : 0;
  std::uint32_t n = 1;
  __m256d vn = _mm256_set_pd(4.0, 3.0, 2.0, 1.0);
  for (; n + 3 <= contiguous; n += 4) {
    const __m256d p = _mm256_loadu_pd(prefix_hits + current + n - 1);
    const __m256d at_w = _mm256_sub_pd(vtotal, p);
    const __m256d removed = _mm256_sub_pd(vbase, at_w);
    _mm256_storeu_pd(out + n - 1, _mm256_div_pd(removed, vn));
    vn = _mm256_add_pd(vn, vstep);
  }
  for (; n <= contiguous; ++n) {
    const double at_w = total - prefix_hits[current + n - 1];
    out[n - 1] = (base - at_w) / static_cast<double>(n);
  }
  if (n > max_extra) return;
  // Clamped region: current + n > size, so miss(current + n) is the
  // constant deep-miss floor and only the divisor varies per lane.
  const double at_deep = size == 0 ? total : total - prefix_hits[size - 1];
  const double removed_deep = base - at_deep;
  const __m256d vremoved = _mm256_set1_pd(removed_deep);
  vn = _mm256_set_pd(static_cast<double>(n + 3), static_cast<double>(n + 2),
                     static_cast<double>(n + 1), static_cast<double>(n));
  for (; n + 3 <= max_extra; n += 4) {
    _mm256_storeu_pd(out + n - 1, _mm256_div_pd(vremoved, vn));
    vn = _mm256_add_pd(vn, vstep);
  }
  for (; n <= max_extra; ++n) {
    out[n - 1] = removed_deep / static_cast<double>(n);
  }
}

__attribute__((target("avx2"))) void miss_counts_avx2(
    const double* const* prefixes, const std::uint32_t* sizes, const double* totals,
    const std::uint32_t* ways, std::size_t count, double* out) {
  // The prefix reads are per-lane gathers from distinct curve arrays, so
  // they stay scalar; the clamp-select and subtract run 4-wide. Lanes are
  // independent IEEE ops — bit-identical to the scalar reference.
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    double gathered[4];
    double zero_mask[4];
    for (std::size_t lane = 0; lane < 4; ++lane) {
      const std::uint32_t w = ways[i + lane];
      const std::uint32_t s = sizes[i + lane];
      if (w == 0 || s == 0) {
        gathered[lane] = 0.0;
        zero_mask[lane] = 0.0;
      } else {
        gathered[lane] = prefixes[i + lane][(w < s ? w : s) - 1];
        zero_mask[lane] = 1.0;
      }
    }
    const __m256d vtotal = _mm256_loadu_pd(totals + i);
    const __m256d vprefix =
        _mm256_mul_pd(_mm256_loadu_pd(gathered), _mm256_loadu_pd(zero_mask));
    _mm256_storeu_pd(out + i, _mm256_sub_pd(vtotal, vprefix));
  }
  for (; i < count; ++i) {
    if (ways[i] == 0 || sizes[i] == 0) {
      out[i] = totals[i];
    } else {
      out[i] = totals[i] - prefixes[i][(ways[i] < sizes[i] ? ways[i] : sizes[i]) - 1];
    }
  }
}

#else  // !BACP_X86: keep the symbols, route to scalar.

void mu_scan_avx2(const double* prefix_hits, std::size_t size, double total,
                  std::uint32_t current, std::uint32_t max_extra, double* out) {
  mu_scan_scalar(prefix_hits, size, total, current, max_extra, out);
}

void miss_counts_avx2(const double* const* prefixes, const std::uint32_t* sizes,
                      const double* totals, const std::uint32_t* ways,
                      std::size_t count, double* out) {
  miss_counts_scalar(prefixes, sizes, totals, ways, count, out);
}

#endif  // BACP_X86

}  // namespace detail

}  // namespace bacp::common::simd

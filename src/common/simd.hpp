#pragma once

#include <cstddef>
#include <cstdint>

namespace bacp::common::simd {

/// Vector instruction tier of the analytic kernels (mu_scan, miss_counts).
/// One binary serves every host: the AVX2 kernels are compiled with a
/// function-level target attribute and only ever called after a runtime
/// CPUID check.
enum class Tier : std::uint8_t {
  Scalar = 0,
  Avx2 = 1,
};

const char* to_string(Tier tier);

/// The active tier: AVX2 if the CPU reports it, else scalar. Resolved once
/// per process; the kernels are bit-identical across tiers.
Tier active_tier();

namespace detail {

/// Scalar reference for mu_scan. The float op sequence per lane —
/// B = total - prefix[clamped], removed = A - B, removed / n — must match
/// partition::marginal_utility over msa::MissRatioCurve::miss_count exactly;
/// the AVX2 kernel replays the identical per-lane IEEE ops (sub, sub, div
/// are correctly rounded and width-independent), so results are
/// bit-identical across tiers.
inline void mu_scan_scalar(const double* prefix_hits, std::size_t size, double total,
                           std::uint32_t current, std::uint32_t max_extra,
                           double* out) {
  const double base =
      (current == 0 || size == 0)
          ? total
          : total - prefix_hits[(current < size ? current : size) - 1];
  for (std::uint32_t n = 1; n <= max_extra; ++n) {
    const std::uint32_t w = current + n;
    const double at_w =
        size == 0 ? total : total - prefix_hits[(w < size ? w : size) - 1];
    out[n - 1] = (base - at_w) / static_cast<double>(n);
  }
}

void mu_scan_avx2(const double* prefix_hits, std::size_t size, double total,
                  std::uint32_t current, std::uint32_t max_extra, double* out);

/// Scalar reference for miss_counts: out[i] = projected miss count of lane
/// i's curve at ways[i], the clamped-prefix lookup of
/// msa::MissRatioCurve::miss_count in struct-of-arrays form.
inline void miss_counts_scalar(const double* const* prefixes,
                               const std::uint32_t* sizes, const double* totals,
                               const std::uint32_t* ways, std::size_t count,
                               double* out) {
  for (std::size_t i = 0; i < count; ++i) {
    if (ways[i] == 0 || sizes[i] == 0) {
      out[i] = totals[i];
    } else {
      const std::uint32_t idx = (ways[i] < sizes[i] ? ways[i] : sizes[i]) - 1;
      out[i] = totals[i] - prefixes[i][idx];
    }
  }
}

void miss_counts_avx2(const double* const* prefixes, const std::uint32_t* sizes,
                      const double* totals, const std::uint32_t* ways,
                      std::size_t count, double* out);

}  // namespace detail

/// Marginal-utility lookahead scan over one miss-ratio curve (the inner
/// kernel of the analytic allocation search): fills out[n-1] with
/// MU(current, n) = (miss(current) - miss(current + n)) / n for n in
/// [1, max_extra], where miss(w) = total - prefix_hits[min(w, size) - 1]
/// (miss(0) = total). `prefix_hits`/`size`/`total` are the raw curve
/// representation (msa::MissRatioCurve::prefix_hits()/total()). Division by
/// the true n is preserved — no reciprocal tricks — so each lane is the
/// bit-identical value partition::marginal_utility computes; the argmax
/// over the buffer stays with the caller, in index order.
inline void mu_scan(const double* prefix_hits, std::size_t size, double total,
                    std::uint32_t current, std::uint32_t max_extra, double* out) {
  if (max_extra >= 4 && active_tier() == Tier::Avx2) {
    detail::mu_scan_avx2(prefix_hits, size, total, current, max_extra, out);
  } else {
    detail::mu_scan_scalar(prefix_hits, size, total, current, max_extra, out);
  }
}

/// Batched clamped-prefix miss-count lookup (partition::projected_total_
/// misses): out[i] = totals[i] - prefixes[i][min(ways[i], sizes[i]) - 1],
/// or totals[i] when lane i has zero ways or an empty curve. Lanes are
/// independent — the caller keeps its in-order summation, which is the
/// determinism contract on every projected-miss artifact.
inline void miss_counts(const double* const* prefixes, const std::uint32_t* sizes,
                        const double* totals, const std::uint32_t* ways,
                        std::size_t count, double* out) {
  if (count >= 4 && active_tier() == Tier::Avx2) {
    detail::miss_counts_avx2(prefixes, sizes, totals, ways, count, out);
  } else {
    detail::miss_counts_scalar(prefixes, sizes, totals, ways, count, out);
  }
}

/// Software read-prefetch hint (a no-op where unsupported). The DNUCA
/// residency table is megabytes, so sim::System prefetches the probe lines
/// of each core's next buffered accesses, turning dependent cache misses
/// into overlapped ones.
inline void prefetch_read(const void* address) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(address, 0, 3);
#else
  (void)address;
#endif
}

}  // namespace bacp::common::simd

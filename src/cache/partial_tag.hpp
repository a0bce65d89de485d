#pragma once

#include <cstddef>
#include <cstdint>

#include "common/types.hpp"

namespace bacp::cache {

/// Truncated-tag identification (Kessler et al., "Inexpensive
/// implementations of set-associativity"). The MSA profiler and the
/// Parallel bank-aggregation directory both identify blocks by a small
/// hash of the tag instead of the full tag; distinct blocks may alias,
/// which is exactly the error source the profiler-accuracy ablation
/// quantifies.
///
/// The hash mixes all tag bits (Fibonacci multiplicative hashing) before
/// truncation so aliasing behaves like random collisions rather than
/// tracking low-bit address patterns.
inline std::uint32_t partial_tag(BlockAddress tag_bits, std::uint32_t width_bits) {
  if (width_bits >= 32) width_bits = 32;
  const std::uint64_t mixed = tag_bits * 0x9E3779B97F4A7C15ULL;
  return static_cast<std::uint32_t>(mixed >> (64 - width_bits));
}

/// Batched partial_tag over a contiguous tag-bits column: out[i] ==
/// partial_tag(tag_bits[i], width_bits), zero-extended to the 64-bit
/// entries the profiler stacks store. width_bits must be >= 1 (callers
/// branch to full tags at width 0, same as the scalar form).
inline void partial_tags(const BlockAddress* tag_bits, std::uint64_t* out,
                         std::size_t count, std::uint32_t width_bits) {
  for (std::size_t i = 0; i < count; ++i) out[i] = partial_tag(tag_bits[i], width_bits);
}

}  // namespace bacp::cache

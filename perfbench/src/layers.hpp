// Layer replay for the detailed matrix: one set's own generated stream fed
// through each layer's public entry point in isolation, so each layer's
// self time per call is measured without the System around it.
#pragma once

#include <cstdint>

#include "bench.hpp"
#include "sim/system_config.hpp"
#include "trace/mix.hpp"

namespace perfbench {

/// Accesses per batched call in the replay (the System's own batch depth).
inline constexpr std::uint32_t kReplayBatch = 64;

/// Replays `mix` under `none` (a NoPartition config) and `bank` (a BankAware
/// config), `instructions_per_core` instructions per core each. Records
/// spans "trace.next_batch", "cache.access", "coherence.fill",
/// "msa.observe_batch", "nuca.access_batch", "noc.request", "mem.read" and
/// "partition.bank_aware_partition". Returns a checksum of the replayed
/// outcomes so no call can be optimized away.
std::uint64_t replay_layers(const bacp::sim::SystemConfig& none,
                            const bacp::sim::SystemConfig& bank,
                            const bacp::trace::WorkloadMix& mix,
                            std::uint64_t instructions_per_core, Tracer& tracer);

/// Calls into each layer made during System::run, from the public stats.
struct RunCounts {
  double l1_accesses = 0.0;
  double l1_misses = 0.0;
  double l2_accesses = 0.0;
  double dram_reads = 0.0;
  double replans = 0.0;
};

/// Seconds the replayed per-call self times predict for `counts`. The NoC is
/// left out: DnucaCache calls it, so it is inside the nuca figure already.
double attributed_seconds(const Tracer& tracer, const RunCounts& counts);

}  // namespace perfbench

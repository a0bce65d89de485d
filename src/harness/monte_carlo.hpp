#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/args.hpp"
#include "obs/report.hpp"
#include "partition/partition_types.hpp"
#include "trace/mix.hpp"

namespace bacp::harness {

/// Configuration of the paper's Monte-Carlo methodology (Section IV-A):
/// random 8-workload mixes drawn with repetition from the 26-component
/// suite (a C(26+8-1, 8) ~ 14M state space), evaluated by MSA projection
/// rather than detailed simulation.
struct MonteCarloConfig {
  std::size_t trials = 1000;
  std::uint64_t seed = 2009;
  partition::CmpGeometry geometry;
  WayCount curve_depth = 128;
  std::size_t num_threads = 0;  ///< 0 = hardware concurrency
  /// Process sharding: trial t is owned by shard t % shards, so a sweep
  /// splits across machines without coordination. shards == 1 is the
  /// ordinary single-process sweep.
  std::uint32_t shards = 1;
  std::uint32_t shard_id = 0;
  /// Sampled-interval simulation (bacp::sampling): when > 0, every trial's
  /// mix is additionally run through the detailed simulator over
  /// `sampled_k` k-medoid-selected representative intervals and the full
  /// run is extrapolated with population weights and CIs. The analytic
  /// projection columns are computed either way; 0 = analytic only.
  std::uint32_t sampled_k = 0;
  std::uint32_t sampled_intervals = 96;
  std::uint64_t sampled_interval_instructions = 50'000;
  std::uint64_t sampled_warmup = 500'000;
  /// Directory for file-backed boundary snapshots shared across shard
  /// processes and repeated sweeps (SnapshotCache::set_file_bank); empty =
  /// in-memory reuse only. Sampled mode only — analytic trials never
  /// snapshot.
  std::string snapshot_bank;

  MonteCarloConfig& with_trials(std::size_t value) {
    trials = value;
    return *this;
  }
  MonteCarloConfig& with_seed(std::uint64_t value) {
    seed = value;
    return *this;
  }
  MonteCarloConfig& with_geometry(const partition::CmpGeometry& value) {
    geometry = value;
    return *this;
  }
  MonteCarloConfig& with_curve_depth(WayCount value) {
    curve_depth = value;
    return *this;
  }
  MonteCarloConfig& with_num_threads(std::size_t value) {
    num_threads = value;
    return *this;
  }
  MonteCarloConfig& with_shards(std::uint32_t value) {
    shards = value;
    return *this;
  }
  MonteCarloConfig& with_shard_id(std::uint32_t value) {
    shard_id = value;
    return *this;
  }
  MonteCarloConfig& with_sampled_k(std::uint32_t value) {
    sampled_k = value;
    return *this;
  }
  MonteCarloConfig& with_sampled_intervals(std::uint32_t value) {
    sampled_intervals = value;
    return *this;
  }
  MonteCarloConfig& with_sampled_interval_instructions(std::uint64_t value) {
    sampled_interval_instructions = value;
    return *this;
  }
  MonteCarloConfig& with_sampled_warmup(std::uint64_t value) {
    sampled_warmup = value;
    return *this;
  }
  MonteCarloConfig& with_snapshot_bank(std::string value) {
    snapshot_bank = std::move(value);
    return *this;
  }

  /// The standard sweep flags (--trials, --seed, --threads) for binaries
  /// that run the Monte-Carlo evaluation; pair with from_args().
  static std::vector<std::pair<std::string, std::string>> cli_flags();

  /// Builds a config from parsed flags. Precedence: explicit flag, then the
  /// legacy BACP_MC_{TRIALS,SEED} / BACP_THREADS environment knobs, then
  /// the built-in defaults.
  static MonteCarloConfig from_args(const common::ArgParser& parser);
};

/// One random mix, with projected total miss counts under the three
/// capacity assignments compared in Fig. 7.
struct TrialResult {
  trace::WorkloadMix mix;
  double fixed_share_misses = 0.0;   ///< static even split (16 ways/core)
  double unrestricted_misses = 0.0;  ///< UCP-style, no banking restrictions
  double bank_aware_misses = 0.0;    ///< the paper's scheme

  /// Sampled-interval detailed-simulation extrapolation for this mix
  /// (sampled_k > 0 sweeps only); `evaluated` distinguishes "sampling off"
  /// from a genuine zero estimate so merges cannot silently mix modes.
  struct SampledTrial {
    bool evaluated = false;
    double miss_ratio = 0.0;
    double miss_ratio_ci_half = 0.0;
    double cpi = 0.0;
    double cpi_ci_half = 0.0;
  };
  SampledTrial sampled;

  double unrestricted_ratio() const { return unrestricted_misses / fixed_share_misses; }
  double bank_aware_ratio() const { return bank_aware_misses / fixed_share_misses; }
};

struct MonteCarloSummary {
  std::vector<TrialResult> trials;
  double mean_unrestricted_ratio = 0.0;  ///< paper: ~0.70 (30% reduction)
  double mean_bank_aware_ratio = 0.0;    ///< paper: ~0.73 (27% reduction)
  /// Sampled-sweep headline means; stay zero when sampling is off.
  double mean_sampled_miss_ratio = 0.0;
  double mean_sampled_cpi = 0.0;
};

/// Runs the sweep across a thread pool. Deterministic for a fixed seed
/// regardless of thread count (per-trial RNG streams). With config.shards
/// > 1 only the owned slice (trial % shards == shard_id) is evaluated:
/// unowned entries of the returned summary stay default-initialized and the
/// headline means stay zero — shard_io's merge reassembles the full trial
/// vector from every shard's artifact and finalizes the combined summary,
/// so the merged report is byte-identical to an unsharded run.
MonteCarloSummary run_monte_carlo(const MonteCarloConfig& config);

/// Computes the headline mean ratios from a *complete* trial vector (every
/// slot evaluated). Shared by the unsharded path and the shard merge; the
/// zero-miss assert fires on any unevaluated slot, so a summary with holes
/// cannot be finalized by accident.
void finalize_monte_carlo(MonteCarloSummary& summary);

/// The canonical Fig. 7 result artifact: headline mean ratios, the outlier
/// count (mixes where bank-aware lost to the fixed split), a ratio
/// distribution summary, and the sweep parameters as meta. Byte-identical
/// for a fixed seed regardless of config.num_threads — the determinism
/// contract the observability layer is tested against.
obs::Report monte_carlo_report(const MonteCarloConfig& config,
                               const MonteCarloSummary& summary);

}  // namespace bacp::harness

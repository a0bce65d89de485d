// mc_analytic and mc_sampled: the Fig. 7 Monte-Carlo. One op is one
// harness::run_monte_carlo call over a fixed block of trials; every op of a
// run repeats the same trials, so every op must reproduce one digest.

#include <cmath>
#include <filesystem>
#include <map>

#include "bench.hpp"
#include "common/rng.hpp"
#include "harness/monte_carlo.hpp"
#include "harness/snapshot_cache.hpp"
#include "msa/miss_curve.hpp"
#include "partition/bank_aware.hpp"
#include "partition/unrestricted.hpp"
#include "sampling/sampled_run.hpp"
#include "sim/system.hpp"
#include "trace/spec2000.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

constexpr int kSetupRepetitions = 3;
// Analytic trials per op: ~0.1 s of work, so a run holds ~100 ops and
// their median is steady.
constexpr std::size_t kAnalyticTrials = 4'000;
// Sampled trials per op and the sampled-run shape: short intervals keep a
// trial around 0.1 s while preserving its cost shape (plan, bank load,
// restore around a small detailed interval). Trial cost depends on the
// mix, so an op spans 8 mixes to keep a seed's op cost near the mean.
constexpr std::size_t kSampledTrials = 8;
constexpr std::uint32_t kSampledK = 3;
constexpr std::uint32_t kSampledIntervals = 24;
constexpr std::uint64_t kSampledIntervalInstructions = 20'000;
constexpr std::uint64_t kSampledWarmup = 60'000;

bacp::harness::MonteCarloConfig analytic_config(std::uint64_t seed) {
  bacp::harness::MonteCarloConfig config;
  config.trials = kAnalyticTrials;
  config.seed = seed;
  config.num_threads = 1;
  return config;
}

bacp::harness::MonteCarloConfig sampled_config(std::uint64_t seed, std::string bank) {
  bacp::harness::MonteCarloConfig config;
  config.trials = kSampledTrials;
  config.seed = seed;
  config.num_threads = 1;
  config.sampled_k = kSampledK;
  config.sampled_intervals = kSampledIntervals;
  config.sampled_interval_instructions = kSampledIntervalInstructions;
  config.sampled_warmup = kSampledWarmup;
  config.snapshot_bank = std::move(bank);
  return config;
}

/// Summary means plus every trial's ratios (and sampled estimates).
std::uint64_t summary_digest(const bacp::harness::MonteCarloSummary& summary) {
  std::uint64_t h = kDigestBasis;
  h = fold_double(h, summary.mean_unrestricted_ratio);
  h = fold_double(h, summary.mean_bank_aware_ratio);
  h = fold_double(h, summary.mean_sampled_miss_ratio);
  h = fold_double(h, summary.mean_sampled_cpi);
  for (const auto& trial : summary.trials) {
    for (const std::size_t index : trial.mix.workload_indices) h = fold_u64(h, index);
    h = fold_double(h, trial.unrestricted_ratio());
    h = fold_double(h, trial.bank_aware_ratio());
    h = fold_double(h, trial.sampled.miss_ratio);
    h = fold_double(h, trial.sampled.miss_ratio_ci_half);
    h = fold_double(h, trial.sampled.cpi);
    h = fold_double(h, trial.sampled.cpi_ci_half);
  }
  return h;
}

/// Structural checks that hold for any seed.
void check_summary(const bacp::harness::MonteCarloConfig& config,
                   const bacp::harness::MonteCarloSummary& summary, Result& result) {
  if (summary.trials.size() != config.trials) result.fail_check("trial count");
  for (const auto& trial : summary.trials) {
    if (!(trial.fixed_share_misses > 0.0) || !std::isfinite(trial.bank_aware_ratio()) ||
        !std::isfinite(trial.unrestricted_ratio())) {
      result.fail_check("degenerate projected misses");
      return;
    }
    if (config.sampled_k > 0 &&
        (!trial.sampled.evaluated || !(trial.sampled.cpi > 0.0) ||
         !(trial.sampled.miss_ratio >= 0.0 && trial.sampled.miss_ratio <= 1.0))) {
      result.fail_check("sampled estimate out of range");
      return;
    }
  }
}

/// One op: run_monte_carlo, timed, digested and checked.
struct SweepRun {
  double seconds = 0.0;
  std::uint64_t allocs = 0;
  bacp::harness::MonteCarloSummary summary;
};

SweepRun sweep(const bacp::harness::MonteCarloConfig& config, Tracer& tracer) {
  SweepRun run;
  const std::uint64_t allocs_before = allocations();
  const double start = now_seconds();
  {
    Tracer::Scope span(tracer, "harness.run_monte_carlo");
    run.summary = bacp::harness::run_monte_carlo(config);
  }
  run.seconds = now_seconds() - start;
  run.allocs = allocations() - allocs_before;
  return run;
}

/// One checked op: a sweep, its digest against the pin and the set-up
/// reference, and the structural checks.
SweepRun checked_sweep(const bacp::harness::MonteCarloConfig& config, DigestCheck& digests,
                       Result& result, Tracer& tracer) {
  SweepRun run = sweep(config, tracer);
  ++result.attempted;
  if (!digests.check("sweep", summary_digest(run.summary))) ++result.failed;
  check_summary(config, run.summary, result);
  return run;
}

/// Independent recomputation of an analytic sweep through the public layer
/// calls run_monte_carlo is built from (random_mix, the suite's analytic
/// curves, the three capacity assignments and their projected misses),
/// with a span around each call. Returns false when any trial's mix or
/// projected misses differ from `summary`'s.
bool recompute_analytic(const bacp::harness::MonteCarloConfig& config,
                        const bacp::harness::MonteCarloSummary& summary, Tracer& tracer) {
  const auto& suite = bacp::trace::spec2000_suite();
  const auto cores = config.geometry.num_cores;
  std::vector<bacp::msa::MissRatioCurve> bank;
  {
    Tracer::Scope span(tracer, "msa.curve_bank");
    for (const auto& model : suite) {
      bank.push_back(bacp::msa::MissRatioCurve::from_model(model, config.curve_depth)
                         .scaled(model.l2_apki));
    }
  }
  const std::vector<bacp::WayCount> even(cores, config.geometry.total_ways() / cores);
  bool same = summary.trials.size() == config.trials;
  for (std::size_t t = 0; t < config.trials && same; ++t) {
    bacp::common::Rng rng(config.seed, t);
    bacp::trace::WorkloadMix mix;
    {
      Tracer::Scope span(tracer, "trace.random_mix");
      mix = bacp::trace::random_mix(rng, suite.size(), cores);
    }
    std::vector<const bacp::msa::MissRatioCurve*> curves;
    {
      Tracer::Scope span(tracer, "msa.curves_for_mix");
      curves.reserve(cores);
      for (const std::size_t index : mix.workload_indices) curves.push_back(&bank.at(index));
    }
    double fixed = 0.0, unrestricted = 0.0, bank_aware = 0.0;
    {
      Tracer::Scope span(tracer, "partition.projected_misses");
      fixed = bacp::partition::projected_total_misses(curves, even);
    }
    bacp::partition::Allocation allocation;
    {
      Tracer::Scope span(tracer, "partition.unrestricted");
      allocation = bacp::partition::unrestricted_partition(config.geometry, curves);
    }
    {
      Tracer::Scope span(tracer, "partition.projected_misses");
      unrestricted = bacp::partition::projected_total_misses(curves, allocation.ways_per_core);
    }
    bacp::partition::BankAwareCapacity capacity;
    {
      Tracer::Scope span(tracer, "partition.bank_aware_capacity");
      capacity = bacp::partition::bank_aware_capacity(config.geometry, curves);
    }
    {
      Tracer::Scope span(tracer, "partition.projected_misses");
      bank_aware =
          bacp::partition::projected_total_misses(curves, capacity.allocation.ways_per_core);
    }
    const auto& trial = summary.trials[t];
    same = trial.mix.workload_indices == mix.workload_indices &&
           trial.fixed_share_misses == fixed && trial.unrestricted_misses == unrestricted &&
           trial.bank_aware_misses == bank_aware;
  }
  return same;
}

/// A closed loop of identical ops for `seconds` (at least `min_ops`).
struct Loop {
  std::vector<double> op_seconds;
  std::uint64_t allocs = 0;
  std::uint64_t ops = 0;
};

template <class Op>
Loop closed_loop(double seconds, std::size_t min_ops, Tracer& tracer, const Op& op) {
  Loop loop;
  const double deadline = now_seconds() + seconds;
  while (loop.ops < min_ops || now_seconds() < deadline) {
    tracer.set_op(static_cast<std::uint32_t>(loop.ops));
    const SweepRun run = op(tracer);
    loop.op_seconds.push_back(run.seconds);
    loop.allocs += run.allocs;
    ++loop.ops;
  }
  return loop;
}

void add_process_metrics(const Usage& before, const Usage& after, double ops, Result& result) {
  result.add("proc.user_cpu_s", after.user_s - before.user_s, "s");
  result.add("proc.sys_cpu_s", after.sys_s - before.sys_s, "s");
  result.add("proc.minor_faults_per_op",
             static_cast<double>(after.minor_faults - before.minor_faults) / ops, "faults/op");
  result.add("proc.peak_rss_mb", peak_rss_mb(), "MB");
}

}  // namespace

Result run_mc_analytic(const Options& options, DigestCheck& digests, Tracer& tracer) {
  Result result;
  const auto config = analytic_config(options.seed);
  Tracer untraced(false);
  const auto op = [&](Tracer& spans) { return checked_sweep(config, digests, result, spans); };

  // Set-up: one untimed op plus its independent recomputation, which
  // checks the sweep's outputs for any seed.
  std::vector<double> setup_times;
  bacp::harness::MonteCarloSummary reference;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    const double start = rep == 0 ? options.process_start : now_seconds();
    reference = op(untraced).summary;
    if (!recompute_analytic(config, reference, untraced)) {
      result.fail_check("recomputed trials differ from run_monte_carlo");
    }
    setup_times.push_back(now_seconds() - start);
  }

  const Usage before = usage_now();
  const double trials = static_cast<double>(config.trials);
  if (!options.trace) {
    const Loop loop = closed_loop(options.seconds, 3, tracer, op);
    result.add("trials_per_s", trials / median(loop.op_seconds), "trials/s");
    result.add("setup_s", median(setup_times), "s");
    return result;
  }
  const Loop plain = closed_loop(options.seconds / 2, 3, untraced, op);
  const Loop traced = closed_loop(options.seconds / 2, 3, tracer, op);
  const Usage after = usage_now();
  const double op_seconds = median(traced.op_seconds);
  result.add("bench.trace_overhead_share", op_seconds / median(plain.op_seconds) - 1.0,
             "fraction");
  result.add("harness.allocs_per_trial",
             static_cast<double>(traced.allocs) / (trials * static_cast<double>(traced.ops)),
             "allocs/trial");
  add_process_metrics(before, after, static_cast<double>(plain.ops + traced.ops), result);
  result.add("paper_err_fig7", std::fabs(reference.mean_bank_aware_ratio - 0.73), "ratio");

  // Layer spans: the same trials again, one public call at a time.
  if (!recompute_analytic(config, reference, tracer)) {
    result.fail_check("recomputed trials differ from run_monte_carlo");
  }
  const double layer_seconds =
      tracer.self_seconds("msa.curve_bank") + tracer.self_seconds("msa.curves_for_mix") +
      tracer.self_seconds("trace.random_mix") + tracer.self_seconds("partition.unrestricted") +
      tracer.self_seconds("partition.bank_aware_capacity") +
      tracer.self_seconds("partition.projected_misses");
  result.add("trace.random_mix_us", tracer.self_per_call("trace.random_mix") * 1e6, "us");
  result.add("msa.curves_for_mix_us",
             (tracer.self_seconds("msa.curve_bank") + tracer.self_seconds("msa.curves_for_mix")) /
                 trials * 1e6,
             "us");
  result.add("partition.unrestricted_us", tracer.self_per_call("partition.unrestricted") * 1e6,
             "us");
  result.add("partition.bank_aware_capacity_us",
             tracer.self_per_call("partition.bank_aware_capacity") * 1e6, "us");
  result.add("partition.projected_misses_us",
             tracer.self_per_call("partition.projected_misses") * 1e6, "us");
  result.add("harness.unattributed_share", 1.0 - layer_seconds / op_seconds, "fraction");
  return result;
}

Result run_mc_sampled(const Options& options, DigestCheck& digests, Tracer& tracer) {
  Result result;
  Tracer untraced(false);

  // Set-up: a fresh snapshot bank filled by an untimed sweep of the same
  // trials (warm, save_state, publish), several times; the last bank
  // serves the timed ops. The populate sweep's digest is the reference
  // every timed op must reproduce.
  std::vector<double> setup_times;
  std::string bank;
  bacp::harness::MonteCarloSummary reference;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    const double start = rep == 0 ? options.process_start : now_seconds();
    std::error_code ec;
    if (!bank.empty()) fs::remove_all(bank, ec);
    bank = options.work_dir + "/bank." + std::to_string(rep);
    fs::remove_all(bank, ec);
    fs::create_directories(bank);
    const auto populate = sampled_config(options.seed, bank);
    reference = checked_sweep(populate, digests, result, untraced).summary;
    setup_times.push_back(now_seconds() - start);
  }
  const auto config = sampled_config(options.seed, bank);
  const auto op = [&](Tracer& spans) { return checked_sweep(config, digests, result, spans); };

  const Usage before = usage_now();
  const double trials = static_cast<double>(config.trials);
  if (!options.trace) {
    const Loop loop = closed_loop(options.seconds, 3, tracer, op);
    result.add("trials_per_s", trials / median(loop.op_seconds), "trials/s");
    result.add("setup_s", median(setup_times), "s");
  } else {
    const Loop plain = closed_loop(options.seconds / 2, 3, untraced, op);
    const Loop traced = closed_loop(options.seconds / 2, 3, tracer, op);
    const Usage after = usage_now();
    result.add("bench.trace_overhead_share",
               median(traced.op_seconds) / median(plain.op_seconds) - 1.0, "fraction");
    result.add("harness.allocs_per_trial",
               static_cast<double>(traced.allocs) / (trials * static_cast<double>(traced.ops)),
               "allocs/trial");
    add_process_metrics(before, after, static_cast<double>(plain.ops + traced.ops), result);
    result.add("paper_err_fig7", std::fabs(reference.mean_bank_aware_ratio - 0.73), "ratio");

    // Write path, once per trial mix: plan, reset, warm, fast-forward, save.
    const auto system_config = bacp::sampling::sampled_system_config(
        config.geometry, config.seed, config.sampled_interval_instructions);
    bacp::sampling::SampledRunConfig shape;
    shape.k = config.sampled_k;
    shape.num_intervals = config.sampled_intervals;
    shape.interval_instructions = config.sampled_interval_instructions;
    shape.warmup_instructions = config.sampled_warmup;
    bacp::sampling::IntervalProfileConfig intervals;
    intervals.num_intervals = config.sampled_intervals;
    intervals.interval_instructions = config.sampled_interval_instructions;
    const auto& suite = bacp::trace::spec2000_suite();
    std::map<std::uint64_t, bacp::trace::WorkloadMix> mix_of_digest;
    bacp::sim::System system(system_config, reference.trials.front().mix);
    double snapshot_bytes = 0.0;
    for (std::size_t t = 0; t < config.trials; ++t) {
      bacp::common::Rng rng(config.seed, t);
      const auto mix = bacp::trace::random_mix(rng, suite.size(), config.geometry.num_cores);
      mix_of_digest[bacp::sim::config_digest(system_config, mix)] = mix;
      {
        Tracer::Scope span(tracer, "sampling.plan");
        bacp::sampling::IntervalProfileBank fresh(system_config, intervals);
        (void)bacp::sampling::plan_mix(system_config, mix, shape, &fresh);
      }
      {
        Tracer::Scope span(tracer, "sim.reset_in_place");
        system.reset_in_place(mix);
      }
      system.warm_up(shape.warmup_instructions);
      {
        Tracer::Scope span(tracer, "sim.fast_forward");
        system.fast_forward(shape.interval_instructions);
      }
      system.reset_measurement();
      Tracer::Scope span(tracer, "snapshot.save");
      snapshot_bytes += static_cast<double>(system.save_state().size_bytes());
    }

    // Read path, once per banked boundary state: load through a fresh
    // SnapshotCache on the populated bank, validate, restore into the
    // pooled System and run one detailed interval.
    bacp::harness::SnapshotCache cache;
    cache.set_file_bank(bank);
    std::uint64_t restored = 0;
    for (const auto& entry : fs::directory_iterator(bank)) {
      if (entry.path().extension() != ".snap") continue;
      const std::uint64_t key = std::stoull(entry.path().stem().string(), nullptr, 16);
      bacp::harness::SnapshotCache::SnapshotPtr snapshot;
      {
        Tracer::Scope span(tracer, "harness.bank_load");
        snapshot = cache.get_or_warm(key, [&] {
          system.reset_measurement();
          return system.save_state();
        });
      }
      std::uint64_t digest = 0;
      {
        Tracer::Scope span(tracer, "snapshot.validate");
        digest = bacp::snapshot::SnapshotView(*snapshot).config_digest();
      }
      const auto mix = mix_of_digest.find(digest);
      if (mix == mix_of_digest.end()) {
        result.fail_check("banked snapshot matches no trial mix");
        continue;
      }
      {
        Tracer::Scope span(tracer, "sim.reset_in_place");
        system.reset_in_place(mix->second);
      }
      {
        Tracer::Scope span(tracer, "snapshot.restore");
        system.restore_state(*snapshot);
      }
      system.reset_measurement();
      {
        Tracer::Scope span(tracer, "sim.interval");
        system.run(shape.interval_instructions);
      }
      ++restored;
    }
    const double cores = config.geometry.num_cores;
    result.add("sampling.plan_ms", tracer.self_per_call("sampling.plan") * 1e3, "ms");
    result.add("sim.reset_in_place_ms", tracer.self_per_call("sim.reset_in_place") * 1e3, "ms");
    result.add("snapshot.save_ms", tracer.self_per_call("snapshot.save") * 1e3, "ms");
    result.add("snapshot.bytes", snapshot_bytes / trials, "bytes");
    result.add("snapshot.validate_ms", tracer.self_per_call("snapshot.validate") * 1e3, "ms");
    result.add("snapshot.restore_ms", tracer.self_per_call("snapshot.restore") * 1e3, "ms");
    result.add("harness.bank_load_ms", tracer.self_per_call("harness.bank_load") * 1e3, "ms");
    result.add("harness.bank_file_hits", static_cast<double>(cache.file_hits()), "count");
    result.add("harness.bank_misses", static_cast<double>(cache.misses() - cache.file_hits()),
               "count");
    result.add("sim.interval_ms", tracer.self_per_call("sim.interval") * 1e3, "ms");
    result.add("sim.fast_forward_ms_per_minstr",
               tracer.self_per_call("sim.fast_forward") * 1e3 /
                   (static_cast<double>(shape.interval_instructions) * cores / 1e6),
               "ms/Minstr");
    if (restored == 0) result.fail_check("no banked snapshot restored");
    add_detailed_layer_metrics(options, digests, tracer, result);
  }
  std::error_code ec;
  fs::remove_all(bank, ec);
  return result;
}

}  // namespace perfbench

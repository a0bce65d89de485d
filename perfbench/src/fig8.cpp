// The Fig. 8/9 matrix in detailed simulation, for the traced run of
// mc_sampled: one op per cell — one Table III set under one partitioning
// scheme: construct sim::System, warm_up, run — then a layer replay of
// Set1's own stream. mc_sampled's intervals run this same simulator; the
// matrix gives its per-access layers and the Fig. 8/9 model error.

#include <cmath>
#include <optional>

#include "bench.hpp"
#include "common/stats.hpp"
#include "harness/experiments.hpp"
#include "layers.hpp"
#include "sim/system.hpp"

namespace perfbench {

namespace {

// Bench scale: short enough that one pass over the 24 cells takes a few
// seconds, long enough that every cell crosses several epoch boundaries
// (so Bank-aware repartitions from live profiles, as in the paper).
constexpr std::uint64_t kWarmupInstructions = 200'000;   // per core
constexpr std::uint64_t kMeasureInstructions = 400'000;  // per core
constexpr bacp::Cycle kEpochCycles = 250'000;

constexpr bacp::sim::PolicyKind kPolicies[] = {bacp::sim::PolicyKind::NoPartition,
                                               bacp::sim::PolicyKind::EqualPartition,
                                               bacp::sim::PolicyKind::BankAware};

struct Cell {
  std::string key;  ///< "Set1.Bank-aware"
  bacp::sim::SystemConfig config;
  bacp::trace::WorkloadMix mix;
};

std::vector<Cell> make_cells(std::uint64_t seed) {
  std::vector<Cell> cells;
  const auto& sets = bacp::harness::table3_sets();
  for (std::size_t s = 0; s < sets.size(); ++s) {
    for (std::size_t p = 0; p < std::size(kPolicies); ++p) {
      Cell cell;
      cell.key = sets[s].label + "." + bacp::sim::to_string(kPolicies[p]);
      cell.config = bacp::sim::SystemConfig::baseline();
      cell.config.policy = kPolicies[p];
      cell.config.epoch_cycles = kEpochCycles;
      cell.config.seed = seed;
      cell.config.finalize();
      cell.mix = sets[s].mix();
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

/// What one op leaves behind: its wall time, the deterministic results and
/// the run-phase work counts the layer attribution needs.
struct CellRun {
  double seconds = 0.0;
  bacp::sim::SystemResults results;
  std::uint64_t digest = 0;
  std::uint64_t run_allocs = 0;
  RunCounts counts;                 ///< layer calls made during run()
  std::uint64_t l1_hits = 0;        ///< over warm-up and run
  std::uint64_t l1_accesses = 0;    ///< over warm-up and run
  std::uint64_t invalidations = 0;  ///< during run()
};

std::uint64_t results_digest(const bacp::sim::SystemResults& results) {
  std::uint64_t h = kDigestBasis;
  for (const std::uint64_t value :
       {results.l2_accesses(), results.live_l2_accesses(), results.l2_misses(),
        results.epochs(), results.promotions(), results.demotions(),
        results.offview_hits(), results.directory_lookups(), results.dram_reads(),
        results.dram_writebacks(), results.noc_queue_cycles(),
        results.inclusion_recalls()}) {
    h = fold_u64(h, value);
  }
  h = fold_double(h, results.mean_cpi());
  for (const auto& core : results.cores()) {
    h = fold_double(h, core.instructions());
    h = fold_double(h, core.cycles());
    h = fold_u64(h, core.l2_hits());
    h = fold_u64(h, core.l2_misses());
    h = fold_u64(h, core.allocated_ways());
  }
  return h;
}

std::pair<std::uint64_t, std::uint64_t> l1_totals(const bacp::sim::System& system) {
  std::uint64_t accesses = 0;
  std::uint64_t misses = 0;
  for (const auto& l1 : system.l1s()) {
    accesses += l1.stats().total_accesses();
    misses += l1.stats().total_misses();
  }
  return {accesses, misses};
}

CellRun run_cell(const Cell& cell, Tracer& tracer) {
  CellRun run;
  const double start = now_seconds();
  std::optional<bacp::sim::System> system;
  {
    Tracer::Scope span(tracer, "sim.construct");
    system.emplace(cell.config, cell.mix);
  }
  {
    Tracer::Scope span(tracer, "sim.warm_up");
    system->warm_up(kWarmupInstructions);
  }
  const auto [l1_accesses_before, l1_misses_before] = l1_totals(*system);
  const std::uint64_t allocs_before = allocations();
  {
    Tracer::Scope span(tracer, "sim.run");
    system->run(kMeasureInstructions);
  }
  run.run_allocs = allocations() - allocs_before;
  // Reading the public stats below is the benchmark's own work; it is
  // small next to the op and identical on every commit.
  run.results = system->results();
  const auto [l1_accesses, l1_misses] = l1_totals(*system);
  run.l1_accesses = l1_accesses;
  run.l1_hits = l1_accesses - l1_misses;
  run.invalidations = system->directory().stats().invalidations;
  run.counts.l1_accesses = static_cast<double>(l1_accesses - l1_accesses_before);
  run.counts.l1_misses = static_cast<double>(l1_misses - l1_misses_before);
  run.counts.l2_accesses = static_cast<double>(run.results.live_l2_accesses());
  run.counts.dram_reads = static_cast<double>(run.results.dram_reads());
  run.counts.replans = cell.config.policy == bacp::sim::PolicyKind::BankAware
                           ? static_cast<double>(run.results.epochs())
                           : 0.0;
  system.reset();
  run.seconds = now_seconds() - start;
  run.digest = results_digest(run.results);
  return run;
}

/// Structural checks that hold for any seed.
void check_cell(const Cell& cell, const CellRun& run, Result& result) {
  const auto& r = run.results;
  if (r.cores().size() != cell.mix.num_cores()) result.fail_check(cell.key + ": core count");
  if (r.l2_misses() > r.l2_accesses()) result.fail_check(cell.key + ": misses > accesses");
  if (r.l2_accesses() == 0) result.fail_check(cell.key + ": no L2 accesses");
  if (!(r.mean_cpi() > 0.0) || !std::isfinite(r.mean_cpi())) {
    result.fail_check(cell.key + ": mean CPI");
  }
  if (r.epochs() == 0) result.fail_check(cell.key + ": no epoch boundary crossed");
}

struct PaperError {
  double misses = 0.0;
  double cpi = 0.0;
};

/// Model error against the paper's Fig. 8/9 geomeans, from one pass.
PaperError paper_error(const std::vector<Cell>& cells, const std::vector<CellRun>& pass) {
  std::vector<double> bank_none_m, bank_equal_m, bank_none_c, bank_equal_c;
  for (std::size_t i = 0; i + 2 < cells.size(); i += 3) {
    const auto& none = pass[i].results;
    const auto& equal = pass[i + 1].results;
    const auto& bank = pass[i + 2].results;
    const auto misses = [](const bacp::sim::SystemResults& r) {
      return static_cast<double>(r.l2_misses());
    };
    bank_none_m.push_back(bacp::common::ratio(misses(bank), misses(none), 1.0));
    bank_equal_m.push_back(bacp::common::ratio(misses(bank), misses(equal), 1.0));
    bank_none_c.push_back(bacp::common::ratio(bank.mean_cpi(), none.mean_cpi(), 1.0));
    bank_equal_c.push_back(bacp::common::ratio(bank.mean_cpi(), equal.mean_cpi(), 1.0));
  }
  const auto gm = [](const std::vector<double>& v) {
    return bacp::common::guarded_geometric_mean(v, 1e-9).value;
  };
  PaperError error;
  // Paper: Bank-aware misses 0.30 of No-partition, 0.75 of Equal; CPI 0.57
  // and 0.89.
  error.misses = 0.5 * (std::fabs(gm(bank_none_m) - 0.30) + std::fabs(gm(bank_equal_m) - 0.75));
  error.cpi = 0.5 * (std::fabs(gm(bank_none_c) - 0.57) + std::fabs(gm(bank_equal_c) - 0.89));
  return error;
}

}  // namespace

void add_detailed_layer_metrics(const Options& options, DigestCheck& digests, Tracer& tracer,
                                Result& result) {
  const std::vector<Cell> cells = make_cells(options.seed);
  std::vector<CellRun> pass;
  double pass_seconds = 0.0;
  for (std::size_t op = 0; op < cells.size(); ++op) {
    tracer.set_op(static_cast<std::uint32_t>(op));
    CellRun run = run_cell(cells[op], tracer);
    ++result.attempted;
    if (!digests.check(cells[op].key, run.digest)) ++result.failed;
    check_cell(cells[op], run, result);
    pass_seconds += run.seconds;
    pass.push_back(std::move(run));
  }

  const double simulated_minstr =
      static_cast<double>(cells.size() * cells.front().config.geometry.num_cores) *
      static_cast<double>(kWarmupInstructions + kMeasureInstructions) / 1e6;
  result.add("sim.minstr_per_s", simulated_minstr / pass_seconds, "Minstr/s");
  result.add("sim.construct_ms", tracer.self_per_call("sim.construct") * 1e3, "ms");
  result.add("sim.warm_up_s", tracer.self_per_call("sim.warm_up"), "s");
  result.add("sim.run_s", tracer.self_per_call("sim.run"), "s");
  const double run_seconds = tracer.self_seconds("sim.run");

  // Simulated work over the pass (deterministic per seed).
  double l2_accesses = 0, l2_misses = 0, epochs = 0, cpi = 0, promotions = 0,
         demotions = 0, offview = 0, lookups = 0, queue = 0, dram_reads = 0, dram_wb = 0,
         recalls = 0, invalidations = 0, l1_hits = 0, l1_accesses = 0, live = 0,
         run_allocs = 0;
  RunCounts counts;
  for (const auto& run : pass) {
    const auto& r = run.results;
    l2_accesses += static_cast<double>(r.l2_accesses());
    l2_misses += static_cast<double>(r.l2_misses());
    epochs += static_cast<double>(r.epochs());
    cpi += r.mean_cpi() / static_cast<double>(pass.size());
    promotions += static_cast<double>(r.promotions());
    demotions += static_cast<double>(r.demotions());
    offview += static_cast<double>(r.offview_hits());
    lookups += static_cast<double>(r.directory_lookups());
    queue += static_cast<double>(r.noc_queue_cycles());
    dram_reads += static_cast<double>(r.dram_reads());
    dram_wb += static_cast<double>(r.dram_writebacks());
    recalls += static_cast<double>(r.inclusion_recalls());
    invalidations += static_cast<double>(run.invalidations);
    l1_hits += static_cast<double>(run.l1_hits);
    l1_accesses += static_cast<double>(run.l1_accesses);
    live += static_cast<double>(r.live_l2_accesses());
    run_allocs += static_cast<double>(run.run_allocs);
    counts.l1_accesses += run.counts.l1_accesses;
    counts.l1_misses += run.counts.l1_misses;
    counts.l2_accesses += run.counts.l2_accesses;
    counts.dram_reads += run.counts.dram_reads;
    counts.replans += run.counts.replans;
  }
  result.add("sim.run_accesses_per_s", live / run_seconds, "acc/s");
  result.add("sim.allocs_per_kaccess", run_allocs / (live / 1000.0), "allocs/kacc");
  result.add("sim.l2_accesses", l2_accesses, "count");
  result.add("sim.l2_misses", l2_misses, "count");
  result.add("sim.epochs", epochs, "count");
  result.add("sim.mean_cpi", cpi, "cycles/instr");
  result.add("nuca.promotions", promotions, "count");
  result.add("nuca.demotions", demotions, "count");
  result.add("nuca.offview_hits", offview, "count");
  result.add("nuca.directory_lookups", lookups, "count");
  result.add("noc.queue_cycles", queue, "cycles");
  result.add("mem.dram_reads", dram_reads, "count");
  result.add("mem.dram_writebacks", dram_wb, "count");
  result.add("coherence.inclusion_recalls", recalls, "count");
  result.add("coherence.invalidations", invalidations, "count");
  result.add("cache.l1_hit_ratio", l1_hits / l1_accesses, "ratio");
  const PaperError error = paper_error(cells, pass);
  result.add("paper_err_misses", error.misses, "ratio");
  result.add("paper_err_cpi", error.cpi, "ratio");

  // Layer replay over Set1's own stream under NoPartition and BankAware,
  // then attribution of the traced System::run time to the layers.
  const std::uint64_t checksum = replay_layers(cells[0].config, cells[2].config, cells[0].mix,
                                               kMeasureInstructions, tracer);
  result.notes.push_back("layer replay checksum " + hex64(checksum));
  result.add("trace.next_batch_ns", tracer.self_per_call("trace.next_batch") * 1e9, "ns");
  result.add("cache.access_ns", tracer.self_per_call("cache.access") * 1e9, "ns");
  result.add("coherence.fill_ns", tracer.self_per_call("coherence.fill") * 1e9, "ns");
  result.add("nuca.access_batch_ns", tracer.self_per_call("nuca.access_batch") * 1e9, "ns");
  result.add("msa.observe_batch_ns", tracer.self_per_call("msa.observe_batch") * 1e9, "ns");
  result.add("noc.request_ns", tracer.self_per_call("noc.request") * 1e9, "ns");
  result.add("mem.read_ns", tracer.self_per_call("mem.read") * 1e9, "ns");
  result.add("partition.bank_aware_partition_us",
             tracer.self_per_call("partition.bank_aware_partition") * 1e6, "us");
  result.add("sim.unattributed_share", 1.0 - attributed_seconds(tracer, counts) / run_seconds,
             "fraction");
}

}  // namespace perfbench

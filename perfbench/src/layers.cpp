#include "layers.hpp"

#include <algorithm>
#include <memory>

#include "cache/set_assoc_cache.hpp"
#include "coherence/moesi.hpp"
#include "mem/dram.hpp"
#include "msa/stack_profiler.hpp"
#include "noc/noc.hpp"
#include "nuca/dnuca_cache.hpp"
#include "partition/bank_aware.hpp"
#include "partition/static_policies.hpp"
#include "trace/spec2000.hpp"
#include "trace/synthetic.hpp"

namespace perfbench {

namespace {

using bacp::BlockAddress;
using bacp::CoreId;
using bacp::Cycle;

std::uint64_t calls_for(std::size_t items) {
  return (items + kReplayBatch - 1) / kReplayBatch;
}

/// One directory event, in the order the System would issue it.
struct Event {
  BlockAddress block = 0;
  CoreId core = 0;
  enum Kind : std::uint8_t { ReadFill, WriteFill, Evict } kind = ReadFill;
  bool dirty = false;
};

std::uint64_t replay_one(const bacp::sim::SystemConfig& config,
                         const bacp::trace::WorkloadMix& mix,
                         std::uint64_t instructions_per_core, Tracer& tracer) {
  const auto& suite = bacp::trace::spec2000_suite();
  const std::uint32_t cores = config.geometry.num_cores;
  std::uint64_t checksum = 0;

  // trace: each core's L2-intent stream, its quota following its APKI as in
  // System::run, then interleaved by instruction position.
  std::vector<std::vector<bacp::trace::MemoryAccess>> streams(cores);
  std::vector<double> spacing(cores);
  bacp::trace::AccessBatch batch;
  for (CoreId core = 0; core < cores; ++core) {
    const auto& model = suite.at(mix.workload_indices[core]);
    bacp::trace::GeneratorConfig generator_config;
    generator_config.num_sets = config.sets_per_bank;
    generator_config.max_depth = config.geometry.total_ways();
    generator_config.core = core;
    bacp::trace::SyntheticTraceGenerator generator(model, generator_config, config.seed);
    const auto quota = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(static_cast<double>(instructions_per_core) *
                                      model.l2_apki / 1000.0));
    spacing[core] = 1000.0 / model.l2_apki;
    const std::uint64_t calls = calls_for(quota);
    streams[core].reserve(calls * kReplayBatch);
    Tracer::Scope span(tracer, "trace.next_batch", calls);
    for (std::uint64_t call = 0; call < calls; ++call) {
      generator.next_batch(batch, kReplayBatch);
      streams[core].insert(streams[core].end(), batch.accesses.begin(),
                           batch.accesses.begin() + batch.size);
    }
  }
  struct Position {
    double at;
    CoreId core;
    std::uint32_t index;
  };
  std::vector<Position> order;
  for (CoreId core = 0; core < cores; ++core) {
    for (std::uint32_t i = 0; i < streams[core].size(); ++i) {
      order.push_back({spacing[core] * (i + 1), core, i});
    }
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const Position& a, const Position& b) { return a.at < b.at; });
  std::vector<bacp::trace::MemoryAccess> stream;
  stream.reserve(order.size());
  for (const auto& p : order) stream.push_back(streams[p.core][p.index]);

  // cache: the private L1s, as System configures them. Misses become the
  // directory events and the L2 stream below.
  std::vector<bacp::cache::SetAssocCache> l1;
  for (CoreId core = 0; core < cores; ++core) {
    bacp::cache::SetAssocCache::Config l1_config;
    l1_config.name = "replay.L1";
    l1_config.num_sets = config.l1_sets;
    l1_config.ways = config.l1_ways;
    l1_config.num_cores = 1;
    l1.emplace_back(l1_config);
  }
  std::vector<Event> events;
  events.reserve(2 * stream.size());
  std::vector<bacp::trace::MemoryAccess> misses;
  misses.reserve(stream.size());
  {
    Tracer::Scope span(tracer, "cache.access");
    std::uint64_t fills = 0;
    for (const auto& access : stream) {
      if (l1[access.core].access(access.block, 0, access.is_write).hit) continue;
      misses.push_back(access);
      events.push_back({access.block, access.core,
                        access.is_write ? Event::WriteFill : Event::ReadFill, false});
      const auto fill = l1[access.core].fill(access.block, 0, access.is_write);
      ++fills;
      if (fill.evicted) {
        events.push_back({fill.evicted->block, access.core, Event::Evict,
                          fill.evicted->dirty});
      }
    }
    span.set_calls(stream.size() + fills);
  }

  // coherence: the directory sees the fills and L1 evictions in order.
  {
    bacp::coherence::MoesiDirectory directory(cores);
    directory.reserve(std::size_t{cores} * config.l1_sets * config.l1_ways);
    Tracer::Scope span(tracer, "coherence.fill", events.size());
    for (const auto& event : events) {
      bacp::coherence::CoherenceAction action;
      switch (event.kind) {
        case Event::ReadFill: action = directory.on_l1_read_fill(event.block, event.core); break;
        case Event::WriteFill: action = directory.on_l1_write_fill(event.block, event.core); break;
        case Event::Evict:
          action = directory.on_l1_evict(event.block, event.core, event.dirty);
          break;
      }
      checksum += action.invalidations + (action.writeback_below ? 1u : 0u);
    }
  }

  // msa: each core's profiler shadows its L1-miss stream.
  std::vector<std::vector<BlockAddress>> miss_blocks(cores);
  for (const auto& access : misses) miss_blocks[access.core].push_back(access.block);
  std::vector<std::unique_ptr<bacp::msa::StackProfiler>> profilers;
  std::uint64_t observe_calls = 0;
  for (CoreId core = 0; core < cores; ++core) {
    profilers.push_back(std::make_unique<bacp::msa::StackProfiler>(config.profiler));
    observe_calls += calls_for(miss_blocks[core].size());
  }
  {
    Tracer::Scope span(tracer, "msa.observe_batch", observe_calls);
    for (CoreId core = 0; core < cores; ++core) {
      const auto& blocks = miss_blocks[core];
      for (std::size_t off = 0; off < blocks.size(); off += kReplayBatch) {
        profilers[core]->observe_batch(
            blocks.data() + off,
            static_cast<std::uint32_t>(std::min<std::size_t>(kReplayBatch, blocks.size() - off)));
      }
    }
  }

  // partition: the policy's bank assignment. Bank-aware replans on the
  // profilers' curves, normalized per megainstruction as the epoch
  // controller does; No-partition is the shared view, nearest bank first.
  bacp::noc::Noc hop_model(config.noc);
  bacp::partition::BankAssignment assignment;
  const bool bank_aware = config.policy == bacp::sim::PolicyKind::BankAware;
  if (bank_aware) {
    std::vector<bacp::msa::MissRatioCurve> curves;
    for (CoreId core = 0; core < cores; ++core) {
      curves.push_back(profilers[core]->curve().scaled(
          1.0e6 / static_cast<double>(instructions_per_core)));
    }
    constexpr std::uint64_t kReplans = 32;
    bacp::partition::BankAwareResult plan;
    {
      Tracer::Scope span(tracer, "partition.bank_aware_partition", kReplans);
      for (std::uint64_t r = 0; r < kReplans; ++r) {
        plan = bacp::partition::bank_aware_partition(config.geometry, curves);
      }
    }
    assignment = plan.assignment;
  } else {
    assignment = bacp::partition::no_partition(config.geometry).assignment;
    for (CoreId core = 0; core < cores; ++core) {
      auto& view = assignment.banks_of_core[core];
      std::sort(view.begin(), view.end(), [&](bacp::BankId a, bacp::BankId b) {
        const auto ha = hop_model.hops(core, a);
        const auto hb = hop_model.hops(core, b);
        return ha != hb ? ha < hb : a < b;
      });
    }
  }

  // nuca: the L1-miss stream through DnucaCache::access_batch.
  const std::size_t n = misses.size();
  std::vector<BlockAddress> blocks(n);
  std::vector<CoreId> owners(n);
  const auto writes = std::make_unique<bool[]>(n);
  std::vector<Cycle> times(n);
  std::vector<bacp::nuca::L2AccessOutcome> outcomes(n);
  for (std::size_t i = 0; i < n; ++i) {
    blocks[i] = misses[i].block;
    owners[i] = misses[i].core;
    writes[i] = misses[i].is_write;
    times[i] = 4 * static_cast<Cycle>(i);
  }
  {
    bacp::noc::Noc noc(config.noc);
    bacp::nuca::DnucaConfig l2_config;
    l2_config.geometry = config.geometry;
    l2_config.sets_per_bank = config.sets_per_bank;
    l2_config.aggregation =
        bank_aware ? config.aggregation : bacp::nuca::AggregationKind::SharedDnuca;
    bacp::nuca::DnucaCache l2(l2_config, noc);
    l2.apply_assignment(assignment);
    Tracer::Scope span(tracer, "nuca.access_batch", calls_for(n));
    for (std::size_t off = 0; off < n; off += kReplayBatch) {
      l2.access_batch(blocks.data() + off, owners.data() + off, writes.get() + off,
                      times.data() + off,
                      static_cast<std::uint32_t>(std::min<std::size_t>(kReplayBatch, n - off)),
                      outcomes.data() + off);
    }
  }

  // noc and mem: the bank requests and demand reads the L2 stream produced,
  // replayed into fresh timing models.
  {
    bacp::noc::Noc noc(config.noc);
    Tracer::Scope span(tracer, "noc.request", n);
    for (std::size_t i = 0; i < n; ++i) {
      checksum += noc.request(owners[i], outcomes[i].bank, times[i]);
    }
  }
  std::vector<Cycle> reads;
  for (const auto& outcome : outcomes) {
    if (!outcome.hit) reads.push_back(outcome.ready_at);
  }
  {
    bacp::mem::Dram dram(config.dram);
    Tracer::Scope span(tracer, "mem.read", reads.size());
    for (const Cycle at : reads) checksum += dram.read(at);
  }
  return checksum;
}

}  // namespace

std::uint64_t replay_layers(const bacp::sim::SystemConfig& none,
                            const bacp::sim::SystemConfig& bank,
                            const bacp::trace::WorkloadMix& mix,
                            std::uint64_t instructions_per_core, Tracer& tracer) {
  return replay_one(none, mix, instructions_per_core, tracer) +
         replay_one(bank, mix, instructions_per_core, tracer);
}

double attributed_seconds(const Tracer& tracer, const RunCounts& counts) {
  const double batch = kReplayBatch;
  return counts.l1_accesses / batch * tracer.self_per_call("trace.next_batch") +
         (counts.l1_accesses + counts.l1_misses) * tracer.self_per_call("cache.access") +
         2.0 * counts.l1_misses * tracer.self_per_call("coherence.fill") +
         counts.l1_misses / batch * tracer.self_per_call("msa.observe_batch") +
         counts.l2_accesses / batch * tracer.self_per_call("nuca.access_batch") +
         counts.dram_reads * tracer.self_per_call("mem.read") +
         counts.replans * tracer.self_per_call("partition.bank_aware_partition");
}

}  // namespace perfbench

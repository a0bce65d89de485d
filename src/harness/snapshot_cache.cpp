#include "harness/snapshot_cache.hpp"

#include <unistd.h>

#include <cstdio>
#include <exception>
#include <fstream>
#include <span>
#include <utility>

#include "common/fsio.hpp"
#include "common/thread_pool.hpp"
#include "harness/config_cli.hpp"
#include "harness/system_pool.hpp"
#include "obs/phase_timer.hpp"
#include "sim/system_config.hpp"

namespace bacp::harness {

SnapshotCache::SnapshotPtr SnapshotCache::get_or_warm(std::uint64_t key,
                                                      const WarmFn& warm) {
  std::shared_future<SnapshotPtr> future;
  std::shared_ptr<std::promise<SnapshotPtr>> owned;
  std::string bank;
  {
    const common::MutexLock lock(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++hits_;
      future = it->second;
    } else {
      ++misses_;
      owned = std::make_shared<std::promise<SnapshotPtr>>();
      future = owned->get_future().share();
      entries_.emplace(key, future);
      bank = bank_directory_;  // copied under the lock for the unlocked warm
    }
  }
  if (owned) {
    // Warm outside the lock: other keys proceed concurrently, and waiters
    // on this key block on the future, not the mutex.
    try {
      if (SnapshotPtr banked = try_load(bank, key)) {
        {
          const common::MutexLock lock(mutex_);
          ++file_hits_;
        }
        owned->set_value(std::move(banked));
      } else {
        auto snapshot = std::make_shared<const snapshot::SystemSnapshot>(warm());
        if (!bank.empty()) store(bank, key, *snapshot);
        owned->set_value(std::move(snapshot));
      }
    } catch (...) {
      owned->set_exception(std::current_exception());
    }
  }
  return future.get();
}

void SnapshotCache::set_file_bank(std::string directory) {
  const common::MutexLock lock(mutex_);
  bank_directory_ = std::move(directory);
}

std::string SnapshotCache::bank_path(const std::string& directory,
                                     std::uint64_t key) {
  char name[32];
  std::snprintf(name, sizeof(name), "%016llx.snap",
                static_cast<unsigned long long>(key));
  return directory + "/" + name;
}

SnapshotCache::SnapshotPtr SnapshotCache::try_load(const std::string& directory,
                                                   std::uint64_t key) {
  if (directory.empty()) return nullptr;
  const auto timer = obs::global_phase_timers().scope("bank.load");
  const std::string path = bank_path(directory, key);
  // Zero-copy: adopt the mapped file as the snapshot's backing. Restores
  // then read sections straight out of the page cache; the multi-megabyte
  // buffer is never duplicated on the heap. The map pins the published
  // inode, so a concurrent re-publish (atomic rename) cannot tear it.
  auto mapping = std::make_shared<common::MappedFile>(common::MappedFile::open(path));
  if (!mapping->valid()) return nullptr;
  const std::span<const std::uint8_t> bytes = mapping->bytes();
  // The bank is advisory: a file that fails validation (truncation, bit
  // rot, a stale format) is simply ignored and the warm-up runs — wrong
  // bytes must never leak into a simulation. from_mapping checksums the
  // mapped region itself, once; restores then trust its validated table
  // (DESIGN §9: bank files are published by rename, never written in
  // place).
  auto snapshot = snapshot::SystemSnapshot::from_mapping(bytes, std::move(mapping));
  if (!snapshot) return nullptr;
  return std::make_shared<const snapshot::SystemSnapshot>(std::move(*snapshot));
}

void SnapshotCache::store(const std::string& directory, std::uint64_t key,
                          const snapshot::SystemSnapshot& snapshot) {
  const std::string path = bank_path(directory, key);
  // Stage in TMPDIR when set (typically the fastest scratch filesystem),
  // with a process-unique name so concurrent shard processes sharing one
  // bank never collide on the staging file. TMPDIR may be a different
  // filesystem than the bank — publish_file_atomic absorbs the EXDEV
  // rename by falling back to copy+fsync+rename inside the bank directory.
  char name[48];
  std::snprintf(name, sizeof(name), "/%016llx.stage.%lld",
                static_cast<unsigned long long>(key),
                static_cast<long long>(::getpid()));
  const std::string temp = common::staging_directory(directory) + name;
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) return;  // unwritable staging: cache miss, not an error
    const std::span<const std::uint8_t> bytes = snapshot.data();
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out.good()) {
      std::remove(temp.c_str());
      return;
    }
  }
  // Atomic publish: concurrent readers see the old bank or the whole file.
  // Failure (unwritable bank, full disk) degrades to an in-memory-only
  // entry; publish_file_atomic has already removed the staging file.
  common::publish_file_atomic(temp, path);
}

std::uint64_t SnapshotCache::hits() const {
  const common::MutexLock lock(mutex_);
  return hits_;
}

std::uint64_t SnapshotCache::misses() const {
  const common::MutexLock lock(mutex_);
  return misses_;
}

std::uint64_t SnapshotCache::file_hits() const {
  const common::MutexLock lock(mutex_);
  return file_hits_;
}

std::vector<std::pair<std::string, std::string>> VariantSweepOptions::cli_flags() {
  return {
      value_flag(kThreadsKnob),
      value_flag(kSnapshotBankKnob),
      bool_flag("no-snapshot-reuse", "warm every run cold instead of forking snapshots"),
      bool_flag("shared-warmup", "one policy-neutral warm-up per mix (changes results)"),
  };
}

VariantSweepOptions VariantSweepOptions::from_args(const common::ArgParser& parser) {
  VariantSweepOptions options;
  options.num_threads = read_threads(parser, options.num_threads);
  options.snapshot_reuse = !parser.get_bool_or_fail("no-snapshot-reuse", false);
  options.shared_warmup = parser.get_bool_or_fail("shared-warmup", false);
  options.snapshot_bank = read_string(parser, kSnapshotBankKnob, options.snapshot_bank);
  return options;
}

std::uint64_t warmup_key(std::uint64_t state_digest, std::uint64_t warmup_instructions) {
  // Fold the warm-up length into the digest with one FNV-1a round per byte,
  // matching the hash family used for the digest itself.
  std::uint64_t hash = state_digest;
  for (unsigned shift = 0; shift < 64; shift += 8) {
    hash ^= (warmup_instructions >> shift) & 0xFF;
    hash *= 0x00000100000001B3ull;
  }
  return hash;
}

void warm_system(sim::System& system, const trace::WorkloadMix& mix,
                 std::uint64_t warmup_instructions, SnapshotCache* cache,
                 bool shared_warmup) {
  if (cache == nullptr) {
    const auto timer = obs::global_phase_timers().scope("warmup");
    system.warm_up(warmup_instructions);
    return;
  }
  if (shared_warmup) {
    const std::uint64_t key =
        warmup_key(sim::warm_state_digest(system.config(), mix), warmup_instructions);
    const auto snapshot = cache->get_or_warm(key, [&] {
      const auto timer = obs::global_phase_timers().scope("warmup");
      sim::System canonical(sim::canonical_warm_config(system.config()), mix);
      canonical.warm_up(warmup_instructions);
      return canonical.save_state();
    });
    system.adopt_warm_state(*snapshot);
    return;
  }
  const std::uint64_t key =
      warmup_key(sim::config_digest(system.config(), mix), warmup_instructions);
  const auto snapshot = cache->get_or_warm(key, [&] {
    const auto timer = obs::global_phase_timers().scope("warmup");
    sim::System twin(system.config(), mix);
    twin.warm_up(warmup_instructions);
    return twin.save_state();
  });
  system.restore_state(*snapshot);
}

void run_variant_sweep(std::span<const SweepVariant> variants,
                       const trace::WorkloadMix& mix, const VariantSweepOptions& options,
                       const std::function<void(sim::System&, std::size_t)>& body) {
  SnapshotCache cache;
  if (!options.snapshot_bank.empty()) cache.set_file_bank(options.snapshot_bank);
  SnapshotCache* cache_ptr = options.snapshot_reuse ? &cache : nullptr;
  SystemPool system_pool;
  common::ThreadPool pool(options.num_threads);
  pool.parallel_for(variants.size(), [&](std::size_t index) {
    const SweepVariant& variant = variants[index];
    // Variants sharing a config shape (repeat runs, warm-up
    // length sweeps) reuse one System per worker via reset_in_place —
    // byte-identical to fresh construction, minus the allocation storm.
    SystemPool::Lease lease = system_pool.acquire(variant.config, mix);
    if (lease.pooled_hit()) lease->reset_in_place(mix);
    sim::System& system = *lease;
    warm_system(system, mix, variant.warmup_instructions, cache_ptr,
                options.shared_warmup);
    body(system, index);
  });
}

}  // namespace bacp::harness

#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/args.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "sim/system.hpp"
#include "trace/mix.hpp"

namespace bacp::harness {

/// Concurrent warm-state cache for sweep harnesses: snapshots keyed by a
/// warm-state fingerprint (config digest + warm-up length), computed at most
/// once. The first caller of a key runs the warm-up outside the lock while
/// later callers of the same key block on a shared future, so a sweep whose
/// variants share a fingerprint pays for exactly one warm-up no matter how
/// many ThreadPool workers race for it.
class SnapshotCache {
 public:
  using SnapshotPtr = std::shared_ptr<const snapshot::SystemSnapshot>;
  using WarmFn = std::function<snapshot::SystemSnapshot()>;

  /// Returns the snapshot stored under `key`, invoking `warm` to produce it
  /// if this is the key's first caller. `warm` runs outside the cache lock;
  /// concurrent callers for the same key wait for its result instead of
  /// warming redundantly.
  SnapshotPtr get_or_warm(std::uint64_t key, const WarmFn& warm);

  /// File-backed mode: snapshots persist in `directory` as `<16-hex-key>.snap`
  /// (the raw snapshot buffer, mmap-ably flat). A first caller whose key is
  /// on disk loads and validates the file instead of warming; a failed
  /// validation discards the file's bytes and rewarms (the bank is a pure
  /// cache — a corrupt entry can cost time, never correctness). Freshly
  /// warmed snapshots are published via temp file + atomic rename, so
  /// concurrent shard processes sharing one bank never read a torn file.
  /// Empty string disables (the default, in-memory only).
  void set_file_bank(std::string directory) BACP_EXCLUDES(mutex_);
  std::string file_bank() const BACP_EXCLUDES(mutex_) {
    common::MutexLock lock(mutex_);
    return bank_directory_;
  }

  std::uint64_t hits() const BACP_EXCLUDES(mutex_);
  std::uint64_t misses() const BACP_EXCLUDES(mutex_);
  std::uint64_t file_hits() const BACP_EXCLUDES(mutex_);

 private:
  // The disk-bank helpers take the bank directory as a parameter: the warm
  // path runs outside the lock by design, so it works on a copy of
  // bank_directory_ taken under the lock rather than re-reading the member.
  static std::string bank_path(const std::string& directory, std::uint64_t key);
  /// Disk probe for `key`: loaded-and-validated snapshot or nullptr. The
  /// snapshot adopts the mapped file zero-copy (the map is validated
  /// fail-closed before it is returned).
  static SnapshotPtr try_load(const std::string& directory, std::uint64_t key);
  static void store(const std::string& directory, std::uint64_t key,
                    const snapshot::SystemSnapshot& snapshot);

  mutable common::Mutex mutex_;
  std::map<std::uint64_t, std::shared_future<SnapshotPtr>> entries_
      BACP_GUARDED_BY(mutex_);
  std::string bank_directory_ BACP_GUARDED_BY(mutex_);
  std::uint64_t hits_ BACP_GUARDED_BY(mutex_) = 0;
  std::uint64_t misses_ BACP_GUARDED_BY(mutex_) = 0;
  std::uint64_t file_hits_ BACP_GUARDED_BY(mutex_) = 0;
};

/// Cache key for a warm-up: warm state is a pure function of the config
/// digest (sim::config_digest or sim::warm_state_digest) and the number of
/// warm-up instructions, so the key folds both together.
std::uint64_t warmup_key(std::uint64_t state_digest, std::uint64_t warmup_instructions);

/// Brings `system` to its warm starting point. With `cache == nullptr` this
/// is a plain cold warm-up. With a cache and `shared_warmup == false`, the
/// warm-up runs once per exact warm-state fingerprint
/// (sim::config_digest + warm-up length) and the system is restored
/// bit-identically from the snapshot — artifacts are byte-for-byte the same
/// as cold warm-up. With `shared_warmup == true`, one policy-neutral warm-up
/// per (mix, scale) under sim::canonical_warm_config() is adopted into every
/// variant via System::adopt_warm_state() — results change by design.
void warm_system(sim::System& system, const trace::WorkloadMix& mix,
                 std::uint64_t warmup_instructions, SnapshotCache* cache,
                 bool shared_warmup);

/// One point of a configuration sweep: a finalized config plus its warm-up
/// length, labelled for reports.
struct SweepVariant {
  std::string label;
  sim::SystemConfig config;  ///< must be finalized
  std::uint64_t warmup_instructions = 0;
};

struct VariantSweepOptions {
  /// Worker threads (0 = hardware concurrency). Variants are independent
  /// simulations, so results are identical for any worker count.
  std::size_t num_threads = 0;
  /// Warm once per distinct warm-state fingerprint and fork the snapshot
  /// (byte-identical to cold warm-up); off = always warm cold.
  bool snapshot_reuse = true;
  /// Opt-in: share one canonical warm-up across all variants of a mix
  /// (changes results by design — see warm_system()).
  bool shared_warmup = false;
  /// Directory for file-backed warm snapshots shared across processes
  /// (SnapshotCache::set_file_bank); empty = in-memory reuse only.
  std::string snapshot_bank;

  VariantSweepOptions& with_num_threads(std::size_t value) {
    num_threads = value;
    return *this;
  }
  VariantSweepOptions& with_snapshot_bank(std::string value) {
    snapshot_bank = std::move(value);
    return *this;
  }
  VariantSweepOptions& with_snapshot_reuse(bool value) {
    snapshot_reuse = value;
    return *this;
  }
  VariantSweepOptions& with_shared_warmup(bool value) {
    shared_warmup = value;
    return *this;
  }

  /// The shared sweep-execution flags (--threads, --snapshot-bank,
  /// --no-snapshot-reuse, --shared-warmup); every sweep binary takes
  /// exactly these, and the config structs that embed sweep knobs
  /// (DetailedRunConfig, sched::ServiceConfig drivers) forward here
  /// instead of re-declaring them. Pair with from_args().
  static std::vector<std::pair<std::string, std::string>> cli_flags();

  /// Standard precedence: explicit flag, then BACP_THREADS, then defaults.
  static VariantSweepOptions from_args(const common::ArgParser& parser);
};

/// Runs every variant over a ThreadPool: construct the variant's System,
/// bring it to its warm point via warm_system(), then hand it to `body`
/// along with the variant index. `body` must write its findings into
/// caller-owned per-index slots (it runs concurrently); emitting rows in
/// variant order afterwards keeps artifacts independent of the thread count.
void run_variant_sweep(std::span<const SweepVariant> variants,
                       const trace::WorkloadMix& mix, const VariantSweepOptions& options,
                       const std::function<void(sim::System&, std::size_t)>& body);

}  // namespace bacp::harness

// Shared pieces of the benchmark binary: options, the metric/result shape,
// the in-memory span recorder, output digests and process counters.
//
// Every timing here is taken from outside the program, around calls into a
// module's public functions; the program itself is built unmodified.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string pins_path;  ///< pinned digests ("<workload> <seed> <key> <hex>")
  std::string work_dir;   ///< working space inside the checkout
  std::string spans_path; ///< traced runs write their spans here
  double process_start = 0.0;  ///< now_seconds() at entry to main()
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main(): the op tally behind `attempted` /
/// `failed`, whether every structural output check held, and the metrics of
/// this run's mode (end-to-end when untraced, per-layer when traced).
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< printed before the result line

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail_check(const std::string& why) {
    correct = false;
    notes.push_back("check failed: " + why);
  }
};

inline double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// In-memory span recorder. A span covers one call (or one counted loop of
/// calls) into a layer's public function; spans nest through an explicit
/// stack, so a span's parent is whatever span was open when it started.
/// When disabled every operation is a no-op that reads no clock, which is
/// how the untraced run pays nothing for it.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
    std::uint32_t op = 0;
    std::uint64_t calls = 1;  ///< calls the span covers (loops of tiny calls)
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  void set_op(std::uint32_t op) { op_ = op; }

  /// RAII span; `calls` is how many calls into the layer it covers.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t calls = 1)
        : tracer_(&tracer), index_(tracer.open(name, calls)) {}
    ~Scope() { tracer_->close(index_); }
    /// For loops whose call count is known only at their end.
    void set_calls(std::uint64_t calls) { tracer_->set_calls(index_, calls); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int32_t index_;
  };

  std::int32_t open(const char* name, std::uint64_t calls);
  void close(std::int32_t index);
  void set_calls(std::int32_t index, std::uint64_t calls) {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].calls = calls;
  }

  /// Self time of every span named `name`: its duration minus the part its
  /// direct children cover. Summed over all such spans, in seconds.
  double self_seconds(const std::string& name) const;
  /// Total calls the spans named `name` cover.
  std::uint64_t calls(const std::string& name) const;
  /// Self seconds per covered call of `name` (0 when never called).
  double self_per_call(const std::string& name) const;

  /// Writes every span as one JSON array (name, start/end ns relative to
  /// the first span, parent index, op id, calls, self ns).
  bool write(const std::string& path) const;
  std::size_t size() const { return spans_.size(); }

 private:
  void aggregate() const;

  bool enabled_;
  std::uint32_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  mutable bool aggregated_ = false;
  mutable std::vector<std::int64_t> self_ns_;
  mutable std::map<std::string, std::pair<double, std::uint64_t>> by_name_;
};

/// FNV-1a folds (the repository's digest family) for output digests.
inline std::uint64_t fold_u64(std::uint64_t hash, std::uint64_t value) {
  for (unsigned shift = 0; shift < 64; shift += 8) {
    hash ^= (value >> shift) & 0xFFu;
    hash *= 0x100000001B3ull;
  }
  return hash;
}

inline std::uint64_t fold_double(std::uint64_t hash, double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return fold_u64(hash, bits);
}

inline constexpr std::uint64_t kDigestBasis = 0xCBF29CE484222325ull;

std::string hex64(std::uint64_t value);

/// Output check behind `failed`: an op's digest must equal the digest the
/// pins file holds for (workload, seed, key) and the first digest this run
/// saw for the key (the set-up reference). Seeds without a pin are checked
/// against the reference alone.
class DigestCheck {
 public:
  explicit DigestCheck(const Options& options);

  /// Records or compares one op's digest; true when it matches.
  bool check(const std::string& key, std::uint64_t digest);
  /// Digests compared against a pin so far.
  std::size_t pins_checked() const { return pins_checked_; }
  const std::map<std::string, std::uint64_t>& references() const { return reference_; }

 private:
  std::map<std::string, std::uint64_t> pins_;
  std::map<std::string, std::uint64_t> reference_;
  std::size_t pins_checked_ = 0;
};

/// Process counters: heap allocations through the benchmark binary's global
/// operator new, and getrusage readings.
std::uint64_t allocations();

struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  std::uint64_t minor_faults = 0;
};
Usage usage_now();
double peak_rss_mb();

/// Median of a sample (0 for an empty one).
double median(std::vector<double> values);

/// The workloads. Each runs its set-up, then its closed loop of ops for
/// options.seconds, and fills the metrics of the run's mode.
Result run_mc_analytic(const Options& options, DigestCheck& digests, Tracer& tracer);
Result run_mc_sampled(const Options& options, DigestCheck& digests, Tracer& tracer);

/// Traced-run section for the detailed simulator (fig8.cpp): one pass over
/// the Fig. 8/9 matrix — each cell an op, digest-checked under its cell
/// key — and a layer replay, adding the sim/nuca/noc/mem/coherence/cache/
/// trace/msa per-access metrics, the simulated counts and paper_err_*.
void add_detailed_layer_metrics(const Options& options, DigestCheck& digests, Tracer& tracer,
                                Result& result);

}  // namespace perfbench

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace bacp::obs {

/// Wall-clock accounting of coarse harness phases (profile / allocate /
/// simulate, per-policy runs, Monte-Carlo sweeps). Scopes are RAII; the
/// accumulator is mutex-guarded so parallel trials may time themselves.
///
/// Wall time is inherently non-deterministic, so these readings are for
/// console diagnostics only — they are deliberately kept out of the
/// deterministic JSON artifacts.
class PhaseTimers {
 public:
  struct Phase {
    std::string name;
    double seconds = 0.0;
    std::uint64_t calls = 0;
  };

  class Scope {
   public:
    Scope(PhaseTimers& timers, std::string_view name)
        // NOLINTNEXTLINE(bacp-det-wallclock): phase timing measures real elapsed host time by design; never feeds simulated state
        : timers_(&timers), name_(name), start_(Clock::now()) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      // NOLINTNEXTLINE(bacp-det-wallclock): host-time observability, as above
      timers_->add(name_, std::chrono::duration<double>(Clock::now() - start_).count());
    }

   private:
    using Clock = std::chrono::steady_clock;
    PhaseTimers* timers_;
    std::string_view name_;
    Clock::time_point start_;
  };

  /// Starts timing `name`; the elapsed wall time is added when the returned
  /// scope is destroyed. `name` is borrowed, not copied — it must outlive
  /// the scope (a literal or a caller's local) — so timing a phase
  /// allocates nothing once the phase exists.
  Scope scope(std::string_view name) { return Scope(*this, name); }

  void add(std::string_view name, double seconds) BACP_EXCLUDES(mutex_);

  /// Name-sorted snapshot of all phases.
  std::vector<Phase> phases() const BACP_EXCLUDES(mutex_);
  double seconds(std::string_view name) const BACP_EXCLUDES(mutex_);
  void clear() BACP_EXCLUDES(mutex_);

  /// "phase timings: name 1.23s (4 calls), ..." or "" when empty.
  std::string summary() const BACP_EXCLUDES(mutex_);

 private:
  mutable common::Mutex mutex_;
  std::map<std::string, Phase, std::less<>> phases_ BACP_GUARDED_BY(mutex_);
};

/// Process-wide timer set the harness records into; benches print its
/// summary() after their tables.
PhaseTimers& global_phase_timers();

}  // namespace bacp::obs

// Tracer, digest check and process counters.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>

#include "bench.hpp"

namespace {

// Global operator new counter, the idiom bench_perf_throughput and
// bench_trial_throughput use: every heap allocation in the process, so
// allocs/op is a whole-program number. Relaxed ordering suffices; readings
// bracket whole ops on the driving thread.
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* ptr = std::malloc(size == 0 ? 1 : size)) return ptr;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }

namespace perfbench {

std::uint64_t allocations() { return g_allocations.load(std::memory_order_relaxed); }

Usage usage_now() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {seconds(usage.ru_utime), seconds(usage.ru_stime),
          static_cast<std::uint64_t>(usage.ru_minflt)};
}

double peak_rss_mb() {
  // VmHWM rather than getrusage's ru_maxrss: Linux carries ru_maxrss over
  // execve, so it would report the launching Python process's peak when
  // that is larger. VmHWM belongs to this program's own address space.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

std::string hex64(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx", static_cast<unsigned long long>(value));
  return buffer;
}

std::int32_t Tracer::open(const char* name, std::uint64_t calls) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.op = op_;
  span.calls = calls;
  spans_.push_back(span);
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  stack_.push_back(index);
  aggregated_ = false;
  spans_.back().start_ns = now_ns();  // last, so set-up is outside the span
  return index;
}

void Tracer::close(std::int32_t index) {
  if (index < 0) return;
  const std::int64_t end = now_ns();
  spans_[static_cast<std::size_t>(index)].end_ns = end;
  stack_.pop_back();
}

void Tracer::aggregate() const {
  if (aggregated_) return;
  self_ns_.assign(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self_ns_[i] += spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent >= 0) {
      self_ns_[static_cast<std::size_t>(spans_[i].parent)] -=
          spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  by_name_.clear();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& entry = by_name_[spans_[i].name];
    entry.first += static_cast<double>(self_ns_[i]) * 1e-9;
    entry.second += spans_[i].calls;
  }
  aggregated_ = true;
}

double Tracer::self_seconds(const std::string& name) const {
  aggregate();
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? 0.0 : it->second.first;
}

std::uint64_t Tracer::calls(const std::string& name) const {
  aggregate();
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? 0 : it->second.second;
}

double Tracer::self_per_call(const std::string& name) const {
  const std::uint64_t n = calls(name);
  return n == 0 ? 0.0 : self_seconds(name) / static_cast<double>(n);
}

bool Tracer::write(const std::string& path) const {
  aggregate();
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << span.name
        << "\",\"start_ns\":" << span.start_ns - origin
        << ",\"end_ns\":" << span.end_ns - origin << ",\"parent\":" << span.parent
        << ",\"op\":" << span.op << ",\"calls\":" << span.calls
        << ",\"self_ns\":" << self_ns_[i] << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out.flush());
}

DigestCheck::DigestCheck(const Options& options) {
  if (options.pins_path.empty()) return;
  std::ifstream in(options.pins_path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, key, hex;
    std::uint64_t seed = 0;
    if (!(fields >> workload >> seed >> key >> hex)) continue;
    if (workload != options.workload || seed != options.seed) continue;
    pins_[key] = std::strtoull(hex.c_str(), nullptr, 16);
  }
}

bool DigestCheck::check(const std::string& key, std::uint64_t digest) {
  bool ok = true;
  if (const auto pin = pins_.find(key); pin != pins_.end()) {
    ++pins_checked_;
    ok = pin->second == digest;
  }
  const auto [it, inserted] = reference_.emplace(key, digest);
  if (!inserted && it->second != digest) ok = false;
  return ok;
}

}  // namespace perfbench

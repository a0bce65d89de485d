// bacp_perfbench: runs one benchmark workload against the Release build of
// the bacp libraries and prints one JSON object as its last stdout line:
//   {"correct", "attempted", "failed", "metrics": {name: {value, unit}},
//    "build": {...}, "pins_checked", "digests": {op key: hex}, "notes": [...]}
// perfbench/run.py builds this binary, drives it and shapes the final
// result line; see perfbench/README.md.
//
// Usage: bacp_perfbench --workload <mc_analytic|mc_sampled>
//          --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//          [--pins <file>] [--spans <file>]

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "common/simd.hpp"

namespace {

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

int usage(const char* why) {
  std::cerr << "bacp_perfbench: " << why
            << "\nusage: bacp_perfbench --workload <mc_analytic|mc_sampled>"
               " --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>"
               " [--pins <file>] [--spans <file>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  options.process_start = perfbench::now_seconds();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0)) {
        return usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--pins") {
      options.pins_path = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--spans") {
      options.spans_path = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return usage("every flag takes a value");
  if (options.work_dir.empty()) return usage("--work-dir is required");
  std::filesystem::create_directories(options.work_dir);

  perfbench::Tracer tracer(options.trace);
  perfbench::DigestCheck digests(options);
  perfbench::Result result;
  if (options.workload == "mc_analytic") {
    result = perfbench::run_mc_analytic(options, digests, tracer);
  } else if (options.workload == "mc_sampled") {
    result = perfbench::run_mc_sampled(options, digests, tracer);
  } else {
    return usage(("unknown workload '" + options.workload + "'").c_str());
  }
  if (options.trace && !options.spans_path.empty() && !tracer.write(options.spans_path)) {
    std::cerr << "bacp_perfbench: cannot write spans to " << options.spans_path << "\n";
    return 1;
  }

  std::string line = "{\"correct\": ";
  line += result.correct && result.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& metric = result.metrics[i];
    line += (i == 0 ? "" : ", ") + json_string(metric.name) + ": {\"value\": " +
            json_number(metric.value) + ", \"unit\": " + json_string(metric.unit) + "}";
  }
  line += "}, \"build\": {\"simd_tier\": " +
          json_string(bacp::common::simd::to_string(bacp::common::simd::active_tier())) +
          ", \"compiler\": " + json_string(PERFBENCH_COMPILER) +
          ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
          ", \"spans\": " + std::to_string(tracer.size()) + "}, \"pins_checked\": " +
          std::to_string(digests.pins_checked()) + ", \"digests\": {";
  for (const auto& [key, digest] : digests.references()) {
    line += (key == digests.references().begin()->first ? "" : ", ") + json_string(key) +
            ": " + json_string(perfbench::hex64(digest));
  }
  line += "}, \"notes\": [";
  for (std::size_t i = 0; i < result.notes.size(); ++i) {
    line += (i == 0 ? "" : ", ") + json_string(result.notes[i]);
  }
  line += "]}";
  std::cout << line << std::endl;
  return 0;
}

// Layer-isolating benchmark binary.  One process runs one workload for a
// fixed window and prints, as its last stdout line, one JSON object:
// {"correct", "attempted", "failed", "metrics"}.  Untraced runs report the
// end-to-end metrics; `--trace 1` reports the per-layer metrics and prints
// a layer self-time table first.  See perfbench/README.md.
//
//   mhla_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--trace-dir <dir>]

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "harness.h"

using namespace perfbench;

namespace {

int usage() {
  std::cerr << "usage: mhla_perfbench --workload design_flow|explore_frontier|exact_search|"
               "serve_mix --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]\n";
  return 2;
}

/// Peak resident set of this process image, from /proc/self/status.  Not
/// getrusage: Linux carries ru_maxrss across execve, so it would report the
/// launching process (for example a Python wrapper) when that was larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0.0;
}

void print_result(const Result& result) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  const char* sep = "";
  for (const Result::Metric& m : result.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, m.name.c_str(), m.value,
                m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        options.trace = value == "1";
      } else if (arg == "--trace-dir") {
        options.trace_dir = value;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (!have_workload || !(options.seconds > 0.0)) return usage();

  Result result;
  try {
    if (options.workload == "design_flow") {
      result = run_design_flow(options);
    } else if (options.workload == "explore_frontier") {
      result = run_explore_frontier(options);
    } else if (options.workload == "exact_search") {
      result = run_exact_search(options);
    } else if (options.workload == "serve_mix") {
      result = run_serve_mix(options);
    } else {
      return usage();
    }
  } catch (const std::exception& error) {
    std::cerr << "mhla_perfbench: " << options.workload << ": " << error.what() << "\n";
    return 1;
  }

  for (Result::Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      result.fail("metric " + m.name + " is not finite");
      m.value = 0.0;
    }
  }
  if (options.trace) {
    result.metric("check.count_mismatches", static_cast<double>(result.count_mismatches),
                  "count");
    // Every per-layer metric appears on every workload; a layer this
    // workload never called reads 0.
    std::vector<Result::Metric> ordered;
    for (const auto& [name, unit] : per_layer_metrics()) {
      double value = 0.0;
      for (const Result::Metric& m : result.metrics) {
        if (m.name == name) value = m.value;
      }
      ordered.push_back({name, value, unit});
    }
    result.metrics = std::move(ordered);
  } else {
    result.metric("peak_rss_mb", peak_rss_mb(), "MB");
    for (const Result::Metric& m : result.metrics) {
      if (!(std::isfinite(m.value) && m.value > 0.0)) {
        result.fail("end-to-end metric " + m.name + " is not a positive number");
      }
    }
  }
  if (result.attempted == 0) {
    std::cerr << "mhla_perfbench: " << options.workload << ": no operation was attempted\n";
    return 1;
  }
  if (result.count_mismatches > 0) {
    std::cerr << "mhla_perfbench: " << options.workload << ": " << result.count_mismatches
              << " work counts did not repeat for the same input (nondeterminism)\n";
  }
  for (const std::string& error : result.errors) {
    std::cerr << "mhla_perfbench: " << options.workload << ": check failed: " << error << "\n";
  }
  print_result(result);
  return 0;
}

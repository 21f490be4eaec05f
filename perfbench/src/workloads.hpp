// The three workloads of the admission benchmark (see README.md for why
// each one exists and which layers it loads).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Sizes the run: the timed phase holds seconds x the workload's
  /// nominal rate of rounds (pump mode) or lasts this long (open loop).
  int seconds = 10;
  /// Traced run: per-layer metrics, span file, allocation counts.
  bool trace = false;
  std::string trace_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> notes;
};

/// Runs workload @p options.workload; throws std::invalid_argument for an
/// unknown name.
[[nodiscard]] RunResult run_workload(const RunOptions& options);

[[nodiscard]] const std::vector<std::string>& workload_names();

}  // namespace perfbench

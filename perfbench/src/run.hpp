// One benchmark run: set-up, measured rounds, checks and metrics.
#pragma once

#include <cstdint>
#include <string>

#include "measure.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where a traced run writes its spans (none when empty).
  std::string spans_out;
  /// Shrunken inputs, for the self-tests.
  bool small = false;
};

[[nodiscard]] bool is_workload(const std::string& name);

/// Every workload runs all three passes — each end-to-end and per-layer
/// metric is reported on every workload — and gives the pass it is named
/// after the larger share of the measuring time.
[[nodiscard]] Report run_workload(const RunOptions& opts);

/// Runs the benchmark's own tests; returns the process exit code.
[[nodiscard]] int run_selftests();

}  // namespace perfbench

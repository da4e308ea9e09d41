// Untraced end-to-end measurement of one workload (`--trace 0`).
//
// Every number here comes from the product path: rt boots through the
// public composition API (setup_s), and scenario::run_scenario on the sim
// and rt engines with no instrumentation beyond what the runner itself
// installs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "metrics.hpp"
#include "scenario/runner.hpp"
#include "workload.hpp"

namespace dpu::bench {

/// Result of one benchmark invocation.
struct RunReport {
  std::vector<Metric> metrics;  ///< the gated set, in BENCHMARK.json order
  std::vector<Metric> detail;   ///< workload-specific extras (report only)
  std::uint64_t attempted = 0;  ///< workload messages offered, all runs
  std::uint64_t failed = 0;     ///< audit violations + undelivered messages
  /// Why the run is not correct, as plain text (never payload bytes).
  std::vector<std::string> problems;

  [[nodiscard]] bool correct() const { return failed == 0 && problems.empty(); }
};

/// Process CPU seconds (user + system, all threads) so far.
[[nodiscard]] double process_cpu_seconds();

/// Audit violations of a run, counted — the strings embed raw payload
/// bytes and are never printed.
[[nodiscard]] std::uint64_t violation_count(const scenario::ScenarioResult& r);

/// Runs `w` untraced on both engines and returns the end-to-end metrics.
[[nodiscard]] RunReport measure_end_to_end(const Workload& w,
                                           std::uint64_t seed);

}  // namespace dpu::bench

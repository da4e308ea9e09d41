// Benchmark workloads: one ScenarioSpec JSON file per workload under
// bench/e2e/workloads/, with an optional per-engine override.
//
// File shape:
//   { "why":  "<one line: why this workload is in the benchmark>",
//     "spec": { ...ScenarioSpec JSON, times for a 10 s load window... },
//     "sim":  { "spec": { ...partial spec merged over "spec"... },
//               "audit": true },
//     "rt":   { ... same as "sim" ... } }
//
// Every workload starts its load at t = 1 s (the boot is excluded from the
// measured window) and describes a 10 s load window.  The benchmark's
// `--seconds` stretches or shrinks that window: every spec time after the
// load start is scaled by seconds/10, so the same file serves full runs and
// the 1/10-length smoke run.
#pragma once

#include <string>
#include <vector>

#include "scenario/json.hpp"
#include "scenario/spec.hpp"

namespace dpu::bench {

inline constexpr Duration kLoadStart = 1 * kSecond;
inline constexpr Duration kNominalWindow = 10 * kSecond;

/// The spec one engine runs, and whether the §5.1/§3 audit checks it.
struct EngineRun {
  scenario::ScenarioSpec spec;
  bool audit = true;
};

struct Workload {
  std::string name;
  std::string why;
  Duration window = kNominalWindow;  ///< load window after scaling
  /// Smoke run (1/10 length): exercises every path and audit, but its tails
  /// are too thin for the ten-samples rule, which is then not enforced.
  bool smoke = false;
  EngineRun sim;
  EngineRun rt;

  [[nodiscard]] TimePoint load_end() const { return kLoadStart + window; }
};

/// The benchmark's workloads, in report order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Loads `<dir>/<name>.json` and scales it to a load window of `window`.
/// Throws std::runtime_error on a missing/malformed file, a spec field the
/// benchmark does not support, or a spec that fails validate().
[[nodiscard]] Workload load_workload(const std::string& dir,
                                     const std::string& name,
                                     Duration window);

/// Objects merge key by key (recursively); any other value in `over`
/// replaces the one in `base`.
[[nodiscard]] scenario::Json merge_json(scenario::Json base,
                                        const scenario::Json& over);

/// Maps every spec time after kLoadStart onto a load window of `window`
/// (t -> kLoadStart + (t - kLoadStart) * window / kNominalWindow); the
/// drain is left as it is.
[[nodiscard]] scenario::ScenarioSpec scale_window(scenario::ScenarioSpec spec,
                                                  Duration window);

}  // namespace dpu::bench

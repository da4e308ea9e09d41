// Campaign runner: seed sweeps of scenario specs, aggregated to one JSON
// document CI can gate on.
//
// A campaign is the cross product (specs × seeds).  Runs execute in
// parallel across hardware threads — each simulation is single-threaded and
// independent — but the output document is assembled in (spec, seed) order,
// so a campaign's JSON is a pure function of its inputs: byte-identical
// across repeats, machines and thread counts.  CI uploads the document as
// an artifact and fails the build when any run reports an audit violation.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace dpu::scenario {

struct CampaignOptions {
  /// Every spec runs once per seed.
  std::vector<std::uint64_t> seeds = {1, 2, 3};
  RunOptions run;
  /// Worker threads; 0 = hardware concurrency.
  std::size_t threads = 0;
  /// Executes one (spec, seed) cell.  Null = run_scenario with `run` — the
  /// in-process engines.  scenario_campaign injects the ClusterSupervisor
  /// here for proc specs, so the proc engine reuses the whole campaign
  /// pipeline (sweep, document assembly, verdict roll-up) unchanged.
  std::function<ScenarioResult(const ScenarioSpec&, std::uint64_t)> run_fn;
  /// Cooperative cancellation (signal handlers flip it): workers stop
  /// claiming cells, the document marks itself "interrupted" and unrun
  /// cells are omitted.
  const std::atomic<bool>* cancel = nullptr;
};

struct CampaignOutcome {
  /// Full results document (see README "Scenario campaigns").
  Json document;
  bool ok = false;
  std::size_t runs = 0;
  std::size_t failed_runs = 0;
};

[[nodiscard]] CampaignOutcome run_campaign(
    const std::vector<ScenarioSpec>& specs,
    const CampaignOptions& options = {});

}  // namespace dpu::scenario

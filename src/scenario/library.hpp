// Curated scenario library — the named fault/upgrade campaigns CI runs.
//
// Each entry is a ScenarioSpec exercising one adverse schedule from the
// paper's evaluation space: clean switches, switches under load, crashes
// landing inside a replacement window, partitions that heal before an
// update, back-to-back reissue storms, protocol matrices, lossy links and
// large-group churn.  `scenario_campaign --list` prints them;
// tests/scenario asserts they all validate and stay audit-clean.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "scenario/spec.hpp"

namespace dpu::scenario {

/// All curated scenarios, in stable order (the campaign JSON lists them in
/// this order).
[[nodiscard]] std::vector<ScenarioSpec> curated_scenarios();

/// Curated process-per-node deployments (engine "proc"): 50-to-200-stack
/// campaigns sized for real OS processes over UDP sockets.  Kept separate
/// from curated_scenarios() so the sim campaign baseline (byte-compared in
/// CI) is untouched; scenario_campaign runs them by name (--scenario), and
/// the same specs run unchanged on sim/rt via --engine.
[[nodiscard]] std::vector<ScenarioSpec> curated_proc_scenarios();

/// Looks a curated scenario up by name (both libraries).
[[nodiscard]] std::optional<ScenarioSpec> find_scenario(
    const std::string& name);

}  // namespace dpu::scenario

// Campaign supervisor for the process-per-node runner.
//
// ClusterSupervisor::run executes one ScenarioSpec as N real OS processes:
// it writes the spec and a hosts file to a per-run scratch directory,
// fork/execs one dpu_node agent per (initially-present) node, and then
// executes the spec's fault plan against reality — crashes by SIGKILL,
// recoveries and late joins by respawning with a bumped incarnation,
// partitions and loss windows as full fault-state broadcasts each agent
// installs in its socket receive path.  After the activity window it polls
// the agents for quiescence (deliveries stable, no unacked rp2p traffic),
// harvests their result JSON, replays their crash-durable audit journals
// into the §5.1 AbcastAudit, and hands the gathered facts to the distill
// step the in-process engines use (scenario::distill_result) — so every
// verdict follows one rule on all engines, and campaign tooling, perf_gate
// and the property audits run unchanged.
//
// Orphan safety is layered: every agent sets PR_SET_PDEATHSIG(SIGKILL)
// before exec (dies with the supervisor, even on SIGKILL), the supervisor
// kills and reaps every child on destruction and on cancellation, and the
// agents additionally exit on their own after a long supervisor silence.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace dpu::cluster {

struct SupervisorOptions {
  /// Path to the dpu_node agent binary.
  std::string node_binary;
  /// Scratch root: each run writes to <results_dir>/<scenario>-s<seed>/.
  std::string results_dir = "cluster-results";
  /// First data-plane UDP port (node i binds base_port + i).  Defaults
  /// below the kernel's ephemeral range (32768+): an ephemerally-bound
  /// socket — including the agents' own control sockets — must never be
  /// able to squat on a node's data port.
  std::uint16_t base_port = 21000;
  /// Control-channel port (0 = ephemeral).
  std::uint16_t control_port = 0;
  /// Lead time between spawning and the shared epoch: agents booted within
  /// it compose before world time 0.
  Duration boot_grace = 500 * kMillisecond;
  /// Drain policy, mirroring RunOptions for the rt engine.
  Duration drain_cap = 10 * kSecond;
  Duration quiesce_window = 1500 * kMillisecond;
  Duration bucket_width = 100 * kMillisecond;
  /// Checked between steps: when it flips true, every child is killed and
  /// run() throws std::runtime_error (the CLI flushes partial results).
  const std::atomic<bool>* cancel = nullptr;
  /// Keep the per-node scratch files (journals, node JSON) after a run.
  bool keep_artifacts = false;
};

class ClusterSupervisor {
 public:
  explicit ClusterSupervisor(SupervisorOptions options);
  ~ClusterSupervisor();

  ClusterSupervisor(const ClusterSupervisor&) = delete;
  ClusterSupervisor& operator=(const ClusterSupervisor&) = delete;

  /// Runs `spec` (engine proc) under `seed` to a merged ScenarioResult.
  /// Throws std::invalid_argument on a spec scenario::admit_scenario
  /// rejects and std::runtime_error on cancellation or unrecoverable setup
  /// failure.
  [[nodiscard]] scenario::ScenarioResult run(
      const scenario::ScenarioSpec& spec, std::uint64_t seed);

 private:
  class Run;
  SupervisorOptions options_;
};

}  // namespace dpu::cluster

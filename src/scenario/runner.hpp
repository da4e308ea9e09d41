// Scenario runner: executes one ScenarioSpec on either engine.
//
// The runner owns the whole lifecycle of a run: it assembles the stacks
// from the spec's managed-service plan (every replaceable service gets its
// declared mechanism's facade, behind one UpdateManagerModule per stack),
// installs the workload and the instrumentation (latency probes, the ABcast
// property audit, the trace recorder), schedules every fault and update of
// the spec — including crash-recoveries, which re-compose the recovered
// node's stack exactly like at setup — runs the world to quiescence, and
// distills a ScenarioResult: audit verdicts, latency percentiles, switch
// windows/downtime, per-update convergence, and raw counters.  The distill
// step (distill_result) is shared with the proc engine's supervisor, so
// all three engines derive their verdicts from one function.
//
// Updates are dispatched uniformly through the UpdateApi control plane
// (repl/update.hpp): `request_update(service, protocol)` on the initiator's
// stack, whatever the mechanism — the runner has no per-mechanism dispatch.
//
// Everything below the spec goes through WorldControl (runtime/world.hpp),
// so the same code path drives the deterministic simulator (spec.engine ==
// kSim: same spec + same seed => byte-identical output) and the real-thread
// engine (kRt: wall-clock execution, quiescence-polled drain, audited for
// properties — never for byte identity).
#pragma once

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "abcast/audit.hpp"
#include "app/probe.hpp"
#include "core/properties.hpp"
#include "core/trace.hpp"
#include "scenario/compose.hpp"
#include "scenario/spec.hpp"

namespace dpu::scenario {

struct RunOptions {
  Duration bucket_width = 100 * kMillisecond;
  /// Record sends/deliveries and check the §5.1 ABcast properties plus the
  /// §3 generic DPU properties.  Off for pure latency benches (the audit
  /// retains every payload).
  bool with_audit = true;
  std::uint64_t max_events = 500'000'000ULL;
  /// Real-time engine only: cap on the wall-clock drain after the activity
  /// window.  The spec's `drain` is virtual time tuned for the simulator
  /// (typically 30 s); rt runs finish at quiescence — deliveries stable and
  /// no unacked rp2p traffic for `rt_quiesce_window` — long before that,
  /// so the cap only bounds pathological runs.  The quiesce window must
  /// exceed the consensus round timeout (500 ms): a recovering node's
  /// catch-up includes a silent round-timeout stall that must not be
  /// mistaken for quiescence.
  Duration rt_drain_cap = 10 * kSecond;
  Duration rt_quiesce_window = 1500 * kMillisecond;
  /// Simulator event-engine shards.  0 defers to the spec's `sim_shards`;
  /// any other value overrides it without touching the spec — campaign
  /// documents embed the spec verbatim, so an override (CLI `--sim-shards`,
  /// the byte-identity tests) keeps whole documents comparable across
  /// shard counts.  Results are byte-identical at every value.
  std::size_t sim_shards = 0;
};

/// One executed update, reconstructed from the generic control-plane trace
/// markers: when it was requested and when the last stack (including late
/// crash-recovery replays) finished running the new version.
struct UpdateOutcome {
  std::string service;
  std::string protocol;
  TimePoint requested = 0;
  TimePoint converged = 0;     ///< last per-stack completion observed
  std::size_t completions = 0;  ///< per-stack completion events counted

  /// Convergence latency: request -> last stack running the new version.
  [[nodiscard]] Duration convergence() const { return converged - requested; }
};

struct ScenarioResult {
  std::string scenario;
  std::uint64_t seed = 0;

  // Verdicts.
  PropertyReport abcast_report;   ///< §5.1 four ABcast properties
  PropertyReport generic_report;  ///< §3 well-formedness/operationability
  [[nodiscard]] bool ok() const {
    return abcast_report.ok && generic_report.ok;
  }

  // Latency (µs, over all post-start samples).
  std::unique_ptr<LatencyCollector> collector;

  // Counters.
  std::uint64_t messages_sent = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t reissued = 0;         ///< Repl-ABcast
  std::uint64_t stale_discarded = 0;  ///< Repl-ABcast
  std::uint64_t decisions_delivered = 0;  ///< Repl-Consensus
  std::uint64_t snapshots_served = 0;   ///< facade state transfers answered
  std::uint64_t state_replayed = 0;     ///< entries replayed from snapshots
  /// Rbcast cross-version dedup state retained at end of run (interval runs
  /// over live incarnations) — the memory bound under sustained churn.
  std::uint64_t dedup_entries = 0;
  Duration app_blocked_total = 0;     ///< Maestro/Graceful
  std::uint64_t calls_queued = 0;     ///< Maestro/Graceful
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_dropped = 0;
  std::uint64_t retransmissions = 0;  ///< rp2p, summed over stacks
  std::uint64_t acks_sent = 0;        ///< rp2p coalesced cumulative acks
  /// Real-socket transport counters (rt with rt_sockets, and the proc
  /// engine; 0 on the simulator and in-proc rt).  Syscalls vs datagrams
  /// exposes the sendmmsg/recvmmsg batching ratio — the congestion story.
  std::uint64_t socket_tx_syscalls = 0;
  std::uint64_t socket_tx_datagrams = 0;
  std::uint64_t socket_rx_syscalls = 0;
  std::uint64_t socket_rx_datagrams = 0;
  /// Sharded-simulator round counters (0 on rt runs).  Both are pure
  /// functions of event timings — identical at every shard count — which
  /// is why they may live in the byte-compared result document.
  std::uint64_t sim_window_barriers = 0;
  std::uint64_t sim_merge_batches = 0;
  Duration total_virtual_time = 0;
  std::set<NodeId> crashed;     ///< crashed and not recovered by run end
  std::set<NodeId> recovered;   ///< crash-recovered during the run

  /// Final protocol of the replaceable layer per stack (empty string on
  /// crashed stacks; only filled for mechanisms that can switch).  For a
  /// recovered stack this is the *new incarnation's* protocol — the
  /// convergence witness of crash-recovery scenarios.
  std::vector<std::string> final_protocol;

  /// Per executed update: [request time, time the last stack finished].
  std::vector<std::pair<TimePoint, TimePoint>> switch_windows;

  /// Per executed update, with service/protocol identity and convergence
  /// latency (the switch_windows data plus what the generic markers add).
  std::vector<UpdateOutcome> updates;

  /// Longest single switch window ("switch downtime").
  [[nodiscard]] Duration max_switch_downtime() const;

  std::vector<TraceEvent> trace;

  /// Proc engine only: one report object per node (socket counters, packet
  /// tallies, incarnation) as harvested from the agent processes.  Empty on
  /// sim/rt, and then absent from the JSON document.
  std::vector<Json> node_reports;

  /// Structured result record (see README "Scenario campaigns").  Contains
  /// only deterministic data — no wall-clock timestamps.
  [[nodiscard]] Json to_json() const;
};

/// Reconstructs per-update outcomes from the UpdateManagerModule's generic
/// "update-requested"/"update-done" markers.  Completions pair with the
/// latest not-younger request of the same service, so back-to-back updates
/// and crash-recovery replays attribute to the update they complete.
[[nodiscard]] std::vector<UpdateOutcome> extract_update_outcomes(
    const std::vector<TraceEvent>& events);

/// The raw facts an engine gathers from one finished run.  Every engine
/// hands them to distill_result, which derives the verdicts and summaries
/// of the ScenarioResult the same way for all three.  Per-node vectors
/// hold one entry per node of the spec.
struct RunFacts {
  std::set<NodeId> crashed;  ///< down at the end of the run
  /// When each node's current incarnation started (recovery or late
  /// join); -1 for a node that never restarted.
  std::vector<TimePoint> recovery_time;
  /// Counters summed over every incarnation of the node (zero where an
  /// engine cannot observe them); gauges of the last harvested one.
  std::vector<NodeAccum> counts;
  /// Service calls still pending on each live stack at the end of the run.
  std::vector<std::size_t> pending_calls;
  /// Every node's trace, merged in time order.
  std::vector<TraceEvent> trace;
  /// The §5.1 audit fed with every incarnation's sends and deliveries;
  /// null runs no property check at all (RunOptions::with_audit off).
  const AbcastAudit* audit = nullptr;
};

/// Distills `facts` into `result`: crashed/recovered sets, the counter
/// fold, per-update outcomes and their switch windows, the retransmission
/// bound, and, with an audit, the §5.1 verdict, §3 well-formedness over the
/// correct stacks' events, operationability (unless the mechanism is
/// "none") and the pending-call check.  Violations are appended after any
/// the engine recorded itself.
void distill_result(const ScenarioSpec& spec, RunFacts facts,
                    ScenarioResult& result);

/// Admits `spec` to any engine: validate(), plus the composition-level rule
/// that recoveries and late joins need every managed layer to support state
/// transfer (ProtocolRegistry::state_transfer).  Throws
/// std::invalid_argument naming the problems.
void admit_scenario(const ScenarioSpec& spec);

/// Runs `spec` under `seed` in-process (engine sim or rt).  The spec must
/// be admissible; throws std::invalid_argument otherwise, and for engine
/// proc, which cluster::ClusterSupervisor runs.
[[nodiscard]] ScenarioResult run_scenario(const ScenarioSpec& spec,
                                          std::uint64_t seed,
                                          const RunOptions& options = {});

}  // namespace dpu::scenario

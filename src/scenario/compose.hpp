// Shared stack composition for scenario execution.
//
// One ScenarioSpec describes one composition; three engines execute it: the
// deterministic simulator, the real-thread engine (both world-in-one-process,
// driven by runner.cpp) and the process-per-node cluster runner (one agent
// process per stack, src/cluster).  This header is the single place that
// turns a spec into a live stack — module choice, creation order, workload
// window shifting for recovered incarnations — so an agent process composes
// byte-for-byte the same stack the in-process engines do.
//
// The creation order below is load-bearing: the simulator campaign baseline
// (ci/campaign_baseline.json) pins results that depend on it, and several
// modules resolve their dependencies positionally (the update manager must
// exist before any mechanism facade; the consensus facade must exist before
// an abcast protocol that recursively requires consensus).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "abcast/abcast.hpp"
#include "app/policy.hpp"
#include "app/probe.hpp"
#include "app/stack_builder.hpp"
#include "app/workload.hpp"
#include "core/stack.hpp"
#include "net/rp2p.hpp"
#include "repl/baseline_graceful.hpp"
#include "repl/baseline_maestro.hpp"
#include "repl/repl_abcast.hpp"
#include "repl/repl_consensus.hpp"
#include "repl/repl_gm.hpp"
#include "repl/repl_rbcast.hpp"
#include "repl/update.hpp"
#include "scenario/spec.hpp"

namespace dpu::scenario {

/// Live module handles of one stack's current incarnation.  Recovery
/// replaces every pointer (the old modules die with the old Stack).
struct NodeModules {
  UpdateManagerModule* update = nullptr;
  ReplAbcastModule* repl = nullptr;
  ReplConsensusModule* repl_cons = nullptr;
  ReplRbcastModule* repl_rbcast = nullptr;
  ReplGmModule* repl_gm = nullptr;
  MaestroSwitchModule* maestro = nullptr;
  GracefulSwitchModule* graceful = nullptr;
  PolicyEngineModule* policy = nullptr;
  Rp2pModule* rp2p = nullptr;
  WorkloadModule* workload = nullptr;
  LatencyProbe* probe = nullptr;
};

/// Counters harvested from incarnations that died (crash-recovery): the
/// final tallies are accumulated-over-incarnations plus the live modules.
struct NodeAccum {
  std::uint64_t sent = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t reissued = 0;
  std::uint64_t stale_discarded = 0;
  std::uint64_t decisions_delivered = 0;
  std::uint64_t snapshots_served = 0;
  std::uint64_t state_replayed = 0;
  Duration app_blocked = 0;
  std::uint64_t calls_queued = 0;
  /// Gauge, not a counter: the rbcast dedup state the last harvested
  /// incarnation retained (absent without an rbcast facade).  After the
  /// end-of-run harvest it is the live incarnation's.
  std::optional<std::uint64_t> dedup_entries;

  /// The proc agent's per-node `counts` object (nodes[].counts in proc
  /// result documents); from_json reads it back, absent keys as zero.
  [[nodiscard]] Json to_json() const;
  [[nodiscard]] static NodeAccum from_json(const Json& counts);
};

/// Folds one incarnation's module counters into the accumulator — used
/// both when an incarnation dies (recovery) and at end of run for the live
/// one, so a counter added here is counted across recoveries by
/// construction.  Gauges are overwritten rather than summed.
void harvest_modules(NodeAccum& acc, const NodeModules& m);

/// The composition shape derived from a spec: which layers are replaceable
/// (and by which mechanism) and what every layer's initial protocol is.
/// Pure data — identical in every process that executes the spec.
struct CompositionPlan {
  std::map<std::string, Mechanism> managed;
  Mechanism abcast_mech = Mechanism::kNone;
  bool consensus_managed = false;
  bool rbcast_managed = false;
  bool gm_managed = false;
  std::string consensus_initial;
  std::string rbcast_initial;
  std::string gm_initial;
  std::string abcast_initial;

  [[nodiscard]] static CompositionPlan from_spec(const ScenarioSpec& spec);
};

/// Per-stack instrumentation the engine-side driver wires in: the latency
/// collector the probe feeds, an optional extra abcast listener (the audit
/// tap in-process; the delivery journal in an agent) and an optional
/// pre-abcast send hook (audit record_sent / the send journal).
struct ComposeHooks {
  LatencyCollector* collector = nullptr;
  AbcastListener* extra_listener = nullptr;
  std::function<void(const Bytes&)> on_send;
};

/// One composed stack: the module handles plus the probe the caller must
/// keep alive for the incarnation's lifetime (modules.probe points at it).
struct ComposedStack {
  NodeModules modules;
  std::unique_ptr<LatencyProbe> probe;
};

/// Composes (or re-composes, after recovery) one stack from the spec:
/// transport, substrate, control plane, mechanism facades, policies, the
/// latency probe, the hook listener and the workload — then start_all().
/// `since` is 0 at setup and the recovery time afterwards: it shifts the
/// workload window, which the module interprets relative to its own start.
[[nodiscard]] ComposedStack compose_stack(Stack& stack,
                                          const ScenarioSpec& spec,
                                          const CompositionPlan& plan,
                                          const StandardStackOptions& options,
                                          TimePoint since,
                                          const ComposeHooks& hooks);

/// The convergence witness of one live stack: what the last-updated service
/// (with no update planned, the first managed one) runs there, as its update
/// mechanism reports it.  With nothing replaceable, the composition's
/// initial protocol, which by construction still runs.
[[nodiscard]] std::string final_protocol_of(const ScenarioSpec& spec,
                                            const CompositionPlan& plan,
                                            const NodeModules& m);

/// Substrate tuning + registry registration inputs for a spec: the
/// spec-level mechanism's own layer gets initial_protocol, the fd and
/// rbcast deployment knobs are applied, everything else keeps its standard
/// default.
[[nodiscard]] StandardStackOptions stack_options_for_spec(
    const ScenarioSpec& spec);

}  // namespace dpu::scenario

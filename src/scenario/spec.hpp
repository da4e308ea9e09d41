// Declarative scenario specifications for fault/upgrade campaigns.
//
// A ScenarioSpec describes one adversarial schedule against a world of n
// protocol stacks: the workload shape, the fault schedule (crash-stop
// failures, transient partitions, windows of message loss/duplication) and
// the protocol-update plan (which replacement mechanism performs which
// switch at which virtual time).  Specs are plain data: they serialize to
// JSON (round-trip exact), validate statically, and are executed by the
// campaign runner in src/scenario/runner.hpp.
//
// This echoes how consistent-network-update work evaluates update
// mechanisms against *families* of adversarial schedules instead of one
// hand-rolled script per experiment: the same spec runs under seed sweeps,
// is audited for the paper's §5.1 ABcast properties and §3 generic DPU
// properties, and produces machine-readable results CI can gate on.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "runtime/time.hpp"
#include "scenario/json.hpp"
#include "util/ids.hpp"

namespace dpu::scenario {

/// Which execution engine runs the scenario.  The simulator is the default:
/// deterministic, byte-reproducible output, CI-gateable against baselines.
/// The real-time engine runs the identical protocol code on one OS thread
/// per stack; its runs are audited for the paper's properties but are never
/// byte-reproducible (see README "Scenario campaigns").
enum class Engine {
  kSim,   ///< deterministic discrete-event simulator (src/sim)
  kRt,    ///< real-thread engine, in-process transport (src/rt)
  kProc,  ///< process-per-node cluster runner over UDP sockets (src/cluster)
};

[[nodiscard]] const char* engine_name(Engine e);
/// Inverse of engine_name; throws std::runtime_error on unknown names.
[[nodiscard]] Engine engine_from_name(const std::string& name);

/// Which machinery executes the protocol-update plan (cf. bench::Mode).
enum class Mechanism {
  kNone,           ///< static stack; the update plan must be empty
  kRepl,           ///< the paper's Repl-ABcast (Algorithm 1, "DPU")
  kReplConsensus,  ///< Repl-Consensus facade (the paper's future-work ext.)
  kReplRbcast,     ///< Repl-RBcast facade (reliable broadcast, substrate)
  kReplGm,         ///< Repl-GM facade (group membership, substrate)
  kMaestro,        ///< full-stack switch baseline
  kGraceful,       ///< barrier-switch baseline (Graceful Adaptation)
};

[[nodiscard]] const char* mechanism_name(Mechanism m);
/// Inverse of mechanism_name; throws std::runtime_error on unknown names.
[[nodiscard]] Mechanism mechanism_from_name(const std::string& name);

/// The mechanism that manages `service` when none is named explicitly
/// ("abcast" -> kRepl, "consensus" -> kReplConsensus, "rbcast" ->
/// kReplRbcast, "gm" -> kReplGm); kNone for unknown services.
[[nodiscard]] Mechanism default_mechanism_for_service(
    const std::string& service);

/// Time-varying load shaping: one phase modifies the workload rate inside
/// (or from) its window.  Two kinds:
///  * burst — multiply the current rate by `value` during [from, until);
///  * ramp  — interpolate the rate linearly toward `value` (an absolute
///    rate per stack) across [from, until), then hold it.
/// Phases apply in list order, so a ramp's target can itself be burst.
struct WorkloadPhase {
  enum class Kind { kBurst, kRamp };
  Kind kind = Kind::kBurst;
  TimePoint from = 0;
  TimePoint until = 0;
  double value = 1.0;  ///< burst: rate multiplier; ramp: target rate/stack

  friend bool operator==(const WorkloadPhase&, const WorkloadPhase&) = default;
};

/// Open-loop workload applied by every stack (see app/workload.hpp).
struct WorkloadShape {
  double rate_per_stack = 50.0;  ///< messages per second per stack
  std::size_t message_size = 64;
  bool poisson = true;
  Duration start_after = 0;
  Duration stop_after = 0;  ///< 0 = the spec's duration
  /// Ramp/burst schedule (empty = constant rate).
  std::vector<WorkloadPhase> phases;

  friend bool operator==(const WorkloadShape&, const WorkloadShape&) = default;
};

/// Crash-stop failure of one stack.
struct CrashFault {
  TimePoint at = 0;
  NodeId node = 0;

  friend bool operator==(const CrashFault&, const CrashFault&) = default;
};

/// Crash-recovery: restarts a previously crashed stack with a fresh
/// protocol state (same node id, bumped incarnation).  The runner
/// recomposes the stack's modules exactly like at world setup; the GM/FD
/// layers re-admit the node (heartbeats rescind the suspicion) and the
/// consensus catch-up resends the decisions the node missed, so it
/// converges to the group's current protocol version.
struct RecoverFault {
  TimePoint at = 0;
  NodeId node = 0;

  friend bool operator==(const RecoverFault&, const RecoverFault&) = default;
};

/// Late join: `node` sits out the run's beginning and boots fresh at `at`
/// (incarnation 1, empty protocol state), catching up through the same
/// state-transfer path as a crash-recovery.  The runner realizes it as a
/// crash at t=1ms plus a recovery at `at`, so the node is down from
/// (effectively) the start; the majority rule counts late joiners as down
/// until they join.
struct LateJoin {
  TimePoint at = 0;
  NodeId node = 0;

  friend bool operator==(const LateJoin&, const LateJoin&) = default;
};

/// Directional per-link override inside a loss window: link (src -> dst)
/// uses these probabilities instead of the window's, plus extra one-way
/// latency.  Lets partitions and lossy links be asymmetric.
struct LinkOverride {
  NodeId src = 0;
  NodeId dst = 0;
  double drop = 0.0;
  double duplicate = 0.0;
  Duration extra_latency = 0;

  friend bool operator==(const LinkOverride&, const LinkOverride&) = default;
};

/// Transient partition: `isolated` forms one side, everyone else the other;
/// cross-side packets are dropped during [from, until).
struct PartitionFault {
  TimePoint from = 0;
  TimePoint until = 0;
  std::vector<NodeId> isolated;

  friend bool operator==(const PartitionFault&,
                         const PartitionFault&) = default;
};

/// Window of elevated message loss/duplication on every link, optionally
/// with directional per-link overrides.
struct LossWindow {
  TimePoint from = 0;
  TimePoint until = 0;
  double drop = 0.0;
  double duplicate = 0.0;
  std::vector<LinkOverride> link_overrides;

  friend bool operator==(const LossWindow&, const LossWindow&) = default;
};

/// One step of the protocol-update plan: switch `service` to library
/// `protocol` via `mechanism`.  Service and mechanism are optional —
/// `service` defaults to the library-name prefix ("abcast.seq" -> "abcast")
/// and `mechanism` to the spec-level default — which is exactly the shape
/// pre-UpdateApi specs had, so old JSON parses unchanged.
struct UpdateAction {
  TimePoint at = 0;
  NodeId initiator = 0;
  /// Library name of the target, e.g. "abcast.seq", "consensus.mr".
  std::string protocol;
  /// Replaceable service to switch ("" = derive from the protocol prefix).
  std::string service;
  /// Mechanism executing this update ("" = the spec's `mechanism`).
  std::string mechanism;

  /// The service this update targets, after defaulting.
  [[nodiscard]] std::string target_service() const {
    if (!service.empty()) return service;
    const std::size_t dot = protocol.find('.');
    return dot == std::string::npos ? protocol : protocol.substr(0, dot);
  }

  friend bool operator==(const UpdateAction&, const UpdateAction&) = default;
};

/// One adaptation policy rule, instantiated as a PolicyEngine rule on every
/// stack (app/policy.hpp): when `trigger` holds — the failure detector
/// suspects `node` ("fd-suspect"), window-mean delivery latency reaches
/// `latency_threshold` ("latency"), or the observed delivery rate reaches
/// `rate_threshold` ("load") — and the service currently runs
/// `when_protocol` (if set), the engine issues
/// `request_update(service, to_protocol)`.  Closed-loop adaptation: no
/// scripted `updates` entry needed.
struct PolicySpec {
  std::string name;            ///< trace/log label ("" = "policy-<index>")
  std::string service = "abcast";
  std::string when_protocol;   ///< fire only while this runs ("" = any)
  std::string to_protocol;
  std::string trigger = "fd-suspect";  ///< "fd-suspect" | "latency" | "load"
  NodeId node = kNoNode;       ///< fd-suspect: watched node (kNoNode = any)
  Duration latency_threshold = 0;      ///< latency: window-mean bound
  double rate_threshold = 0.0;         ///< load: deliveries/sec bound
  Duration window = kSecond;           ///< latency/load observation window
  Duration cooldown = 0;               ///< re-arm delay after firing

  friend bool operator==(const PolicySpec&, const PolicySpec&) = default;
};

/// Sanity ceilings enforced by ScenarioSpec::validate().  Generous for any
/// realistic simulation; their real job is rejecting nonsense (including
/// negative JSON integers wrapped through size_t) before it OOMs a run.
inline constexpr std::size_t kMaxStacks = 512;
inline constexpr std::size_t kMaxMessageSize = 1 << 20;

struct ScenarioSpec {
  std::string name;
  std::string description;
  std::size_t n = 3;
  /// Workload window; faults and updates must be scheduled inside it.
  Duration duration = 8 * kSecond;
  /// Extra virtual time after `duration` for in-flight traffic to settle.
  Duration drain = 30 * kSecond;

  /// Execution engine ("sim" | "rt" in JSON).  Every curated scenario runs
  /// on the simulator by default; campaigns flip this (or the CLI's
  /// --engine does) to exercise the same spec on real threads.
  Engine engine = Engine::kSim;

  /// Default mechanism of update actions that do not name their own; also
  /// declares the primary replaceable layer of the composition (kRepl /
  /// kMaestro / kGraceful manage "abcast", kReplConsensus manages
  /// "consensus").  Update actions may add further managed services, e.g. a
  /// "repl-consensus" update under a kRepl spec makes *both* layers
  /// hot-swappable in one run.
  Mechanism mechanism = Mechanism::kRepl;
  /// Initial protocol of the primary replaceable layer ("abcast.*", or
  /// "consensus.*" for kReplConsensus).
  std::string initial_protocol = "abcast.ct";
  /// Initial consensus implementation, wherever the consensus layer comes
  /// from (directly composed, recursively created, or the Repl-Consensus
  /// facade's first version).  Ignored under kReplConsensus, where
  /// `initial_protocol` plays this role.
  std::string initial_consensus = "consensus.ct";

  /// Baseline network adversity, active for the whole run.
  double base_drop = 0.0;
  double base_duplicate = 0.0;

  WorkloadShape workload;
  std::vector<CrashFault> crashes;
  std::vector<RecoverFault> recoveries;
  /// Nodes that join the run late instead of being present from the start.
  std::vector<LateJoin> late_joins;
  std::vector<PartitionFault> partitions;
  std::vector<LossWindow> loss_windows;
  std::vector<UpdateAction> updates;
  /// Closed-loop adaptation rules (PolicyEngine on every stack).  A policy's
  /// service is composed with its replacement facade like an update target.
  std::vector<PolicySpec> policies;

  /// DESIGN.md §8 cost-model knobs.
  Duration hop_cost = 8 * kMicrosecond;
  Duration module_create_cost = 20 * kMillisecond;

  /// Failure-detector tuning (0 = the library default, 50ms/200ms).  Large
  /// deployments must stretch both: heartbeats are all-to-all, so at n=200
  /// the default 50ms interval alone is ~800k datagrams/sec.  Off the wire
  /// when 0 to keep existing spec documents byte-stable.
  Duration fd_heartbeat = 0;
  Duration fd_timeout = 0;

  /// Relay-on-first-receipt in the directly-composed rbcast substrate
  /// (ignored when the rbcast layer is a replacement facade — its protocol
  /// name selects the variant).  Disabling drops broadcast complexity from
  /// O(n^2) to O(n), which is what makes 200+ stack floods feasible.  Off
  /// the wire when true (the default) to keep existing documents stable.
  bool rbcast_relay = true;

  /// Real-thread engine transport: real UDP sockets on loopback instead of
  /// in-process queues.  Makes the rt socket counters meaningful, so rt and
  /// proc runs report comparable transport stats.  Off the wire when false.
  bool rt_sockets = false;

  /// Kept only for bench/e2e/src/traced.cpp:637; the simulator is serial.
  static constexpr std::size_t sim_shards = 1;

  /// Regression gate: fail the run when total rp2p retransmissions exceed
  /// this bound (0 = no gate).  Crash-heavy scenarios use it to pin down
  /// that crashed stacks stop attracting retransmissions (FD-aware give-up
  /// + capped backoff) instead of storming for the whole drain window.
  std::uint64_t max_retransmissions = 0;

  friend bool operator==(const ScenarioSpec&, const ScenarioSpec&) = default;

  /// Mechanism executing `u`.  An explicit per-update name wins; otherwise
  /// an update of the spec-level mechanism's own service uses that
  /// mechanism, and an update of any *other* service defaults to the
  /// service's repl-family facade ("consensus" -> repl-consensus, "rbcast"
  /// -> repl-rbcast, "gm" -> repl-gm) — so multi-layer plans need no
  /// per-update mechanism boilerplate.  Throws std::runtime_error on an
  /// unknown per-update mechanism name (validate() reports the same
  /// condition as a problem instead).
  [[nodiscard]] Mechanism update_mechanism(const UpdateAction& u) const;

  /// The composition plan: which services this spec makes replaceable and
  /// by which mechanism (spec-level default layer, every update's target,
  /// and every policy's target).  Only meaningful on a spec that validates.
  [[nodiscard]] std::map<std::string, Mechanism> managed_services() const;

  /// Static well-formedness: node ids in range, windows ordered,
  /// probabilities in [0,1], a majority surviving all crashes, update
  /// targets consistent with their mechanisms (one mechanism per service),
  /// loss windows non-overlapping, workload phases ordered and positive.
  /// Returns human-readable problems; empty = valid.
  [[nodiscard]] std::vector<std::string> validate() const;

  [[nodiscard]] Json to_json() const;
  /// Inverse of to_json.  Unknown keys are rejected (they are almost always
  /// typos in hand-written specs); missing keys keep their defaults.
  /// Throws std::runtime_error / JsonParseError on malformed input.
  [[nodiscard]] static ScenarioSpec from_json(const Json& j);
  [[nodiscard]] static ScenarioSpec from_json_text(std::string_view text) {
    return from_json(Json::parse(text));
  }
};

}  // namespace dpu::scenario

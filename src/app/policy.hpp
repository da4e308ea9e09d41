// PolicyEngine — service-generic, rule-driven protocol adaptation.
//
// The paper's motivation is *adaptive* middleware: "systems that can be
// reconfigured and adapted to new environments or changing user
// requirements".  This module closes the loop for *any* replaceable layer:
// declarative rules observe the running system (failure-detector suspicions,
// delivery latency, delivered load) and issue
// `UpdateApi::request_update(service, protocol)` through the stack's update
// manager when a rule's condition holds — the adaptive-middleware stance of
// consistent-network-update work, where update decisions are computed from
// live state rather than scripted.
//
// This generalizes (and replaces) the old `FailoverPolicyModule`, whose one
// hard-wired behaviour — switch a non-fault-tolerant ABcast protocol to a
// fallback when the failure detector suspects its critical node — is now the
// one-rule special case `PolicyRule{.trigger = kFdSuspect, ...}` driving the
// service-generic control plane.
//
// Practical notes inherited from the paper's design:
//  * Algorithm 1 coordinates a switch *through the protocol being
//    replaced*, so it completes only while that protocol still satisfies
//    its specification.  Failure rules therefore fire on *suspicion*
//    (degradation), before the protocol is irrecoverably dead; if the
//    critical node is already permanently crashed the change message can
//    never be ordered and the switch stalls (documented limitation).
//  * Every stack hosts the engine; to avoid a thundering herd of change
//    requests, only the lowest-id stack that does not suspect itself fires
//    (duplicates would be harmless — the mechanisms serialize or drop them
//    — but wasteful).
//  * A rule fires at most once per version of its service (debounce), plus
//    an optional wall-clock cooldown.
#pragma once

#include <deque>
#include <string>
#include <vector>

#include "abcast/abcast.hpp"
#include "core/module.hpp"
#include "core/stack.hpp"
#include "fd/fd.hpp"
#include "repl/update.hpp"

namespace dpu {

/// One adaptation rule: WHEN the trigger condition holds (and the service
/// currently runs `when_protocol`, if set), switch `service` to
/// `to_protocol` through the UpdateApi.
struct PolicyRule {
  enum class Trigger {
    kFdSuspect,        ///< the failure detector suspects `suspect_node`
    kDeliveryLatency,  ///< mean delivery latency over `window` >= threshold
    kDeliveryRate,     ///< observed deliveries/sec over `window` >= threshold
  };

  /// Identifies the rule in traces and logs.
  std::string name = "rule";
  /// Replaceable service this rule adapts (must be managed by an update
  /// mechanism on the stack).
  std::string service = kAbcastService;
  /// Fire only while the service runs this protocol ("" = any).
  std::string when_protocol;
  /// Target library of the switch.
  std::string to_protocol;
  ModuleParams to_params;

  Trigger trigger = Trigger::kFdSuspect;
  /// kFdSuspect: the node whose suspicion fires the rule (kNoNode = any).
  NodeId suspect_node = kNoNode;
  /// kDeliveryLatency: window-mean threshold.
  Duration latency_threshold = 0;
  /// kDeliveryRate: deliveries-per-second threshold.
  double rate_threshold = 0.0;
  /// Observation window of the latency/rate triggers (tumbling).
  Duration window = kSecond;
  /// Optional wall-clock re-arm delay on top of the per-version debounce.
  Duration cooldown = 0;
};

struct PolicyEngineConfig {
  std::vector<PolicyRule> rules;
  /// Service whose deliveries feed the latency/rate observations.  The
  /// payloads are expected to carry probe headers (app/probe.hpp), which is
  /// what the workload module sends.
  std::string observe_service = kAbcastService;
};

class PolicyEngineModule final : public Module,
                                 public FdListener,
                                 public AbcastListener {
 public:
  using Config = PolicyEngineConfig;

  static PolicyEngineModule* create(Stack& stack, Config config);

  PolicyEngineModule(Stack& stack, std::string instance_name, Config config);

  void start() override;
  void stop() override;

  // FdListener (kFdSuspect rules)
  void on_suspect(NodeId node) override;
  void on_trust(NodeId /*node*/) override {}

  // AbcastListener (latency/rate observations)
  void adeliver(NodeId sender, const Bytes& payload) override;

  /// Total rule firings on this stack.
  [[nodiscard]] std::uint64_t triggers() const { return triggers_; }
  /// Firings of one rule (index into Config::rules).
  [[nodiscard]] std::uint64_t rule_triggers(std::size_t rule) const {
    return rules_[rule].triggers;
  }
  /// request_update rejections (misconfigured rules), counted not thrown.
  [[nodiscard]] std::uint64_t policy_errors() const { return policy_errors_; }

  /// TraceKind::kCustom marker: "policy-fired:<rule>:<service>:<protocol>".
  static constexpr char kTraceFired[] = "policy-fired";

 private:
  struct RuleState {
    PolicyRule rule;
    TimerSlot timer;  ///< tumbling-window timer of latency/rate rules
    /// All deliveries this window (the rate trigger's load measure).
    std::uint64_t window_count = 0;
    /// Probe-stamped deliveries only: the latency mean's numerator and
    /// denominator (non-probe traffic must not dilute the mean).
    Duration window_latency_sum = 0;
    std::uint64_t window_latency_samples = 0;
    /// Debounce: service version this rule's last request targets; the rule
    /// re-arms once the service reaches it.
    std::uint64_t fired_for_version = 0;
    TimePoint last_fired = -1;
    std::uint64_t triggers = 0;

    explicit RuleState(HostEnv& host, PolicyRule r)
        : rule(std::move(r)), timer(host) {}
  };

  [[nodiscard]] bool needs_observation() const;
  void arm_window(RuleState& st);
  void evaluate_window(RuleState& st);
  void maybe_fire(RuleState& st, const char* reason);
  /// Leader election among the non-suspected stacks: lowest id wins.
  [[nodiscard]] bool i_am_responsible() const;

  Config config_;
  UpdateManagerModule* manager_ = nullptr;
  /// deque: RuleState holds a TimerSlot (pinned, non-movable).
  std::deque<RuleState> rules_;
  bool observing_ = false;
  std::uint64_t triggers_ = 0;
  std::uint64_t policy_errors_ = 0;
};

}  // namespace dpu

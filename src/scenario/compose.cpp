#include "scenario/compose.hpp"

#include <algorithm>
#include <utility>

#include "net/rbcast.hpp"
#include "net/udp_module.hpp"

namespace dpu::scenario {

void harvest_modules(NodeAccum& acc, const NodeModules& m) {
  if (m.workload != nullptr) acc.sent += m.workload->sent();
  if (m.probe != nullptr) acc.deliveries += m.probe->deliveries();
  if (m.rp2p != nullptr) {
    acc.retransmissions += m.rp2p->retransmissions();
    acc.acks_sent += m.rp2p->acks_sent();
  }
  if (m.repl != nullptr) {
    acc.reissued += m.repl->reissued_total();
    acc.stale_discarded += m.repl->stale_discarded();
    acc.snapshots_served += m.repl->snapshots_served();
    acc.state_replayed += m.repl->replayed_from_snapshot();
  }
  acc.dedup_entries.reset();
  if (m.repl_rbcast != nullptr) {
    acc.reissued += m.repl_rbcast->reissued_total();
    acc.stale_discarded += m.repl_rbcast->stale_discarded();
    acc.snapshots_served += m.repl_rbcast->snapshots_served();
    acc.state_replayed += m.repl_rbcast->replayed_from_snapshot();
    acc.dedup_entries = m.repl_rbcast->dedup_entries();
  }
  if (m.repl_gm != nullptr) {
    acc.snapshots_served += m.repl_gm->snapshots_served();
    acc.state_replayed += m.repl_gm->replayed_from_snapshot();
  }
  if (m.repl_cons != nullptr) {
    acc.decisions_delivered += m.repl_cons->decisions_delivered();
  }
  if (m.maestro != nullptr) {
    acc.app_blocked += m.maestro->total_blocked_time();
    acc.calls_queued += m.maestro->calls_queued_while_blocked();
  }
  if (m.graceful != nullptr) {
    acc.app_blocked += m.graceful->total_queueing_window();
    acc.calls_queued += m.graceful->calls_queued_during_switch();
  }
}

Json NodeAccum::to_json() const {
  Json counts = Json::object();
  counts.set("sent", sent);
  counts.set("delivered", deliveries);
  counts.set("reissued", reissued);
  counts.set("stale_discarded", stale_discarded);
  counts.set("decisions_delivered", decisions_delivered);
  counts.set("snapshots_served", snapshots_served);
  counts.set("state_replayed", state_replayed);
  counts.set("app_blocked_ns", app_blocked);
  counts.set("calls_queued", calls_queued);
  counts.set("retransmissions", retransmissions);
  counts.set("acks_sent", acks_sent);
  if (dedup_entries.has_value()) counts.set("dedup_entries", *dedup_entries);
  return counts;
}

NodeAccum NodeAccum::from_json(const Json& counts) {
  auto count = [&counts](const char* key) -> std::uint64_t {
    const Json* v = counts.find(key);
    return v != nullptr ? static_cast<std::uint64_t>(v->as_int()) : 0;
  };
  NodeAccum acc;
  acc.sent = count("sent");
  acc.deliveries = count("delivered");
  acc.reissued = count("reissued");
  acc.stale_discarded = count("stale_discarded");
  acc.decisions_delivered = count("decisions_delivered");
  acc.snapshots_served = count("snapshots_served");
  acc.state_replayed = count("state_replayed");
  acc.app_blocked = static_cast<Duration>(count("app_blocked_ns"));
  acc.calls_queued = count("calls_queued");
  acc.retransmissions = count("retransmissions");
  acc.acks_sent = count("acks_sent");
  if (counts.find("dedup_entries") != nullptr) {
    acc.dedup_entries = count("dedup_entries");
  }
  return acc;
}

CompositionPlan CompositionPlan::from_spec(const ScenarioSpec& spec) {
  CompositionPlan plan;
  // The managed-service plan drives composition: every replaceable service
  // of the spec gets its mechanism's facade, all behind one
  // UpdateManagerModule per stack — there is no per-mechanism special case
  // left, and one run may make several layers hot-swappable at once.
  plan.managed = spec.managed_services();
  const auto abcast_managed = plan.managed.find(kAbcastService);
  plan.abcast_mech = abcast_managed == plan.managed.end()
                         ? Mechanism::kNone
                         : abcast_managed->second;
  plan.consensus_managed = plan.managed.count(kConsensusService) != 0;
  plan.rbcast_managed = plan.managed.count(kRbcastService) != 0;
  plan.gm_managed = plan.managed.count(kGmService) != 0;
  // The spec-level mechanism's own layer starts on initial_protocol; every
  // other layer starts on its standard default.
  const bool consensus_layer = spec.mechanism == Mechanism::kReplConsensus;
  const bool rbcast_layer = spec.mechanism == Mechanism::kReplRbcast;
  const bool gm_layer = spec.mechanism == Mechanism::kReplGm;
  plan.consensus_initial =
      consensus_layer ? spec.initial_protocol : spec.initial_consensus;
  plan.rbcast_initial = rbcast_layer
                            ? spec.initial_protocol
                            : std::string(RbcastModule::kProtocolName);
  plan.gm_initial =
      gm_layer ? spec.initial_protocol : std::string(GmModule::kProtocolName);
  plan.abcast_initial = (consensus_layer || rbcast_layer || gm_layer)
                            ? std::string(CtAbcastModule::kProtocolName)
                            : spec.initial_protocol;
  return plan;
}

namespace {

/// The packet transport every composition shares.  Returns the rp2p module
/// so the callers can harvest transport counters.  The rbcast layer and the
/// failure detector are installed afterwards, in the standard order (rbcast
/// may be a replacement facade).
Rp2pModule* install_transport(Stack& stack,
                              const StandardStackOptions& options) {
  UdpModule::create(stack);
  return Rp2pModule::create(stack, kRp2pService, options.rp2p);
}

}  // namespace

ComposedStack compose_stack(Stack& stack, const ScenarioSpec& spec,
                            const CompositionPlan& plan,
                            const StandardStackOptions& options,
                            TimePoint since, const ComposeHooks& hooks) {
  ComposedStack out;
  NodeModules& m = out.modules;
  m.rp2p = install_transport(stack, options);
  if (plan.rbcast_managed) {
    // Rbcast facade below everything that broadcasts: consensus and the
    // abcast protocols call "rbcast" and get the hot-swappable layer.
    ReplRbcastModule::Config rb;
    rb.initial_protocol = plan.rbcast_initial;
    m.repl_rbcast = ReplRbcastModule::create(stack, rb);
  } else {
    RbcastModule::create(stack, kRbcastService, options.rbcast);
  }
  FdModule::create(stack, kFdService, options.fd);
  m.update = UpdateManagerModule::create(stack);
  if (plan.consensus_managed) {
    // Consensus facade first: anything above that requires "consensus"
    // binds against it instead of creating a pinned implementation.
    ReplConsensusModule::Config rc;
    rc.initial_protocol = plan.consensus_initial;
    m.repl_cons = ReplConsensusModule::create(stack, rc);
  }
  switch (plan.abcast_mech) {
    case Mechanism::kRepl: {
      ReplAbcastModule::Config cfg;
      cfg.initial_protocol = plan.abcast_initial;
      m.repl = ReplAbcastModule::create(stack, cfg);
      break;
    }
    case Mechanism::kMaestro: {
      MaestroSwitchModule::Config mc;
      mc.initial_protocol = plan.abcast_initial;
      mc.consensus_protocol = plan.consensus_initial;
      m.maestro = MaestroSwitchModule::create(stack, mc);
      break;
    }
    case Mechanism::kGraceful: {
      // The Graceful Adaptation restriction forbids recursive creation,
      // so its consensus substrate must exist before the first AAC.
      stack.create_module(plan.consensus_initial, kConsensusService);
      GracefulSwitchModule::Config gc;
      gc.initial_protocol = plan.abcast_initial;
      m.graceful = GracefulSwitchModule::create(stack, gc);
      break;
    }
    default: {
      // ABcast is not replaceable in this run (mechanism "none", or only
      // other layers are managed): bind the protocol directly.  Recursive
      // creation supplies consensus when the protocol needs it and no
      // facade is bound.
      stack.create_module(plan.abcast_initial, kAbcastService);
      break;
    }
  }

  if (plan.gm_managed) {
    // The dependent layer of the paper's Figure 4, behind its own facade:
    // the topic mux multiplexes the ordered channel, the GM facade makes
    // the membership protocol hot-swappable.
    TopicMuxModule::create(stack, kTopicsService, options.topics);
    ReplGmModule::Config gc;
    gc.initial_protocol = plan.gm_initial;
    m.repl_gm = ReplGmModule::create(stack, gc);
  }

  if (!spec.policies.empty()) {
    // Closed-loop adaptation: the PolicyEngine observes this stack and
    // issues request_update through the same control plane the scripted
    // update plan uses.
    PolicyEngineConfig pc;
    for (const PolicySpec& p : spec.policies) {
      PolicyRule rule;
      rule.name = p.name.empty() ? "policy-" + std::to_string(pc.rules.size())
                                 : p.name;
      rule.service = p.service;
      rule.when_protocol = p.when_protocol;
      rule.to_protocol = p.to_protocol;
      if (p.trigger == "latency") {
        rule.trigger = PolicyRule::Trigger::kDeliveryLatency;
      } else if (p.trigger == "load") {
        rule.trigger = PolicyRule::Trigger::kDeliveryRate;
      } else {
        rule.trigger = PolicyRule::Trigger::kFdSuspect;
      }
      rule.suspect_node = p.node;
      rule.latency_threshold = p.latency_threshold;
      rule.rate_threshold = p.rate_threshold;
      rule.window = p.window;
      rule.cooldown = p.cooldown;
      pc.rules.push_back(std::move(rule));
    }
    m.policy = PolicyEngineModule::create(stack, std::move(pc));
  }

  out.probe = std::make_unique<LatencyProbe>(*hooks.collector, stack.host());
  m.probe = out.probe.get();
  stack.listen<AbcastListener>(kAbcastService, m.probe, nullptr);
  if (hooks.extra_listener != nullptr) {
    stack.listen<AbcastListener>(kAbcastService, hooks.extra_listener,
                                 nullptr);
  }

  // Workload window, shifted for recovered incarnations: the module
  // interprets start_after/stop_after relative to its own start.
  const Duration stop_abs = spec.workload.stop_after > 0
                                ? spec.workload.stop_after
                                : spec.duration;
  const Duration start_rel =
      std::max<Duration>(spec.workload.start_after - since, 0);
  const Duration stop_rel = stop_abs - since;
  if (stop_rel > start_rel) {
    WorkloadConfig wc;
    wc.rate_per_second = spec.workload.rate_per_stack;
    wc.message_size = spec.workload.message_size;
    wc.poisson = spec.workload.poisson;
    wc.start_after = start_rel;
    wc.stop_after = stop_rel;
    // Ramp/burst phases, shifted like the window for recovered
    // incarnations; a phase fully in the pre-recovery past is dropped
    // (ramps keep their target by clamping into a zero-length window).
    for (const WorkloadPhase& p : spec.workload.phases) {
      WorkloadRatePhase rp;
      rp.ramp = p.kind == WorkloadPhase::Kind::kRamp;
      rp.from = std::max<Duration>(p.from - since, 0);
      rp.until = p.until - since;
      rp.value = p.value;
      if (rp.ramp) {
        // A ramp that finished before the recovery still holds its
        // target; clamp it into a zero-length window at start.
        if (rp.until < 0) rp.until = 0;
        if (rp.from > rp.until) rp.from = rp.until;
      } else if (rp.until <= rp.from) {
        continue;  // burst fully in the pre-recovery past
      }
      wc.phases.push_back(rp);
    }
    wc.on_send = hooks.on_send;
    m.workload = WorkloadModule::create(stack, wc);
  }
  stack.start_all();
  return out;
}

std::string final_protocol_of(const ScenarioSpec& spec,
                              const CompositionPlan& plan,
                              const NodeModules& m) {
  const std::string report_service =
      spec.updates.empty()
          ? (plan.managed.empty() ? std::string()
                                  : plan.managed.begin()->first)
          : spec.updates.back().target_service();
  if (!report_service.empty() && m.update != nullptr) {
    return m.update->current_version(report_service).protocol;
  }
  return spec.updates.empty() ? spec.initial_protocol
                              : spec.updates.back().protocol;
}

StandardStackOptions stack_options_for_spec(const ScenarioSpec& spec) {
  StandardStackOptions stack_options;
  stack_options.with_gm = false;
  switch (spec.mechanism) {
    case Mechanism::kReplConsensus:
      // The primary replaceable layer is consensus; CT-ABcast rides on top.
      stack_options.consensus_protocol = spec.initial_protocol;
      break;
    case Mechanism::kReplRbcast:
      stack_options.rbcast_protocol = spec.initial_protocol;
      stack_options.consensus_protocol = spec.initial_consensus;
      break;
    case Mechanism::kReplGm:
      stack_options.consensus_protocol = spec.initial_consensus;
      break;
    default:
      stack_options.abcast_protocol = spec.initial_protocol;
      stack_options.consensus_protocol = spec.initial_consensus;
      break;
  }
  // Deployment-scale knobs (defaults leave the options untouched, so
  // pre-cluster specs produce byte-identical compositions).
  if (spec.fd_heartbeat > 0) {
    stack_options.fd.heartbeat_interval = spec.fd_heartbeat;
  }
  if (spec.fd_timeout > 0) stack_options.fd.initial_timeout = spec.fd_timeout;
  stack_options.rbcast.relay = spec.rbcast_relay;
  return stack_options;
}

}  // namespace dpu::scenario

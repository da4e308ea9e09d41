#include "scenario/runner.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "abcast/audit.hpp"
#include "app/stack_builder.hpp"
#include "repl/update.hpp"
#include "rt/rt_world.hpp"
#include "runtime/world.hpp"
#include "scenario/compose.hpp"
#include "sim/sim_world.hpp"

namespace dpu::scenario {

Duration ScenarioResult::max_switch_downtime() const {
  Duration worst = 0;
  for (const auto& [from, to] : switch_windows) {
    worst = std::max(worst, to - from);
  }
  return worst;
}

// ---------------------------------------------------------------------------
// Distillation: raw run facts -> verdicts and summaries (every engine)
// ---------------------------------------------------------------------------

namespace {

/// Splits an "update-requested:<service>:<protocol>[:...]" detail string
/// after `marker`; false when the detail is some other marker.
bool parse_update_marker(const std::string& detail, const char* marker,
                         std::string& service, std::string& protocol) {
  const std::string prefix = std::string(marker) + ":";
  if (detail.rfind(prefix, 0) != 0) return false;
  const std::size_t service_end = detail.find(':', prefix.size());
  if (service_end == std::string::npos) return false;
  service = detail.substr(prefix.size(), service_end - prefix.size());
  const std::size_t protocol_end = detail.find(':', service_end + 1);
  protocol = detail.substr(service_end + 1,
                           protocol_end == std::string::npos
                               ? std::string::npos
                               : protocol_end - service_end - 1);
  return true;
}

void append(PropertyReport& into, const PropertyReport& from) {
  for (const std::string& v : from.violations) into.fail(v);
}

}  // namespace

std::vector<UpdateOutcome> extract_update_outcomes(
    const std::vector<TraceEvent>& events) {
  std::vector<UpdateOutcome> outcomes;
  for (const TraceEvent& e : events) {
    if (e.kind != TraceKind::kCustom) continue;
    std::string service;
    std::string protocol;
    if (parse_update_marker(e.detail, UpdateManagerModule::kTraceRequested,
                            service, protocol)) {
      UpdateOutcome o;
      o.service = std::move(service);
      o.protocol = std::move(protocol);
      o.requested = e.time;
      o.converged = e.time;
      outcomes.push_back(std::move(o));
    } else if (parse_update_marker(e.detail, UpdateManagerModule::kTraceDone,
                                   service, protocol)) {
      // Attribute to the latest not-younger request of the same service;
      // completions that replay before any request (a recovered stack
      // catching up on a pre-crash switch) have no window to extend.
      for (auto it = outcomes.rbegin(); it != outcomes.rend(); ++it) {
        if (it->service != service || it->requested > e.time) continue;
        it->converged = std::max(it->converged, e.time);
        ++it->completions;
        break;
      }
    }
  }
  return outcomes;
}

void distill_result(const ScenarioSpec& spec, RunFacts facts,
                    ScenarioResult& result) {
  result.crashed = std::move(facts.crashed);
  for (NodeId i = 0; i < spec.n; ++i) {
    const bool live = result.crashed.count(i) == 0;
    if (live && facts.recovery_time[i] >= 0) result.recovered.insert(i);
    const NodeAccum& acc = facts.counts[i];
    result.messages_sent += acc.sent;
    result.deliveries += acc.deliveries;
    result.retransmissions += acc.retransmissions;
    result.acks_sent += acc.acks_sent;
    result.reissued += acc.reissued;
    result.stale_discarded += acc.stale_discarded;
    result.decisions_delivered += acc.decisions_delivered;
    result.snapshots_served += acc.snapshots_served;
    result.state_replayed += acc.state_replayed;
    result.app_blocked_total += acc.app_blocked;
    result.calls_queued += acc.calls_queued;
    // Retained dedup state is a gauge, not a counter: only the live
    // incarnation's interval runs still occupy memory.
    if (live) result.dedup_entries += acc.dedup_entries.value_or(0);
  }

  result.trace = std::move(facts.trace);
  result.updates = extract_update_outcomes(result.trace);
  // switch_windows is the outcomes projected to [request, converged].
  result.switch_windows.reserve(result.updates.size());
  for (const UpdateOutcome& o : result.updates) {
    result.switch_windows.emplace_back(o.requested, o.converged);
  }

  // Retransmission regression gate (crash-storm scenarios): a bounded
  // count proves crashed stacks stop attracting retransmissions.
  if (spec.max_retransmissions > 0 &&
      result.retransmissions > spec.max_retransmissions) {
    result.generic_report.fail(
        "retransmissions " + std::to_string(result.retransmissions) +
        " exceed the spec bound " +
        std::to_string(spec.max_retransmissions));
  }

  if (facts.audit == nullptr) return;
  result.abcast_report = facts.audit->check(spec.n, result.crashed);

  // Generic DPU properties (§3), evaluated for the correct stacks: events
  // of crashed stacks are excluded from well-formedness (a crash may
  // legitimately strand a queued call forever), and so are a recovered
  // stack's pre-recovery events (they belong to an incarnation the crash
  // killed mid-flight).
  std::vector<TraceEvent> correct_events;
  correct_events.reserve(result.trace.size());
  for (const TraceEvent& e : result.trace) {
    if (result.crashed.count(e.node) != 0) continue;
    if (e.node < spec.n && facts.recovery_time[e.node] >= 0 &&
        e.time < facts.recovery_time[e.node]) {
      continue;
    }
    correct_events.push_back(e);
  }
  append(result.generic_report,
         check_weak_stack_well_formedness(correct_events));
  if (spec.mechanism != Mechanism::kNone) {
    append(result.generic_report,
           check_protocol_operationability(result.trace, spec.n, result.crashed,
                                           facts.recovery_time));
  }
  for (NodeId i = 0; i < spec.n; ++i) {
    if (result.crashed.count(i) != 0) continue;
    if (facts.pending_calls[i] != 0) {
      result.generic_report.fail(
          "stack " + std::to_string(i) + ": " +
          std::to_string(facts.pending_calls[i]) +
          " service call(s) still pending at end of run");
    }
  }
}

void admit_scenario(const ScenarioSpec& spec) {
  const std::vector<std::string> problems = spec.validate();
  if (!problems.empty()) {
    std::string what = "scenario '" + spec.name + "' is invalid:";
    for (const std::string& p : problems) what += "\n  - " + p;
    throw std::invalid_argument(what);
  }
  // validate() enforces the mechanism-level rules it can see, but whether a
  // layer's replacement facade answers state requests is a composition fact
  // only the registry records.
  if (spec.recoveries.empty() && spec.late_joins.empty()) return;
  const ProtocolRegistry library =
      make_standard_library(stack_options_for_spec(spec));
  for (const auto& [svc, m] : spec.managed_services()) {
    (void)m;
    if (!library.state_transfer(svc)) {
      throw std::invalid_argument(
          "scenario '" + spec.name + "': recoveries/late joins require "
          "the state_transfer capability on replaceable service '" + svc +
          "'");
    }
  }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

namespace {

/// Audit tap on the abcast facade.  Records only workload (probe-stamped)
/// deliveries: with a GM layer composed, topic frames ride the same facade
/// but were never record_sent — auditing them would report phantom
/// delivered-never-sent violations.
struct ProbeAuditListener final : AbcastListener {
  AbcastAudit* audit = nullptr;
  NodeId node = 0;
  ProbeAuditListener(AbcastAudit& a, NodeId n) : audit(&a), node(n) {}
  void adeliver(NodeId /*sender*/, const Bytes& payload) override {
    if (ProbePayload::is_probe(payload)) audit->record_delivery(node, payload);
  }
};

/// Drives one scenario on an already-constructed world.  Everything here
/// speaks WorldControl; engine differences (determinism, drain style) are
/// confined to run_scenario below.
ScenarioResult run_on_world(WorldControl& world, const ScenarioSpec& spec,
                            std::uint64_t seed, const RunOptions& options,
                            const StandardStackOptions& stack_options,
                            TraceRecorder& trace_recorder) {
  ScenarioResult result;
  result.scenario = spec.name;
  result.seed = seed;
  result.collector = std::make_unique<LatencyCollector>(options.bucket_width);

  // One collector per node, merged into result.collector post-run in node
  // order: probes then write single-writer state on the rt engine's stack
  // threads, and the fixed merge order keeps the float accumulation — and
  // therefore the result document — a function of the samples alone.
  std::vector<std::unique_ptr<LatencyCollector>> node_collectors;
  node_collectors.reserve(spec.n);
  for (NodeId i = 0; i < spec.n; ++i) {
    node_collectors.push_back(
        std::make_unique<LatencyCollector>(options.bucket_width));
  }

  AbcastAudit audit;
  std::vector<std::unique_ptr<ProbeAuditListener>> audit_listeners;
  std::vector<std::unique_ptr<LatencyProbe>> probes;
  std::vector<NodeModules> nodes(spec.n);
  RunFacts facts;
  facts.counts.resize(spec.n);
  facts.recovery_time.assign(spec.n, -1);

  // ---- Composition ---------------------------------------------------------
  // The composition plan and the stack assembly live in scenario/compose.*:
  // the process-per-node agent (src/cluster) composes the very same stack
  // from the same spec, so the three engines cannot drift apart.
  const CompositionPlan plan = CompositionPlan::from_spec(spec);

  // One closure builds (and re-builds, after recovery) a stack.  `since` is
  // 0 at setup and the recovery time afterwards — it shifts the workload
  // window, which is configured relative to module start.
  auto compose = [&](NodeId i, TimePoint since) {
    Stack& stack = world.stack(i);
    ComposeHooks hooks;
    hooks.collector = node_collectors[i].get();
    if (options.with_audit) {
      audit_listeners.push_back(std::make_unique<ProbeAuditListener>(audit, i));
      hooks.extra_listener = audit_listeners.back().get();
      hooks.on_send = [&audit, i](const Bytes& payload) {
        audit.record_sent(i, payload);
      };
    }
    ComposedStack composed =
        compose_stack(stack, spec, plan, stack_options, since, hooks);
    nodes[i] = composed.modules;
    probes.push_back(std::move(composed.probe));
  };

  // Initial composition runs on the driver thread: on the simulator that is
  // the only thread; on rt the stack threads have not started yet, which is
  // exactly the window the engine documents as composition-safe.
  for (NodeId i = 0; i < spec.n; ++i) compose(i, 0);

  // ---- Fault schedule -----------------------------------------------------

  // A late join expands to a synthetic crash at 1ms plus the scheduled
  // recovery: the node's incarnation 0 dies (effectively) at the start and
  // the join rides the standard recovery path — same re-composition, same
  // state transfer, same audit treatment.
  std::vector<CrashFault> crashes = spec.crashes;
  std::vector<RecoverFault> recoveries = spec.recoveries;
  for (const LateJoin& lj : spec.late_joins) {
    crashes.push_back(CrashFault{kMillisecond, lj.node});
    recoveries.push_back(RecoverFault{lj.at, lj.node});
  }

  for (const CrashFault& c : crashes) {
    world.at(c.at, [&world, c]() { world.crash(c.node); });
  }

  for (const RecoverFault& rec : recoveries) {
    world.at(rec.at, [&, rec]() {
      if (!world.crashed(rec.node)) return;
      // Quiesce first: on rt this joins the dying loop thread, giving this
      // control thread a happens-before edge with its final counter writes
      // and delivery records (no-op on the simulator).  Only then harvest
      // the dead incarnation's counters and archive its audit log.
      world.quiesce_node(rec.node);
      harvest_modules(facts.counts[rec.node], nodes[rec.node]);
      audit.record_recovered(rec.node);
      world.recover(rec.node);
      // Re-compose on the fresh stack — on the node's own executor, which
      // is where module code must run once the world is live.
      world.run_on_node(rec.node, [&, rec]() { compose(rec.node, rec.at); });
      facts.recovery_time[rec.node] = rec.at;
    });
  }

  if (!spec.partitions.empty()) {
    // Active partitions as isolated-side masks; a packet passes when no
    // active partition separates its endpoints.  Shared state lives on the
    // heap because the filter closure outlives this scope's loop variables.
    auto active = std::make_shared<std::vector<std::vector<bool>>>();
    world.set_link_filter([active](NodeId src, NodeId dst) {
      for (const std::vector<bool>& side : *active) {
        if (side[src] != side[dst]) return false;
      }
      return true;
    });
    for (const PartitionFault& p : spec.partitions) {
      std::vector<bool> mask(spec.n, false);
      for (NodeId node : p.isolated) mask[node] = true;
      world.at(p.from, [active, mask]() { active->push_back(mask); });
      world.at(p.until, [active, mask]() {
        auto it = std::find(active->begin(), active->end(), mask);
        if (it != active->end()) active->erase(it);
      });
    }
  }

  for (const LossWindow& w : spec.loss_windows) {
    world.at(w.from, [&world, w]() {
      world.set_loss(w.drop, w.duplicate);
      for (const LinkOverride& o : w.link_overrides) {
        world.set_link_fault(
            o.src, o.dst,
            LinkFault{o.drop, o.duplicate, o.extra_latency});
      }
    });
    world.at(w.until, [&world, w, drop = spec.base_drop,
                       dup = spec.base_duplicate]() {
      world.set_loss(drop, dup);
      for (const LinkOverride& o : w.link_overrides) {
        world.set_link_fault(o.src, o.dst, std::nullopt);
      }
    });
  }

  // ---- Update plan --------------------------------------------------------

  // Every mechanism behind one call: the service-generic control plane.
  for (const UpdateAction& u : spec.updates) {
    world.at_node(u.at, u.initiator, [&, u]() {
      if (world.crashed(u.initiator)) return;
      nodes[u.initiator].update->request_update(u.target_service(),
                                                u.protocol);
    });
  }

  // ---- Run ----------------------------------------------------------------

  // rt quiescence probe: deliveries stable and no unacked reliable traffic
  // for a window longer than any silent catch-up stall.  State lives in the
  // closure; the engine polls it from the control thread during the drain.
  std::uint64_t last_deliveries = ~0ULL;
  TimePoint stable_since = -1;
  auto quiesced = [&]() -> bool {
    std::uint64_t deliveries = 0;
    std::size_t unacked = 0;
    // Traffic addressed to permanently crashed peers never acks (rp2p only
    // abandons it on recovery), so it must not block quiescence.
    const std::set<NodeId> crashed_now = world.crashed_set();
    for (NodeId i = 0; i < spec.n; ++i) {
      if (crashed_now.count(i) != 0) continue;
      world.run_on_node(i, [&]() {
        if (nodes[i].probe != nullptr) deliveries += nodes[i].probe->deliveries();
        if (nodes[i].rp2p != nullptr) {
          unacked += nodes[i].rp2p->unacked_excluding(crashed_now);
        }
      });
    }
    const TimePoint now = world.now();
    if (unacked != 0 || deliveries != last_deliveries) {
      last_deliveries = deliveries;
      stable_since = now;
      return false;
    }
    return now - stable_since >= options.rt_quiesce_window;
  };

  const bool is_rt = spec.engine == Engine::kRt;
  const TimePoint deadline =
      spec.duration + (is_rt ? std::min(spec.drain, options.rt_drain_cap)
                             : spec.drain);
  if (!world.run(spec.duration, deadline, options.max_events,
                 is_rt ? std::function<bool()>(quiesced)
                       : std::function<bool()>())) {
    result.generic_report.fail("event budget exhausted before quiescence");
  }
  result.total_virtual_time = world.now();

  // ---- Harvest ------------------------------------------------------------

  for (NodeId i = 0; i < spec.n; ++i) {
    result.collector->merge(*node_collectors[i]);
  }
  result.packets_sent = world.packets_sent();
  result.packets_dropped = world.packets_dropped();
  facts.crashed = world.crashed_set();
  facts.pending_calls.assign(spec.n, 0);
  for (NodeId i = 0; i < spec.n; ++i) {
    harvest_modules(facts.counts[i], nodes[i]);  // the live incarnation
    if (facts.crashed.count(i) != 0) {
      result.final_protocol.emplace_back();
      continue;
    }
    result.final_protocol.push_back(final_protocol_of(spec, plan, nodes[i]));
    facts.pending_calls[i] = world.stack(i).pending_call_count();
  }
  facts.trace = trace_recorder.events();
  if (options.with_audit) facts.audit = &audit;
  distill_result(spec, std::move(facts), result);
  return result;
}

}  // namespace

ScenarioResult run_scenario(const ScenarioSpec& spec, std::uint64_t seed,
                            const RunOptions& options) {
  admit_scenario(spec);

  // A proc spec is executed by real OS processes: the supervisor/agent pair
  // in src/cluster owns the lifecycle (spawn, SIGKILL, respawn, harvest).
  // run_scenario stays the in-process entry point.
  if (spec.engine == Engine::kProc) {
    throw std::invalid_argument(
        "scenario '" + spec.name + "': engine \"proc\" runs as real "
        "processes; use scenario_campaign (ClusterSupervisor), or override "
        "the engine with --engine sim|rt");
  }

  // The runner composes stacks itself (run_on_world); stack_options only
  // carries the substrate tuning and the registry registration inputs.
  const StandardStackOptions stack_options = stack_options_for_spec(spec);
  ProtocolRegistry library = make_standard_library(stack_options);
  TraceRecorder trace_recorder;

  if (spec.engine == Engine::kRt) {
    RtConfig rt;
    rt.num_stacks = spec.n;
    rt.seed = seed;
    rt.transport =
        spec.rt_sockets ? RtTransport::kUdpSockets : RtTransport::kInproc;
    rt.drop_probability = spec.base_drop;
    rt.duplicate_probability = spec.base_duplicate;
    RtWorld world(rt, &library, &trace_recorder);
    ScenarioResult result = run_on_world(world, spec, seed, options,
                                         stack_options, trace_recorder);
    result.socket_tx_syscalls = world.socket_tx_syscalls();
    result.socket_tx_datagrams = world.socket_tx_datagrams();
    result.socket_rx_syscalls = world.socket_rx_syscalls();
    result.socket_rx_datagrams = world.socket_rx_datagrams();
    return result;
  }

  SimConfig sim;
  sim.num_stacks = spec.n;
  sim.seed = seed;
  sim.net.drop_probability = spec.base_drop;
  sim.net.duplicate_probability = spec.base_duplicate;
  sim.stack_cost.service_hop_cost = spec.hop_cost;
  sim.stack_cost.module_create_cost = spec.module_create_cost;
  SimWorld world(sim, &library, &trace_recorder);
  return run_on_world(world, spec, seed, options, stack_options,
                      trace_recorder);
}

// ---------------------------------------------------------------------------
// JSON result record
// ---------------------------------------------------------------------------

Json ScenarioResult::to_json() const {
  Json j = Json::object();
  j.set("scenario", scenario);
  j.set("seed", seed);
  j.set("ok", ok());

  Json verdicts = Json::object();
  verdicts.set("abcast_ok", abcast_report.ok);
  verdicts.set("generic_ok", generic_report.ok);
  Json violations = Json::array();
  for (const std::string& v : abcast_report.violations) violations.push(v);
  for (const std::string& v : generic_report.violations) violations.push(v);
  verdicts.set("violations", std::move(violations));
  j.set("audit", std::move(verdicts));

  Json latency = Json::object();
  Samples& samples = collector->all();
  latency.set("samples", samples.count());
  latency.set("mean_us", samples.mean());
  latency.set("p50_us", samples.percentile(50.0));
  latency.set("p90_us", samples.percentile(90.0));
  latency.set("p99_us", samples.percentile(99.0));
  latency.set("max_us", samples.max());
  j.set("latency", std::move(latency));

  Json sw = Json::object();
  sw.set("count", switch_windows.size());
  Json windows = Json::array();
  for (const auto& [from, to] : switch_windows) {
    Json w = Json::object();
    w.set("requested_ns", from);
    w.set("completed_ns", to);
    w.set("downtime_ms", to_millis(to - from));
    windows.push(std::move(w));
  }
  sw.set("windows", std::move(windows));
  sw.set("max_downtime_ms", to_millis(max_switch_downtime()));
  j.set("switch", std::move(sw));

  // Per-update convergence: request -> last stack running the new version
  // (the perf gate tracks convergence_ms drift per update).
  Json update_list = Json::array();
  for (const UpdateOutcome& o : updates) {
    Json u = Json::object();
    u.set("service", o.service);
    u.set("protocol", o.protocol);
    u.set("requested_ns", o.requested);
    u.set("converged_ns", o.converged);
    u.set("convergence_ms", to_millis(o.convergence()));
    u.set("completions", o.completions);
    update_list.push(std::move(u));
  }
  j.set("updates", std::move(update_list));

  Json counts = Json::object();
  counts.set("sent", messages_sent);
  counts.set("delivered", deliveries);
  counts.set("reissued", reissued);
  counts.set("stale_discarded", stale_discarded);
  counts.set("decisions_delivered", decisions_delivered);
  counts.set("snapshots_served", snapshots_served);
  counts.set("state_replayed", state_replayed);
  counts.set("dedup_entries", dedup_entries);
  counts.set("app_blocked_ms", to_millis(app_blocked_total));
  counts.set("calls_queued", calls_queued);
  counts.set("packets_sent", packets_sent);
  counts.set("packets_dropped", packets_dropped);
  counts.set("retransmissions", retransmissions);
  counts.set("acks_sent", acks_sent);
  counts.set("socket_tx_syscalls", socket_tx_syscalls);
  counts.set("socket_tx_datagrams", socket_tx_datagrams);
  counts.set("socket_rx_syscalls", socket_rx_syscalls);
  counts.set("socket_rx_datagrams", socket_rx_datagrams);
  counts.set("virtual_time_ns", total_virtual_time);
  j.set("counts", std::move(counts));

  Json crashed_list = Json::array();
  for (NodeId node : crashed) crashed_list.push(node);
  j.set("crashed", std::move(crashed_list));

  Json recovered_list = Json::array();
  for (NodeId node : recovered) recovered_list.push(node);
  j.set("recovered", std::move(recovered_list));

  Json finals = Json::array();
  for (const std::string& p : final_protocol) finals.push(p);
  j.set("final_protocol", std::move(finals));

  if (!node_reports.empty()) {
    // Per-node agent reports (proc engine only): absent otherwise, so the
    // sim/rt documents stay byte-identical to the pre-cluster format.
    Json nodes = Json::array();
    for (const Json& report : node_reports) nodes.push(report);
    j.set("nodes", std::move(nodes));
  }
  return j;
}

}  // namespace dpu::scenario

// Scenario runner: fault/update execution, audits, and deterministic replay.
#include "scenario/runner.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "scenario/library.hpp"

namespace dpu::scenario {
namespace {

/// Small, fast base spec for targeted runner tests.
ScenarioSpec small_spec(const std::string& name) {
  ScenarioSpec spec;
  spec.name = name;
  spec.n = 3;
  spec.duration = 3 * kSecond;
  spec.drain = 20 * kSecond;
  spec.workload.rate_per_stack = 15.0;
  return spec;
}

TEST(ScenarioRunner, InvalidSpecThrows) {
  ScenarioSpec spec = small_spec("broken");
  spec.crashes = {{kSecond, 9}};
  EXPECT_THROW((void)run_scenario(spec, 1), std::invalid_argument);
}

TEST(ScenarioRunner, CleanSwitchDeliversEverythingEverywhere) {
  ScenarioSpec spec = small_spec("clean");
  spec.updates = {{1500 * kMillisecond, 0, "abcast.seq"}};
  const ScenarioResult result = run_scenario(spec, 7);
  EXPECT_TRUE(result.ok()) << result.abcast_report.summary() << "\n"
                           << result.generic_report.summary();
  EXPECT_GT(result.messages_sent, 0u);
  // Every message reaches every stack exactly once.
  EXPECT_EQ(result.deliveries, result.messages_sent * spec.n);
  ASSERT_EQ(result.switch_windows.size(), 1u);
  EXPECT_GE(result.switch_windows[0].second, result.switch_windows[0].first);
  EXPECT_GT(result.max_switch_downtime(), 0);
  for (const std::string& protocol : result.final_protocol) {
    EXPECT_EQ(protocol, "abcast.seq");
  }
}

TEST(ScenarioRunner, CrashDuringReplacementKeepsAuditClean) {
  // The curated scenario of the same name: a stack dies 5 ms after the
  // switch is requested; survivors must complete it and stay audit-clean.
  const std::optional<ScenarioSpec> spec =
      find_scenario("crash-during-replacement");
  ASSERT_TRUE(spec.has_value());
  const ScenarioResult result = run_scenario(*spec, 11);
  EXPECT_TRUE(result.abcast_report.ok) << result.abcast_report.summary();
  EXPECT_TRUE(result.generic_report.ok) << result.generic_report.summary();
  EXPECT_EQ(result.crashed, std::set<NodeId>{3});
  EXPECT_TRUE(result.final_protocol[3].empty());
  for (NodeId i = 0; i < spec->n; ++i) {
    if (i == 3) continue;
    EXPECT_EQ(result.final_protocol[i], "abcast.ct") << "stack " << i;
  }
}

TEST(ScenarioRunner, LossWindowDropsPackets) {
  ScenarioSpec lossless = small_spec("control");
  ScenarioSpec lossy = lossless;
  lossy.name = "lossy";
  lossy.loss_windows = {{kSecond, 2 * kSecond, 0.3, 0.0}};
  const ScenarioResult a = run_scenario(lossless, 5);
  const ScenarioResult b = run_scenario(lossy, 5);
  EXPECT_EQ(a.packets_dropped, 0u);
  EXPECT_GT(b.packets_dropped, 0u);
  // The loss is transient, so the audit still passes.
  EXPECT_TRUE(b.ok()) << b.abcast_report.summary();
}

TEST(ScenarioRunner, PartitionBlocksAndHeals) {
  ScenarioSpec spec = small_spec("partitioned");
  spec.partitions = {{kSecond, 2 * kSecond, {2}}};
  const ScenarioResult result = run_scenario(spec, 9);
  // Cross-partition packets were dropped...
  EXPECT_GT(result.packets_dropped, 0u);
  // ...but the partition healed, so agreement holds for everyone.
  EXPECT_TRUE(result.ok()) << result.abcast_report.summary();
  EXPECT_EQ(result.deliveries, result.messages_sent * spec.n);
}

TEST(ScenarioRunner, CrashRecoveryConvergesToNewProtocol) {
  // Curated crash-recovery-switch: node 3 dies 5 ms into a real CT->SEQ
  // replacement and restarts 2.5 s later with fresh protocol state.  The
  // facade state transfer must replay the missed history (including the
  // switch marker) so the new incarnation re-performs the switch and the
  // audit holds across the restart — the recovered node is a *correct*
  // stack again.
  const std::optional<ScenarioSpec> spec =
      find_scenario("crash-recovery-switch");
  ASSERT_TRUE(spec.has_value());
  const ScenarioResult result = run_scenario(*spec, 17);
  EXPECT_TRUE(result.abcast_report.ok) << result.abcast_report.summary();
  EXPECT_TRUE(result.generic_report.ok) << result.generic_report.summary();
  EXPECT_TRUE(result.crashed.empty());
  EXPECT_EQ(result.recovered, std::set<NodeId>{3});
  for (NodeId i = 0; i < spec->n; ++i) {
    EXPECT_EQ(result.final_protocol[i], "abcast.seq") << "stack " << i;
  }
  // The recovered stack completed the switch too: the switch window closes
  // only when the *last* stack finishes, which after a recovery is the
  // replayed switch on the new incarnation (well after the request).
  ASSERT_EQ(result.switch_windows.size(), 1u);
  EXPECT_GE(result.switch_windows[0].second, spec->recoveries[0].at);
}

TEST(ScenarioRunner, CrashRecoveryWithoutUpdatesStaysClean) {
  ScenarioSpec spec = small_spec("recover-plain");
  spec.n = 3;
  spec.crashes = {{kSecond, 2}};
  spec.recoveries = {{2 * kSecond, 2}};
  const ScenarioResult result = run_scenario(spec, 23);
  EXPECT_TRUE(result.ok()) << result.abcast_report.summary() << "\n"
                           << result.generic_report.summary();
  EXPECT_TRUE(result.crashed.empty());
  EXPECT_EQ(result.recovered, std::set<NodeId>{2});
  // The recovered node's replay resurfaces the full history: its live
  // incarnation delivers everything any correct stack delivered (checked by
  // the audit), and the per-node delivery totals stay exactly n per sent
  // message *plus* the dead incarnation's deliveries.
  EXPECT_GE(result.deliveries, result.messages_sent * spec.n);
}

TEST(ScenarioRunner, RecoveryIntoQuietGroupStillConverges) {
  // The workload ends before the node recovers, so no new decisions ever
  // arrive to reveal the gap: convergence rests entirely on the recovered
  // incarnation's proactive start-time consensus_sync.  Agreement demands
  // its live incarnation still deliver the full history.
  ScenarioSpec spec = small_spec("recover-quiet");
  spec.workload.stop_after = 1500 * kMillisecond;
  spec.crashes = {{kSecond, 2}};
  spec.recoveries = {{2500 * kMillisecond, 2}};
  const ScenarioResult result = run_scenario(spec, 37);
  EXPECT_TRUE(result.ok()) << result.abcast_report.summary() << "\n"
                           << result.generic_report.summary();
  EXPECT_EQ(result.recovered, std::set<NodeId>{2});
}

TEST(ScenarioRunner, CrashAfterAnotherStacksRecoveryRunsCleanAndConverges) {
  // At n = 3 the majority rule allows one stack down at a time, so a second
  // crash is admitted once the first crashed stack has recovered.  The
  // switch lands between the two crashes; the recovered stack must replay
  // its way onto the new protocol before the other survivor goes down.
  ScenarioSpec spec = small_spec("crash-recover-crash");
  spec.duration = 6 * kSecond;
  spec.crashes = {{kSecond, 1}, {4 * kSecond, 2}};
  spec.recoveries = {{2 * kSecond, 1}};
  spec.updates = {{3 * kSecond, 0, "abcast.seq"}};
  const ScenarioResult result = run_scenario(spec, 43);
  EXPECT_TRUE(result.ok()) << result.abcast_report.summary() << "\n"
                           << result.generic_report.summary();
  EXPECT_EQ(result.recovered, std::set<NodeId>{1});
  EXPECT_EQ(result.crashed, std::set<NodeId>{2});
  ASSERT_EQ(result.switch_windows.size(), 1u);
  EXPECT_EQ(result.final_protocol[0], "abcast.seq");
  EXPECT_EQ(result.final_protocol[1], "abcast.seq");
}

TEST(ScenarioRunner, UpdateScheduledOnRecoveredInitiatorStillFires) {
  // The update plan belongs to the scenario driver, not to a stack
  // incarnation: a node that crashes and recovers *before* its scheduled
  // update must still initiate it (the engine's recovery purge discards
  // the dead incarnation's events, never driver control events).
  ScenarioSpec spec = small_spec("recover-then-update");
  spec.crashes = {{kSecond, 0}};
  spec.recoveries = {{1500 * kMillisecond, 0}};
  spec.updates = {{2500 * kMillisecond, 0, "abcast.ct"}};
  const ScenarioResult result = run_scenario(spec, 31);
  EXPECT_TRUE(result.ok()) << result.abcast_report.summary() << "\n"
                           << result.generic_report.summary();
  EXPECT_EQ(result.recovered, std::set<NodeId>{0});
  ASSERT_EQ(result.switch_windows.size(), 1u)
      << "the update initiated by the recovered node never fired";
  for (const std::string& protocol : result.final_protocol) {
    EXPECT_EQ(protocol, "abcast.ct");
  }
}

TEST(ScenarioRunner, LinkOverridesAreDirectional) {
  // A window where only the 0 -> 1 direction is fully lossy.  Traffic still
  // converges (rp2p retransmits after the window; 1 -> 0 stays clean), and
  // the directional drop shows up in the packet counters.
  ScenarioSpec spec = small_spec("asymmetric");
  spec.loss_windows = {
      {kSecond, 1500 * kMillisecond, 0.0, 0.0, {{0, 1, 1.0, 0.0, 0}}}};
  const ScenarioResult result = run_scenario(spec, 29);
  EXPECT_GT(result.packets_dropped, 0u);
  EXPECT_TRUE(result.ok()) << result.abcast_report.summary();

  // Same window with zero drop but extra one-way latency: nothing dropped.
  ScenarioSpec slow = small_spec("slow-link");
  slow.loss_windows = {
      {kSecond, 1500 * kMillisecond, 0.0, 0.0,
       {{0, 1, 0.0, 0.0, 5 * kMillisecond}}}};
  const ScenarioResult slow_result = run_scenario(slow, 29);
  EXPECT_EQ(slow_result.packets_dropped, 0u);
  EXPECT_TRUE(slow_result.ok()) << slow_result.abcast_report.summary();
}

TEST(ScenarioRunner, SameSeedReplaysToIdenticalJson) {
  const std::optional<ScenarioSpec> spec = find_scenario("lossy-link-switch");
  ASSERT_TRUE(spec.has_value());
  const std::string a = run_scenario(*spec, 3).to_json().dump(2);
  const std::string b = run_scenario(*spec, 3).to_json().dump(2);
  EXPECT_EQ(a, b);
  // A different seed perturbs at least the latency samples.
  const std::string c = run_scenario(*spec, 4).to_json().dump(2);
  EXPECT_NE(a, c);
}

TEST(ScenarioRunner, ConsensusMechanismSwitchesLive) {
  ScenarioSpec spec = small_spec("consensus-live");
  spec.mechanism = Mechanism::kReplConsensus;
  spec.initial_protocol = "consensus.ct";
  spec.updates = {{1500 * kMillisecond, 0, "consensus.mr"}};
  const ScenarioResult result = run_scenario(spec, 21);
  EXPECT_TRUE(result.ok()) << result.abcast_report.summary() << "\n"
                           << result.generic_report.summary();
  EXPECT_GT(result.decisions_delivered, 0u);
  ASSERT_EQ(result.switch_windows.size(), 1u);
  for (const std::string& protocol : result.final_protocol) {
    EXPECT_EQ(protocol, "consensus.mr");
  }
}

TEST(ScenarioRunner, BaselineMechanismsRunTheSamePlan) {
  for (Mechanism m : {Mechanism::kMaestro, Mechanism::kGraceful}) {
    ScenarioSpec spec = small_spec(std::string("baseline-") +
                                   mechanism_name(m));
    spec.mechanism = m;
    spec.updates = {{1500 * kMillisecond, 0, "abcast.ct"}};
    const ScenarioResult result = run_scenario(spec, 13);
    EXPECT_TRUE(result.abcast_report.ok)
        << mechanism_name(m) << ": " << result.abcast_report.summary();
    EXPECT_EQ(result.switch_windows.size(), 1u) << mechanism_name(m);
  }
}

TEST(ScenarioRunner, BurstAndRampPhasesShapeTheLoad) {
  // Fixed-period workload so the send count is a pure function of the rate
  // schedule.  Base 15 msg/s for 3 s; the ramp doubles the rate over the
  // first second (avg 22.5) and holds 30, with a 3x burst on top of the
  // ramped rate during the middle second (90): ~142.5 per stack against a
  // flat 45 — a ratio just above 3.
  ScenarioSpec flat = small_spec("flat");
  flat.workload.poisson = false;
  const ScenarioResult base = run_scenario(flat, 3);

  ScenarioSpec shaped = flat;
  shaped.name = "shaped";
  shaped.workload.phases = {
      {WorkloadPhase::Kind::kRamp, 0, kSecond, 30.0},
      {WorkloadPhase::Kind::kBurst, kSecond, 2 * kSecond, 3.0}};
  const ScenarioResult result = run_scenario(shaped, 3);
  EXPECT_TRUE(result.ok()) << result.abcast_report.summary();
  EXPECT_GT(result.messages_sent, base.messages_sent * 3);
  EXPECT_LT(result.messages_sent, (base.messages_sent * 7) / 2);
  EXPECT_EQ(result.deliveries, result.messages_sent * shaped.n);
}

TEST(ScenarioRunner, DualServiceSwitchThroughOneControlPlane) {
  // The tentpole end to end: one spec, two replaceable layers, every update
  // dispatched through the same UpdateApi.  Consensus switches ct -> mr
  // under a live CT-ABcast, then the abcast layer itself switches to the
  // sequencer; both converge on every stack and the audit holds.
  ScenarioSpec spec = small_spec("dual-switch");
  spec.updates = {
      {1200 * kMillisecond, 0, "consensus.mr", "consensus", "repl-consensus"},
      {2200 * kMillisecond, 1, "abcast.seq"},
  };
  const ScenarioResult result = run_scenario(spec, 19);
  EXPECT_TRUE(result.ok()) << result.abcast_report.summary() << "\n"
                           << result.generic_report.summary();
  EXPECT_EQ(result.deliveries, result.messages_sent * spec.n);
  ASSERT_EQ(result.updates.size(), 2u);
  EXPECT_EQ(result.updates[0].service, "consensus");
  EXPECT_EQ(result.updates[0].protocol, "consensus.mr");
  EXPECT_EQ(result.updates[0].completions, spec.n);
  EXPECT_EQ(result.updates[1].service, "abcast");
  EXPECT_EQ(result.updates[1].protocol, "abcast.seq");
  EXPECT_EQ(result.updates[1].completions, spec.n);
  for (const UpdateOutcome& o : result.updates) {
    EXPECT_GT(o.convergence(), 0) << o.service;
  }
  // final_protocol reports the last-updated service (abcast).
  for (const std::string& protocol : result.final_protocol) {
    EXPECT_EQ(protocol, "abcast.seq");
  }
  // The per-update records surface in the JSON document for the perf gate.
  const Json doc = result.to_json();
  EXPECT_EQ(doc.at("updates").size(), 2u);
  EXPECT_EQ(doc.at("updates").items()[0].at("service").as_string(),
            "consensus");
}

TEST(ScenarioRunner, TripleServiceSwitchThroughOneControlPlane) {
  // One substrate for any service: rbcast, consensus and abcast hot-swap in
  // a single run through the same request_update entry point.
  ScenarioSpec spec = small_spec("triple-switch");
  spec.duration = 4 * kSecond;
  spec.updates = {
      {kSecond, 0, "rbcast.norelay"},
      {2 * kSecond, 1, "consensus.mr"},
      {3 * kSecond, 2, "abcast.seq"},
  };
  const ScenarioResult result = run_scenario(spec, 23);
  EXPECT_TRUE(result.ok()) << result.abcast_report.summary() << "\n"
                           << result.generic_report.summary();
  EXPECT_EQ(result.deliveries, result.messages_sent * spec.n);
  ASSERT_EQ(result.updates.size(), 3u);
  EXPECT_EQ(result.updates[0].service, "rbcast");
  EXPECT_EQ(result.updates[0].protocol, "rbcast.norelay");
  EXPECT_EQ(result.updates[0].completions, spec.n);
  EXPECT_EQ(result.updates[1].service, "consensus");
  EXPECT_EQ(result.updates[2].service, "abcast");
  for (const UpdateOutcome& o : result.updates) {
    EXPECT_EQ(o.completions, spec.n) << o.service;
  }
}

TEST(ScenarioRunner, GmSwitchRunsThroughTheControlPlane) {
  ScenarioSpec spec = small_spec("gm-swap");
  spec.updates = {{1500 * kMillisecond, 0, "gm.abcast"}};
  const ScenarioResult result = run_scenario(spec, 29);
  EXPECT_TRUE(result.ok()) << result.abcast_report.summary() << "\n"
                           << result.generic_report.summary();
  ASSERT_EQ(result.updates.size(), 1u);
  EXPECT_EQ(result.updates[0].service, "gm");
  EXPECT_EQ(result.updates[0].completions, spec.n);
  for (const std::string& protocol : result.final_protocol) {
    EXPECT_EQ(protocol, "gm.abcast");
  }
}

TEST(ScenarioRunner, PolicyDrivesTheSwitchWithoutAScriptedUpdate) {
  // Closed-loop adaptation: no `updates` entry; a PolicyEngine rule watches
  // the SEQ sequencer and fails over to CT when a fault window isolates it.
  const std::optional<ScenarioSpec> spec =
      find_scenario("policy-failover-generic");
  ASSERT_TRUE(spec.has_value());
  EXPECT_TRUE(spec->updates.empty());
  const ScenarioResult result = run_scenario(*spec, 13);
  EXPECT_TRUE(result.ok()) << result.abcast_report.summary() << "\n"
                           << result.generic_report.summary();
  // The policy fired: a full update (request + n completions) shows up in
  // the generic convergence records, and every stack ends on the fallback.
  ASSERT_GE(result.updates.size(), 1u);
  EXPECT_EQ(result.updates[0].service, "abcast");
  EXPECT_EQ(result.updates[0].protocol, "abcast.ct");
  EXPECT_EQ(result.updates[0].completions, spec->n);
  for (const std::string& protocol : result.final_protocol) {
    EXPECT_EQ(protocol, "abcast.ct");
  }
}

// ---------------------------------------------------------------------------
// distill_result from hand-built facts: no world, no engine.
// ---------------------------------------------------------------------------

/// Facts for an n-stack run where nothing happened.
RunFacts quiet_facts(std::size_t n, const AbcastAudit* audit) {
  RunFacts facts;
  facts.recovery_time.assign(n, -1);
  facts.counts.resize(n);
  facts.pending_calls.assign(n, 0);
  facts.audit = audit;
  return facts;
}

TraceEvent queued_call(TimePoint t, NodeId node) {
  return {t, node, TraceKind::kCallQueued, "abcast", "", ""};
}

TraceEvent custom_marker(TimePoint t, NodeId node, std::string detail) {
  return {t, node, TraceKind::kCustom, "", "", std::move(detail)};
}

TEST(DistillResult, WellFormednessChecksOnlyTheCorrectStacksEvents) {
  const ScenarioSpec spec = small_spec("distill-correct-events");
  const AbcastAudit audit;
  RunFacts facts = quiet_facts(spec.n, &audit);
  facts.crashed = {2};
  facts.recovery_time[1] = 500;
  facts.trace = {queued_call(100, 2),   // crashed stack: excluded
                 queued_call(100, 1),   // before stack 1 recovered: excluded
                 queued_call(600, 1)};  // after the recovery: checked
  ScenarioResult result;
  distill_result(spec, std::move(facts), result);

  EXPECT_EQ(result.crashed, (std::set<NodeId>{2}));
  EXPECT_EQ(result.recovered, (std::set<NodeId>{1}));
  EXPECT_TRUE(result.abcast_report.ok);
  EXPECT_EQ(result.generic_report.violations,
            (std::vector<std::string>{
                "stack 1: 1 call(s) on service 'abcast' still blocked at "
                "end of run"}));
  EXPECT_EQ(result.trace.size(), 3u);
}

TEST(DistillResult, OperationabilityIsSkippedUnderMechanismNone) {
  // An instance bound on stack 0 but never created on stack 1.
  const std::vector<TraceEvent> trace = {
      {100, 0, TraceKind::kModuleCreated, "abcast", "abcast.seq@1", ""},
      {100, 0, TraceKind::kServiceBound, "abcast", "abcast.seq@1", ""}};
  const AbcastAudit audit;

  ScenarioSpec spec = small_spec("distill-operationability");
  RunFacts facts = quiet_facts(spec.n, &audit);
  facts.trace = trace;
  ScenarioResult checked;
  distill_result(spec, std::move(facts), checked);
  EXPECT_EQ(checked.generic_report.violations.size(), 2u);  // stacks 1, 2

  spec.mechanism = Mechanism::kNone;
  facts = quiet_facts(spec.n, &audit);
  facts.trace = trace;
  ScenarioResult skipped;
  distill_result(spec, std::move(facts), skipped);
  EXPECT_TRUE(skipped.generic_report.ok);
}

TEST(DistillResult, BoundAndPendingCallsFailWithTheRunnerMessages) {
  ScenarioSpec spec = small_spec("distill-messages");
  spec.max_retransmissions = 10;
  const AbcastAudit audit;
  RunFacts facts = quiet_facts(spec.n, &audit);
  facts.crashed = {2};
  facts.counts[0].retransmissions = 7;
  facts.counts[2].retransmissions = 5;  // a crashed stack's count still adds
  facts.pending_calls = {0, 3, 4};      // the crashed stack's 4 are excused
  ScenarioResult result;
  distill_result(spec, std::move(facts), result);

  EXPECT_EQ(result.retransmissions, 12u);
  EXPECT_EQ(result.generic_report.violations,
            (std::vector<std::string>{
                "retransmissions 12 exceed the spec bound 10",
                "stack 1: 3 service call(s) still pending at end of run"}));
}

TEST(DistillResult, FoldsCountersAndTheLiveDedupGauge) {
  const ScenarioSpec spec = small_spec("distill-fold");
  const AbcastAudit audit;
  RunFacts facts = quiet_facts(spec.n, &audit);
  facts.crashed = {2};
  for (NodeId i = 0; i < spec.n; ++i) {
    facts.counts[i].sent = 10 * (i + 1);
    facts.counts[i].deliveries = 100;
    facts.counts[i].app_blocked = 5;
    facts.counts[i].dedup_entries = 7;
  }
  facts.counts[1].dedup_entries.reset();  // no rbcast facade on stack 1
  ScenarioResult result;
  distill_result(spec, std::move(facts), result);

  EXPECT_EQ(result.messages_sent, 60u);
  EXPECT_EQ(result.deliveries, 300u);
  EXPECT_EQ(result.app_blocked_total, 15);
  EXPECT_EQ(result.dedup_entries, 7u);  // stack 0 only: 2 is crashed
}

TEST(DistillResult, SwitchWindowsAreTheUpdatesProjected) {
  const ScenarioSpec spec = small_spec("distill-windows");
  const AbcastAudit audit;
  RunFacts facts = quiet_facts(spec.n, &audit);
  facts.trace = {custom_marker(100, 0, "update-requested:abcast:abcast.seq"),
                 custom_marker(150, 0, "update-done:abcast:abcast.seq:v=1"),
                 custom_marker(180, 1, "update-done:abcast:abcast.seq:v=1"),
                 custom_marker(300, 1, "update-requested:abcast:abcast.ct"),
                 custom_marker(320, 1, "update-done:abcast:abcast.ct:v=2")};
  ScenarioResult result;
  distill_result(spec, std::move(facts), result);

  ASSERT_EQ(result.updates.size(), 2u);
  EXPECT_EQ(result.updates[0].protocol, "abcast.seq");
  EXPECT_EQ(result.updates[0].completions, 2u);
  std::vector<std::pair<TimePoint, TimePoint>> projected;
  for (const UpdateOutcome& o : result.updates) {
    projected.emplace_back(o.requested, o.converged);
  }
  EXPECT_EQ(result.switch_windows, projected);
  EXPECT_EQ(result.switch_windows[0],
            (std::pair<TimePoint, TimePoint>{100, 180}));
}

TEST(DistillResult, AuditVerdictComesFromTheFacts) {
  const ScenarioSpec spec = small_spec("distill-audit");
  AbcastAudit audit;
  audit.record_sent(0, to_bytes("lost"));  // never delivered: validity
  ScenarioResult result;
  distill_result(spec, quiet_facts(spec.n, &audit), result);
  EXPECT_FALSE(result.abcast_report.ok);
  EXPECT_TRUE(result.generic_report.ok);
}

TEST(DistillResult, WithoutAnAuditOnlyTheBoundIsChecked) {
  // RunOptions::with_audit == false: no §5.1 audit, no §3 checks and no
  // pending-call check — but the counters and the bound still apply.
  ScenarioSpec spec = small_spec("distill-unaudited");
  spec.max_retransmissions = 1;
  RunFacts facts = quiet_facts(spec.n, nullptr);
  facts.counts[0].retransmissions = 2;
  facts.pending_calls = {1, 1, 1};
  facts.trace = {queued_call(100, 0),
                 {100, 0, TraceKind::kServiceBound, "abcast", "x@1", ""}};
  ScenarioResult result;
  distill_result(spec, std::move(facts), result);

  EXPECT_TRUE(result.abcast_report.ok);
  EXPECT_EQ(result.generic_report.violations,
            (std::vector<std::string>{
                "retransmissions 2 exceed the spec bound 1"}));
}

TEST(NodeAccum, JsonKeepsTheAgentKeysAndRoundTrips) {
  NodeAccum acc;
  acc.sent = 1;
  acc.deliveries = 2;
  acc.reissued = 3;
  acc.stale_discarded = 4;
  acc.decisions_delivered = 5;
  acc.snapshots_served = 6;
  acc.state_replayed = 7;
  acc.app_blocked = 8;
  acc.calls_queued = 9;
  acc.retransmissions = 10;
  acc.acks_sent = 11;
  const Json counts = acc.to_json();
  std::vector<std::string> keys;
  for (const auto& [key, value] : counts.members()) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{
                      "sent", "delivered", "reissued", "stale_discarded",
                      "decisions_delivered", "snapshots_served",
                      "state_replayed", "app_blocked_ns", "calls_queued",
                      "retransmissions", "acks_sent"}));

  acc.dedup_entries = 12;
  const NodeAccum back = NodeAccum::from_json(acc.to_json());
  EXPECT_EQ(back.to_json().dump(), acc.to_json().dump());
  EXPECT_EQ(back.dedup_entries, std::optional<std::uint64_t>{12});
  EXPECT_FALSE(NodeAccum::from_json(Json::object()).dedup_entries);
}

}  // namespace
}  // namespace dpu::scenario

// ScenarioSpec JSON round-trip, static validation, and the curated library.
#include "scenario/spec.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "scenario/json.hpp"
#include "scenario/library.hpp"

namespace dpu::scenario {
namespace {

ScenarioSpec rich_spec() {
  ScenarioSpec spec;
  spec.name = "rich";
  spec.description = "all fields populated";
  spec.n = 5;
  spec.duration = 7 * kSecond;
  spec.drain = 11 * kSecond;
  spec.mechanism = Mechanism::kRepl;
  spec.initial_protocol = "abcast.ct";
  spec.base_drop = 0.03;
  spec.base_duplicate = 0.01;
  spec.workload.rate_per_stack = 42.5;
  spec.workload.message_size = 96;
  spec.workload.poisson = false;
  spec.workload.start_after = 250 * kMillisecond;
  spec.workload.stop_after = 6 * kSecond;
  spec.workload.phases = {
      {WorkloadPhase::Kind::kRamp, kSecond, 2 * kSecond, 80.0},
      {WorkloadPhase::Kind::kBurst, 3 * kSecond, 4 * kSecond, 2.5}};
  spec.crashes = {{3 * kSecond, 4}};
  spec.recoveries = {{5 * kSecond, 4}};
  spec.late_joins = {{4 * kSecond, 2}};
  spec.partitions = {{kSecond, 2 * kSecond, {1, 2}}};
  spec.loss_windows = {{500 * kMillisecond,
                        900 * kMillisecond,
                        0.2,
                        0.05,
                        {{0, 1, 0.5, 0.0, 2 * kMillisecond},
                         {1, 0, 0.0, 0.1, 0}}}};
  spec.updates = {{2 * kSecond, 0, "abcast.seq"},
                  {4 * kSecond, 3, "abcast.ct"},
                  // Service-generic action: a consensus switch riding the
                  // same plan via its own mechanism.
                  {5 * kSecond, 1, "consensus.mr", "consensus",
                   "repl-consensus"}};
  spec.policies = {{"lat-failover", "abcast", "abcast.seq", "abcast.ct",
                    "latency", kNoNode, 25 * kMillisecond, 0.0,
                    500 * kMillisecond, kSecond},
                   {"", "consensus", "", "consensus.mr", "fd-suspect", 1, 0,
                    0.0, kSecond, 0}};
  spec.hop_cost = 5 * kMicrosecond;
  spec.module_create_cost = 15 * kMillisecond;
  spec.fd_heartbeat = 300 * kMillisecond;
  spec.fd_timeout = 1200 * kMillisecond;
  spec.rbcast_relay = false;
  spec.rt_sockets = true;
  spec.max_retransmissions = 1234;
  return spec;
}

TEST(ScenarioSpec, JsonRoundTripIsExact) {
  const ScenarioSpec spec = rich_spec();
  const ScenarioSpec back = ScenarioSpec::from_json(spec.to_json());
  EXPECT_EQ(spec, back);
  // And through text, at both indentations.
  EXPECT_EQ(spec, ScenarioSpec::from_json_text(spec.to_json().dump()));
  EXPECT_EQ(spec, ScenarioSpec::from_json_text(spec.to_json().dump(2)));
}

TEST(ScenarioSpec, DefaultsSurviveSparseJson) {
  const ScenarioSpec defaults;
  const ScenarioSpec parsed =
      ScenarioSpec::from_json_text(R"({"name": "sparse"})");
  EXPECT_EQ(parsed.n, defaults.n);
  EXPECT_EQ(parsed.duration, defaults.duration);
  EXPECT_EQ(parsed.mechanism, defaults.mechanism);
  EXPECT_EQ(parsed.workload, defaults.workload);
  EXPECT_TRUE(parsed.crashes.empty());
}

TEST(ScenarioSpec, UnknownKeysAreRejected) {
  EXPECT_THROW(
      (void)ScenarioSpec::from_json_text(R"({"name": "x", "durationns": 5})"),
      std::runtime_error);
  EXPECT_THROW((void)ScenarioSpec::from_json_text(
                   R"({"name": "x", "workload": {"rate": 10}})"),
               std::runtime_error);
}

TEST(ScenarioSpec, EngineNamesRoundTrip) {
  for (Engine e : {Engine::kSim, Engine::kRt, Engine::kProc}) {
    EXPECT_EQ(engine_from_name(engine_name(e)), e);
  }
  EXPECT_THROW((void)engine_from_name("gpu"), std::runtime_error);
  // The engine field survives the JSON round trip.
  ScenarioSpec spec = rich_spec();
  spec.engine = Engine::kRt;
  EXPECT_EQ(ScenarioSpec::from_json(spec.to_json()).engine, Engine::kRt);
  spec.engine = Engine::kProc;
  EXPECT_EQ(ScenarioSpec::from_json(spec.to_json()).engine, Engine::kProc);
}

TEST(ScenarioSpec, DeploymentKnobsStayOffTheWireAtDefaults) {
  // fd tuning, relay and rt_sockets serialize only when set: existing spec
  // documents (and their campaign digests) must stay byte-stable.
  ScenarioSpec plain;
  plain.name = "plain";
  const Json j = plain.to_json();
  EXPECT_EQ(j.find("fd_heartbeat_ns"), nullptr);
  EXPECT_EQ(j.find("fd_timeout_ns"), nullptr);
  EXPECT_EQ(j.find("rbcast_relay"), nullptr);
  EXPECT_EQ(j.find("rt_sockets"), nullptr);
  EXPECT_EQ(plain, ScenarioSpec::from_json(j));

  // And each knob round-trips exactly once set.
  ScenarioSpec tuned = plain;
  tuned.fd_heartbeat = 500 * kMillisecond;
  tuned.fd_timeout = 2 * kSecond;
  tuned.rbcast_relay = false;
  tuned.rt_sockets = true;
  const Json tj = tuned.to_json();
  EXPECT_NE(tj.find("fd_heartbeat_ns"), nullptr);
  EXPECT_NE(tj.find("rbcast_relay"), nullptr);
  EXPECT_EQ(tuned, ScenarioSpec::from_json(tj));
}

TEST(ScenarioSpec, ValidationCoversFdTuning) {
  ScenarioSpec spec = rich_spec();
  spec.fd_heartbeat = kSecond;
  spec.fd_timeout = 500 * kMillisecond;  // timeout <= heartbeat: nonsense
  EXPECT_FALSE(spec.validate().empty());
  spec.fd_timeout = 0;
  spec.fd_heartbeat = -kSecond;
  EXPECT_FALSE(spec.validate().empty());
}

TEST(ScenarioSpec, MechanismNamesRoundTrip) {
  for (Mechanism m : {Mechanism::kNone, Mechanism::kRepl,
                      Mechanism::kReplConsensus, Mechanism::kReplRbcast,
                      Mechanism::kReplGm, Mechanism::kMaestro,
                      Mechanism::kGraceful}) {
    EXPECT_EQ(mechanism_from_name(mechanism_name(m)), m);
  }
  EXPECT_THROW((void)mechanism_from_name("paxos"), std::runtime_error);
}

TEST(ScenarioSpec, ValidSpecHasNoProblems) {
  EXPECT_TRUE(rich_spec().validate().empty());
}

TEST(ScenarioSpec, ValidationCatchesBadSchedules) {
  {
    ScenarioSpec s = rich_spec();
    s.crashes = {{kSecond, 7}};  // node out of range (n = 5)
    EXPECT_FALSE(s.validate().empty());
  }
  {
    ScenarioSpec s = rich_spec();
    s.crashes = {{kSecond, 1}, {2 * kSecond, 2}, {3 * kSecond, 3}};
    EXPECT_FALSE(s.validate().empty());  // kills the majority
  }
  {
    ScenarioSpec s = rich_spec();
    s.partitions = {{2 * kSecond, kSecond, {1}}};  // from >= until
    EXPECT_FALSE(s.validate().empty());
  }
  {
    ScenarioSpec s = rich_spec();
    s.partitions = {{kSecond, 2 * kSecond, {0, 1, 2, 3, 4}}};  // whole world
    EXPECT_FALSE(s.validate().empty());
  }
  {
    ScenarioSpec s = rich_spec();
    s.loss_windows = {{0, kSecond, 1.5, 0.0}};  // probability > 1
    EXPECT_FALSE(s.validate().empty());
  }
  {
    ScenarioSpec s = rich_spec();
    s.loss_windows = {{0, 2 * kSecond, 0.1, 0.0},
                      {kSecond, 3 * kSecond, 0.1, 0.0}};  // overlap
    EXPECT_FALSE(s.validate().empty());
  }
  {
    ScenarioSpec s = rich_spec();
    // A protocol whose prefix names no replaceable service has no
    // mechanism to default to.
    s.updates = {{kSecond, 0, "paxos.mr"}};
    EXPECT_FALSE(s.validate().empty());
  }
  {
    ScenarioSpec s = rich_spec();
    s.mechanism = Mechanism::kNone;  // update plan without a mechanism
    EXPECT_FALSE(s.validate().empty());
  }
  {
    ScenarioSpec s = rich_spec();
    s.updates = {{9 * kSecond, 0, "abcast.ct"}};  // after the workload window
    EXPECT_FALSE(s.validate().empty());
  }
  {
    ScenarioSpec s = rich_spec();
    s.recoveries = {{5 * kSecond, 2}};  // node 2 never crashed
    EXPECT_FALSE(s.validate().empty());
  }
  {
    ScenarioSpec s = rich_spec();
    s.recoveries = {{2 * kSecond, 4}};  // before the crash at 3 s
    EXPECT_FALSE(s.validate().empty());
  }
  {
    ScenarioSpec s = rich_spec();
    s.recoveries = {{4 * kSecond, 4}, {5 * kSecond, 4}};  // recovered twice
    EXPECT_FALSE(s.validate().empty());
  }
  {
    ScenarioSpec s = rich_spec();
    s.loss_windows[0].link_overrides = {{7, 0, 0.1, 0.0, 0}};  // src range
    EXPECT_FALSE(s.validate().empty());
  }
  {
    ScenarioSpec s = rich_spec();
    s.loss_windows[0].link_overrides = {{0, 1, 0.1, 0.0, -kSecond}};
    EXPECT_FALSE(s.validate().empty());  // negative extra latency
  }
}

/// n = 3: the majority rule admits at most one stack down at any instant.
ScenarioSpec three_stacks() {
  ScenarioSpec spec;
  spec.name = "three";
  spec.n = 3;
  spec.duration = 6 * kSecond;
  spec.drain = 20 * kSecond;
  spec.updates = {{3 * kSecond, 0, "abcast.seq"}};
  return spec;
}

TEST(ScenarioSpec, MajorityRuleCountsStacksDownAtOneInstant) {
  {
    // A second crash after the first stack recovered never leaves two
    // stacks down at once.
    ScenarioSpec s = three_stacks();
    s.crashes = {{kSecond, 1}, {4 * kSecond, 2}};
    s.recoveries = {{2 * kSecond, 1}};
    EXPECT_TRUE(s.validate().empty());
    // The same with two switches and the second stack recovering too.
    s.recoveries.push_back({5 * kSecond, 2});
    s.updates.push_back({5500 * kMillisecond, 0, "abcast.ct"});
    EXPECT_TRUE(s.validate().empty());
  }
  {
    // Two crashes that overlap in time kill the majority.
    ScenarioSpec s = three_stacks();
    s.crashes = {{kSecond, 1}, {2 * kSecond, 2}};
    s.recoveries = {{3 * kSecond, 1}};
    EXPECT_FALSE(s.validate().empty());
  }
  {
    // A crash and a recovery at the same instant count as overlapping.
    ScenarioSpec s = three_stacks();
    s.crashes = {{kSecond, 1}, {2 * kSecond, 2}};
    s.recoveries = {{2 * kSecond, 1}};
    EXPECT_FALSE(s.validate().empty());
  }
  {
    // A stack that never recovers stays down to the horizon.
    ScenarioSpec s = three_stacks();
    s.crashes = {{kSecond, 1}, {5 * kSecond, 2}};
    s.recoveries = {{5500 * kMillisecond, 2}};
    EXPECT_FALSE(s.validate().empty());
  }
  {
    // A late joiner is down until it joins, so it overlaps an earlier
    // crash ...
    ScenarioSpec s = three_stacks();
    s.crashes = {{kSecond, 1}};
    s.recoveries = {{4 * kSecond, 1}};
    s.late_joins = {{2 * kSecond, 2}};
    EXPECT_FALSE(s.validate().empty());
    // ... but not one that starts after the join.
    s.crashes = {{3 * kSecond, 1}};
    EXPECT_TRUE(s.validate().empty());
  }
}

TEST(ScenarioSpec, ValidationCoversServiceGenericUpdates) {
  {
    ScenarioSpec s = rich_spec();
    s.updates[2].mechanism = "raft";  // unknown mechanism name
    EXPECT_FALSE(s.validate().empty());
  }
  {
    ScenarioSpec s = rich_spec();
    // Mechanism manages "abcast" but the action targets "consensus".
    s.updates[2].mechanism = "maestro";
    EXPECT_FALSE(s.validate().empty());
  }
  {
    ScenarioSpec s = rich_spec();
    // Two mechanisms fighting over one service.
    s.updates.push_back({5500 * kMillisecond, 0, "abcast.ct", "", "maestro"});
    EXPECT_FALSE(s.validate().empty());
  }
  {
    // Consensus replacement composes only with the modular abcast
    // mechanism: a full-stack Maestro switch would destroy the facade.
    ScenarioSpec s = rich_spec();
    s.mechanism = Mechanism::kMaestro;
    EXPECT_FALSE(s.validate().empty());
  }
  {
    ScenarioSpec s = rich_spec();
    s.initial_consensus = "abcast.ct";  // not a consensus library
    EXPECT_FALSE(s.validate().empty());
  }
  {
    // target_service defaulting: the prefix rules the service.
    UpdateAction u{kSecond, 0, "consensus.mr"};
    EXPECT_EQ(u.target_service(), "consensus");
    u.service = "abcast";
    EXPECT_EQ(u.target_service(), "abcast");
  }
  {
    // Non-primary layers default to their repl-family facade, so a
    // mechanism-less consensus/rbcast/gm action is valid under kRepl.
    ScenarioSpec s = rich_spec();
    s.crashes.clear();
    s.recoveries.clear();
    s.late_joins.clear();
    s.updates = {{kSecond, 0, "consensus.mr"},
                 {2 * kSecond, 0, "rbcast.norelay"},
                 {3 * kSecond, 0, "gm.abcast"}};
    EXPECT_TRUE(s.validate().empty());
    EXPECT_EQ(s.update_mechanism(s.updates[0]), Mechanism::kReplConsensus);
    EXPECT_EQ(s.update_mechanism(s.updates[1]), Mechanism::kReplRbcast);
    EXPECT_EQ(s.update_mechanism(s.updates[2]), Mechanism::kReplGm);
    const auto managed = s.managed_services();
    EXPECT_EQ(managed.size(), 4u);  // + the spec-level abcast layer
  }
  {
    // ...but not under a stack-destroying abcast mechanism.
    ScenarioSpec s = rich_spec();
    s.policies.clear();
    s.crashes.clear();
    s.recoveries.clear();
    s.mechanism = Mechanism::kGraceful;
    s.updates = {{kSecond, 0, "abcast.seq"},
                 {2 * kSecond, 0, "rbcast.norelay"}};
    EXPECT_FALSE(s.validate().empty());
  }
  {
    // Crash-recovery now combines with every repl-family layer: the facade
    // substrate's state transfer (snapshot + replay tail, or version
    // metadata) replays/refreshes missed switches for rbcast and gm too.
    ScenarioSpec s = rich_spec();  // has a crash + recovery of node 4
    s.updates.push_back({5500 * kMillisecond, 2, "rbcast.norelay"});
    EXPECT_TRUE(s.validate().empty());
  }
  {
    // ...but the stack-rebuilding baselines have no state-transfer path, so
    // recoveries and late joins reject them.
    ScenarioSpec s = rich_spec();
    s.updates.clear();
    s.policies.clear();
    s.mechanism = Mechanism::kMaestro;
    EXPECT_FALSE(s.validate().empty());  // has a recovery and a late join
    s.crashes.clear();
    s.recoveries.clear();
    s.late_joins.clear();
    EXPECT_TRUE(s.validate().empty());
  }
}

TEST(ScenarioSpec, ValidationCoversLateJoins) {
  {
    ScenarioSpec s = rich_spec();
    s.late_joins = {{4 * kSecond, 9}};  // node out of range (n = 5)
    EXPECT_FALSE(s.validate().empty());
  }
  {
    ScenarioSpec s = rich_spec();
    // The synthetic crash lands at 1ms, so a join at or before that is
    // impossible to realize.
    s.late_joins = {{kMillisecond, 2}};
    EXPECT_FALSE(s.validate().empty());
  }
  {
    ScenarioSpec s = rich_spec();
    s.late_joins = {{3 * kSecond, 2}, {4 * kSecond, 2}};  // joined twice
    EXPECT_FALSE(s.validate().empty());
  }
  {
    ScenarioSpec s = rich_spec();
    s.late_joins = {{4 * kSecond, 4}};  // node 4 also crashes at 3 s
    EXPECT_FALSE(s.validate().empty());
  }
  {
    ScenarioSpec s = rich_spec();
    s.recoveries.push_back({5 * kSecond, 2});  // node 2 already late-joins
    EXPECT_FALSE(s.validate().empty());
  }
  {
    // Late joiners count as down until they join: with node 4 crashed,
    // joining nodes 1 and 2 late would leave only 2 of 5 alive.
    ScenarioSpec s = rich_spec();
    s.late_joins = {{4 * kSecond, 2}, {4500 * kMillisecond, 1}};
    EXPECT_FALSE(s.validate().empty());
  }
  {
    // late_joins stay off the JSON wire when empty (old specs unchanged).
    ScenarioSpec s = rich_spec();
    s.late_joins.clear();
    EXPECT_EQ(s.to_json().find("late_joins"), nullptr);
    EXPECT_EQ(s, ScenarioSpec::from_json(s.to_json()));
  }
}

TEST(ScenarioSpec, ValidationCoversPolicies) {
  {
    ScenarioSpec s = rich_spec();  // two well-formed policies
    EXPECT_TRUE(s.validate().empty());
    // Policies contribute their services to the composition plan.
    const auto managed = s.managed_services();
    EXPECT_EQ(managed.at("consensus"), Mechanism::kReplConsensus);
    EXPECT_EQ(managed.at("abcast"), Mechanism::kRepl);
  }
  {
    ScenarioSpec s = rich_spec();
    s.policies[0].to_protocol = "consensus.mr";  // wrong service prefix
    EXPECT_FALSE(s.validate().empty());
  }
  {
    ScenarioSpec s = rich_spec();
    s.policies[0].trigger = "entropy";  // unknown trigger
    EXPECT_FALSE(s.validate().empty());
  }
  {
    ScenarioSpec s = rich_spec();
    s.policies[0].latency_threshold = 0;  // latency trigger needs one
    EXPECT_FALSE(s.validate().empty());
  }
  {
    ScenarioSpec s = rich_spec();
    s.policies[1].node = 9;  // watched node out of range (n = 5)
    EXPECT_FALSE(s.validate().empty());
  }
  {
    ScenarioSpec s = rich_spec();
    s.policies[0].service = "rp2p";  // not a replaceable service
    EXPECT_FALSE(s.validate().empty());
  }
  {
    ScenarioSpec s = rich_spec();
    s.policies[0].window = 0;
    EXPECT_FALSE(s.validate().empty());
  }
}

TEST(ScenarioSpec, ValidationCoversWorkloadPhases) {
  {
    ScenarioSpec s = rich_spec();
    s.workload.phases[0].until = s.workload.phases[0].from;  // empty window
    EXPECT_FALSE(s.validate().empty());
  }
  {
    ScenarioSpec s = rich_spec();
    s.workload.phases[1].value = 0.0;  // burst factor must be positive
    EXPECT_FALSE(s.validate().empty());
  }
  {
    ScenarioSpec s = rich_spec();
    s.workload.phases[1].until = s.duration + kSecond;  // outlives workload
    EXPECT_FALSE(s.validate().empty());
  }
  {
    ScenarioSpec s = rich_spec();
    s.workload.rate_per_stack = 0.0;  // phases atop a zero base rate
    EXPECT_FALSE(s.validate().empty());
  }
}

TEST(ScenarioSpec, NegativeJsonSizesFailValidationInsteadOfWrapping) {
  // {"n": -1} wraps to 2^64-1 through size_t; without an upper bound the
  // runner would hang building stacks (or OOM on message_size).
  const ScenarioSpec bad_n = ScenarioSpec::from_json_text(
      R"({"name": "neg", "n": -1})");
  EXPECT_FALSE(bad_n.validate().empty());
  const ScenarioSpec bad_size = ScenarioSpec::from_json_text(
      R"({"name": "neg", "workload": {"message_size": -1}})");
  EXPECT_FALSE(bad_size.validate().empty());
  const ScenarioSpec too_many = ScenarioSpec::from_json_text(
      R"({"name": "big", "n": 100000})");
  EXPECT_FALSE(too_many.validate().empty());
}

TEST(ScenarioLibrary, CuratedScenariosAreValidAndDistinct) {
  const std::vector<ScenarioSpec> specs = curated_scenarios();
  ASSERT_GE(specs.size(), 8u);
  std::set<std::string> names;
  for (const ScenarioSpec& spec : specs) {
    const std::vector<std::string> problems = spec.validate();
    EXPECT_TRUE(problems.empty())
        << spec.name << ": " << (problems.empty() ? "" : problems.front());
    EXPECT_TRUE(names.insert(spec.name).second)
        << "duplicate name " << spec.name;
    // Library entries must round-trip (they are exported to CI tooling).
    EXPECT_EQ(spec, ScenarioSpec::from_json(spec.to_json())) << spec.name;
  }
  EXPECT_TRUE(find_scenario("crash-during-replacement").has_value());
  EXPECT_FALSE(find_scenario("no-such-scenario").has_value());
}

TEST(ScenarioJson, ParserHandlesEscapesAndNesting) {
  const Json v = Json::parse(
      R"({"s": "a\"b\\c\ndA", "arr": [1, -2.5, true, false, null],
          "nested": {"empty_obj": {}, "empty_arr": []}})");
  EXPECT_EQ(v.at("s").as_string(), "a\"b\\c\ndA");
  EXPECT_EQ(v.at("arr").items()[0].as_int(), 1);
  EXPECT_DOUBLE_EQ(v.at("arr").items()[1].as_double(), -2.5);
  EXPECT_TRUE(v.at("arr").items()[2].as_bool());
  EXPECT_TRUE(v.at("arr").items()[4].is_null());
  EXPECT_EQ(v.at("nested").at("empty_obj").size(), 0u);
  // dump -> parse -> dump is a fixed point.
  EXPECT_EQ(Json::parse(v.dump()).dump(), v.dump());
}

TEST(ScenarioJson, ParserRejectsMalformedInput) {
  EXPECT_THROW((void)Json::parse("{"), JsonParseError);
  EXPECT_THROW((void)Json::parse("[1,]"), JsonParseError);
  EXPECT_THROW((void)Json::parse("{\"a\" 1}"), JsonParseError);
  EXPECT_THROW((void)Json::parse("tru"), JsonParseError);
  EXPECT_THROW((void)Json::parse("1 2"), JsonParseError);
  EXPECT_THROW((void)Json::parse("\"unterminated"), JsonParseError);
}

TEST(ScenarioJson, Int64RoundTripsExactly) {
  const std::int64_t big = 123'456'789'012'345'678LL;
  Json obj = Json::object();
  obj.set("t_ns", big);
  const Json back = Json::parse(obj.dump());
  EXPECT_EQ(back.at("t_ns").as_int(), big);
}

}  // namespace
}  // namespace dpu::scenario

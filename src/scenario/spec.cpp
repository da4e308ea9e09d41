#include "scenario/spec.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

namespace dpu::scenario {

const char* engine_name(Engine e) {
  switch (e) {
    case Engine::kSim: return "sim";
    case Engine::kRt: return "rt";
    case Engine::kProc: return "proc";
  }
  return "?";
}

Engine engine_from_name(const std::string& name) {
  for (Engine e : {Engine::kSim, Engine::kRt, Engine::kProc}) {
    if (name == engine_name(e)) return e;
  }
  throw std::runtime_error("scenario: unknown engine '" + name + "'");
}

const char* mechanism_name(Mechanism m) {
  switch (m) {
    case Mechanism::kNone: return "none";
    case Mechanism::kRepl: return "repl";
    case Mechanism::kReplConsensus: return "repl-consensus";
    case Mechanism::kReplRbcast: return "repl-rbcast";
    case Mechanism::kReplGm: return "repl-gm";
    case Mechanism::kMaestro: return "maestro";
    case Mechanism::kGraceful: return "graceful";
  }
  return "?";
}

Mechanism mechanism_from_name(const std::string& name) {
  for (Mechanism m : {Mechanism::kNone, Mechanism::kRepl,
                      Mechanism::kReplConsensus, Mechanism::kReplRbcast,
                      Mechanism::kReplGm, Mechanism::kMaestro,
                      Mechanism::kGraceful}) {
    if (name == mechanism_name(m)) return m;
  }
  throw std::runtime_error("scenario: unknown mechanism '" + name + "'");
}

Mechanism default_mechanism_for_service(const std::string& service) {
  if (service == "abcast") return Mechanism::kRepl;
  if (service == "consensus") return Mechanism::kReplConsensus;
  if (service == "rbcast") return Mechanism::kReplRbcast;
  if (service == "gm") return Mechanism::kReplGm;
  return Mechanism::kNone;
}

// ---------------------------------------------------------------------------
// Managed-service plan
// ---------------------------------------------------------------------------

namespace {

/// Service the spec-level mechanism manages ("" for kNone).
const char* primary_service(Mechanism m) {
  switch (m) {
    case Mechanism::kRepl:
    case Mechanism::kMaestro:
    case Mechanism::kGraceful:
      return "abcast";
    case Mechanism::kReplConsensus:
      return "consensus";
    case Mechanism::kReplRbcast:
      return "rbcast";
    case Mechanism::kReplGm:
      return "gm";
    case Mechanism::kNone:
      return "";
  }
  return "";
}

}  // namespace

Mechanism ScenarioSpec::update_mechanism(const UpdateAction& u) const {
  if (!u.mechanism.empty()) return mechanism_from_name(u.mechanism);
  // A "none" spec stays none (validate() rejects its update plan outright).
  if (mechanism == Mechanism::kNone) return mechanism;
  const std::string svc = u.target_service();
  if (svc == primary_service(mechanism)) return mechanism;
  // A non-primary layer defaults to its repl-family facade; unknown services
  // fall through to kNone, which validate() rejects.
  return default_mechanism_for_service(svc);
}

std::map<std::string, Mechanism> ScenarioSpec::managed_services() const {
  std::map<std::string, Mechanism> managed;
  const std::string primary = primary_service(mechanism);
  if (!primary.empty()) managed[primary] = mechanism;
  for (const UpdateAction& u : updates) {
    try {
      managed.emplace(u.target_service(), update_mechanism(u));
    } catch (const std::runtime_error&) {
      // Unknown mechanism name; validate() reports it.
    }
  }
  for (const PolicySpec& p : policies) {
    managed.emplace(p.service, default_mechanism_for_service(p.service));
  }
  return managed;
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

std::vector<std::string> ScenarioSpec::validate() const {
  std::vector<std::string> problems;
  auto problem = [&problems](std::string why) {
    problems.push_back(std::move(why));
  };

  if (name.empty()) problem("name must not be empty");
  // Upper bounds also catch negative JSON values wrapped through size_t:
  // without them a {"n": -1} spec would pass and hang the runner.
  if (n == 0 || n > kMaxStacks) {
    problem("n must be in [1, " + std::to_string(kMaxStacks) + "]");
  }
  if (duration <= 0) problem("duration must be positive");
  if (drain < 0) problem("drain must be non-negative");
  const TimePoint horizon = duration + drain;

  if (workload.rate_per_stack < 0) problem("workload rate must be >= 0");
  // ProbePayload::make needs room for its header (<= 26 bytes); the upper
  // bound rejects size_t-wrapped negatives from JSON.
  if (workload.message_size < 32 || workload.message_size > kMaxMessageSize) {
    problem("message_size must be in [32, " +
            std::to_string(kMaxMessageSize) + "]");
  }
  if (workload.start_after < 0 || workload.stop_after < 0) {
    problem("workload window must be non-negative");
  }
  if (workload.stop_after > duration) {
    problem("workload stop_after exceeds duration");
  }
  if (!workload.phases.empty() && workload.rate_per_stack <= 0) {
    problem("workload phases require a positive base rate");
  }
  for (const WorkloadPhase& p : workload.phases) {
    if (p.from < 0 || p.from >= p.until) {
      problem("workload phase must satisfy 0 <= from < until");
    }
    if (p.until > duration) problem("workload phase outlives the workload");
    if (p.value <= 0) {
      problem(p.kind == WorkloadPhase::Kind::kBurst
                  ? "burst factor must be positive"
                  : "ramp target rate must be positive");
    }
  }

  auto check_prob = [&problem](double p, const char* what) {
    if (p < 0.0 || p > 1.0) {
      problem(std::string(what) + " must be in [0,1]");
    }
  };
  check_prob(base_drop, "base_drop");
  check_prob(base_duplicate, "base_duplicate");

  std::set<NodeId> crashed;
  for (const CrashFault& c : crashes) {
    if (c.node >= n) problem("crash node out of range");
    if (c.at < 0 || c.at > horizon) problem("crash time outside the run");
    if (!crashed.insert(c.node).second) problem("node crashed twice");
  }
  std::set<NodeId> joining;
  for (const LateJoin& lj : late_joins) {
    if (lj.node >= n) {
      problem("late-join node out of range");
      continue;
    }
    // The runner realizes a late join as a crash at 1ms + a recovery at
    // `at`, so the join must leave room for that synthetic crash.
    if (lj.at <= kMillisecond || lj.at > horizon) {
      problem("late-join time must be in (1ms, duration+drain]");
    }
    if (!joining.insert(lj.node).second) problem("node late-joins twice");
    if (crashed.count(lj.node) != 0) {
      problem("late-join node " + std::to_string(lj.node) +
              " also appears in crashes (a late joiner is down from the "
              "start already)");
    }
  }
  // The consensus substrate (and therefore every update mechanism) assumes
  // a correct majority; scenarios that kill one are specification bugs.
  // Recoveries do not relax the rule: between crash and recovery the
  // crashed set must still leave a live majority.  Late joiners count as
  // down until they join, so they add to the crashed set here.
  if ((crashed.size() + joining.size()) * 2 >= n) {
    problem("crashes and late joins must leave a strict majority of "
            "stacks alive");
  }

  std::set<NodeId> recovered;
  for (const RecoverFault& rec : recoveries) {
    if (rec.node >= n) {
      problem("recovery node out of range");
      continue;
    }
    if (!recovered.insert(rec.node).second) problem("node recovered twice");
    if (rec.at < 0 || rec.at > horizon) {
      problem("recovery time outside the run");
    }
    if (joining.count(rec.node) != 0) {
      problem("node " + std::to_string(rec.node) +
              " both late-joins and recovers (a late join already expands "
              "to crash + recovery)");
      continue;
    }
    bool found = false;
    for (const CrashFault& c : crashes) {
      if (c.node != rec.node) continue;
      found = true;
      if (rec.at <= c.at) {
        problem("recovery of node " + std::to_string(rec.node) +
                " must be after its crash");
      }
    }
    if (!found) {
      problem("recovery of node " + std::to_string(rec.node) +
              " has no matching crash");
    }
  }

  for (const PartitionFault& p : partitions) {
    if (p.from < 0 || p.from >= p.until) {
      problem("partition window must satisfy 0 <= from < until");
    }
    if (p.until > horizon) {
      problem("partition outlives the run (it would never heal)");
    }
    if (p.isolated.empty() || p.isolated.size() >= n) {
      problem("partition must isolate a proper non-empty subset");
    }
    for (NodeId node : p.isolated) {
      if (node >= n) problem("partitioned node out of range");
    }
  }

  std::vector<std::pair<TimePoint, TimePoint>> windows;
  for (const LossWindow& w : loss_windows) {
    if (w.from < 0 || w.from >= w.until) {
      problem("loss window must satisfy 0 <= from < until");
    }
    check_prob(w.drop, "loss window drop");
    check_prob(w.duplicate, "loss window duplicate");
    for (const LinkOverride& o : w.link_overrides) {
      if (o.src >= n || o.dst >= n) problem("link override node out of range");
      check_prob(o.drop, "link override drop");
      check_prob(o.duplicate, "link override duplicate");
      if (o.extra_latency < 0) {
        problem("link override extra latency must be non-negative");
      }
    }
    windows.emplace_back(w.from, w.until);
  }
  std::sort(windows.begin(), windows.end());
  for (std::size_t i = 1; i < windows.size(); ++i) {
    if (windows[i].first < windows[i - 1].second) {
      problem("loss windows must not overlap");
      break;
    }
  }

  // The spec-level mechanism's own layer takes initial_protocol; a "none"
  // composition still binds an abcast protocol directly.
  const std::string primary_svc = primary_service(mechanism);
  const std::string expected_prefix =
      (primary_svc.empty() ? std::string("abcast") : primary_svc) + ".";
  if (initial_protocol.rfind(expected_prefix, 0) != 0) {
    problem("initial_protocol '" + initial_protocol + "' does not match " +
            mechanism_name(mechanism) + " (expected " + expected_prefix +
            "*)");
  }
  if (initial_consensus.rfind("consensus.", 0) != 0) {
    problem("initial_consensus '" + initial_consensus +
            "' must be a consensus.* library");
  }

  // Update plan: every action resolves to a (service, mechanism) pair; one
  // mechanism per service across the run.
  std::map<std::string, Mechanism> managed;
  const std::string primary = primary_service(mechanism);
  if (!primary.empty()) managed[primary] = mechanism;
  for (const UpdateAction& u : updates) {
    if (u.initiator >= n) problem("update initiator out of range");
    if (u.at < 0 || u.at > duration) {
      problem("update time outside the workload window");
    }
    Mechanism m = Mechanism::kNone;
    try {
      m = update_mechanism(u);
    } catch (const std::runtime_error&) {
      problem("update mechanism '" + u.mechanism + "' is unknown");
      continue;
    }
    if (m == Mechanism::kNone) {
      problem("update of '" + u.protocol +
              "' has no mechanism (mechanism 'none' cannot execute an "
              "update plan)");
      continue;
    }
    const std::string svc = u.target_service();
    const std::string mech_service = primary_service(m);
    const std::string mech_prefix = mech_service + ".";
    if (svc != mech_service) {
      problem("update of service '" + svc + "' cannot use mechanism '" +
              std::string(mechanism_name(m)) + "' (it manages '" +
              mech_service + "')");
    }
    if (u.protocol.rfind(mech_prefix, 0) != 0) {
      problem("update target '" + u.protocol + "' does not match " +
              mechanism_name(m) + " (expected " + mech_prefix + "*)");
    }
    auto [it, inserted] = managed.emplace(svc, m);
    if (!inserted && it->second != m) {
      problem("service '" + svc + "' is updated by both '" +
              mechanism_name(it->second) + "' and '" + mechanism_name(m) +
              "' — one mechanism per service");
    }
  }
  // Adaptation policies: each rule resolves like an update target — the
  // service gets its repl-family facade, one mechanism per service.
  for (std::size_t i = 0; i < policies.size(); ++i) {
    const PolicySpec& p = policies[i];
    const std::string label =
        "policy " + (p.name.empty() ? std::to_string(i) : "'" + p.name + "'");
    const Mechanism m = default_mechanism_for_service(p.service);
    if (m == Mechanism::kNone) {
      problem(label + ": service '" + p.service + "' is not replaceable");
      continue;
    }
    const std::string svc_prefix = p.service + ".";
    if (p.to_protocol.rfind(svc_prefix, 0) != 0) {
      problem(label + ": target '" + p.to_protocol + "' does not provide '" +
              p.service + "' (expected " + svc_prefix + "*)");
    }
    if (!p.when_protocol.empty() &&
        p.when_protocol.rfind(svc_prefix, 0) != 0) {
      problem(label + ": watched protocol '" + p.when_protocol +
              "' does not provide '" + p.service + "'");
    }
    if (p.trigger == "fd-suspect") {
      if (p.node != kNoNode && p.node >= n) {
        problem(label + ": watched node out of range");
      }
    } else if (p.trigger == "latency") {
      if (p.latency_threshold <= 0) {
        problem(label + ": latency trigger needs a positive threshold");
      }
    } else if (p.trigger == "load") {
      if (p.rate_threshold <= 0) {
        problem(label + ": load trigger needs a positive rate threshold");
      }
    } else {
      problem(label + ": unknown trigger '" + p.trigger + "'");
    }
    if (p.window <= 0) problem(label + ": window must be positive");
    if (p.cooldown < 0) problem(label + ": cooldown must be non-negative");
    auto [it, inserted] = managed.emplace(p.service, m);
    if (!inserted && it->second != m) {
      problem(label + ": service '" + p.service + "' is already managed by '" +
              std::string(mechanism_name(it->second)) +
              "' — one mechanism per service");
    }
  }

  // Recovery and late join need a state-transfer path back into the group:
  // every repl-family facade provides one through the substrate (snapshot +
  // replay tail, or the consensus decided-history resend), but the maestro
  // and graceful baselines rebuild whole stacks with no such protocol.
  // admit_scenario (runner.hpp) additionally asks the registry whether each
  // managed service supports state transfer
  // (ProtocolRegistry::state_transfer) — a composition fact validate() has
  // no access to.
  if (!recoveries.empty() || !late_joins.empty()) {
    for (const auto& [svc, m] : managed) {
      if (m == Mechanism::kMaestro || m == Mechanism::kGraceful) {
        problem("recoveries/late joins cannot combine with mechanism '" +
                std::string(mechanism_name(m)) + "' on '" + svc +
                "' (no state-transfer path)");
      }
    }
  }

  {
    // Maestro finalizes the whole protocol layer and Graceful Adaptation
    // rebuilds its AAC's substrate expectations; both would destroy a
    // replacement facade composed for another layer.  Only the paper's
    // modular mechanism composes with additional replaceable services.
    auto abcast_it = managed.find("abcast");
    if (abcast_it != managed.end() && abcast_it->second != Mechanism::kRepl) {
      for (const auto& [svc, m] : managed) {
        (void)m;
        if (svc == "abcast") continue;
        problem("replacement of '" + svc +
                "' combines only with abcast mechanism 'repl' (not '" +
                std::string(mechanism_name(abcast_it->second)) + "')");
      }
    }
  }

  if (hop_cost < 0 || module_create_cost < 0) {
    problem("cost-model durations must be non-negative");
  }

  if (fd_heartbeat < 0 || fd_timeout < 0) {
    problem("fd_heartbeat/fd_timeout must be non-negative (0 = default)");
  }
  if (fd_heartbeat > 0 && fd_timeout > 0 && fd_timeout <= fd_heartbeat) {
    problem("fd_timeout must exceed fd_heartbeat (a timeout shorter than "
            "one heartbeat interval suspects every correct peer)");
  }

  if (sim_shards == 0) problem("sim_shards must be >= 1 (use 1 for serial)");
  if (sim_shards > n) {
    problem("sim_shards exceeds n (shards own node subsets; extras would "
            "idle)");
  }
  return problems;
}

// ---------------------------------------------------------------------------
// JSON round-trip.  Durations travel as int64 nanoseconds ("_ns" suffix) so
// that to_json/from_json is exact.
// ---------------------------------------------------------------------------

Json ScenarioSpec::to_json() const {
  Json j = Json::object();
  j.set("name", name);
  j.set("description", description);
  j.set("n", n);
  j.set("duration_ns", duration);
  j.set("drain_ns", drain);
  j.set("engine", engine_name(engine));
  j.set("mechanism", mechanism_name(mechanism));
  j.set("initial_protocol", initial_protocol);
  j.set("initial_consensus", initial_consensus);

  Json net = Json::object();
  net.set("drop", base_drop);
  net.set("duplicate", base_duplicate);
  j.set("net", std::move(net));

  Json w = Json::object();
  w.set("rate_per_stack", workload.rate_per_stack);
  w.set("message_size", workload.message_size);
  w.set("poisson", workload.poisson);
  w.set("start_after_ns", workload.start_after);
  w.set("stop_after_ns", workload.stop_after);
  Json phase_list = Json::array();
  for (const WorkloadPhase& p : workload.phases) {
    Json e = Json::object();
    e.set("kind",
          p.kind == WorkloadPhase::Kind::kBurst ? "burst" : "ramp");
    e.set("from_ns", p.from);
    e.set("until_ns", p.until);
    e.set(p.kind == WorkloadPhase::Kind::kBurst ? "factor" : "to_rate",
          p.value);
    phase_list.push(std::move(e));
  }
  w.set("phases", std::move(phase_list));
  j.set("workload", std::move(w));

  Json crash_list = Json::array();
  for (const CrashFault& c : crashes) {
    Json e = Json::object();
    e.set("at_ns", c.at);
    e.set("node", c.node);
    crash_list.push(std::move(e));
  }
  j.set("crashes", std::move(crash_list));

  Json recover_list = Json::array();
  for (const RecoverFault& rec : recoveries) {
    Json e = Json::object();
    e.set("at_ns", rec.at);
    e.set("node", rec.node);
    recover_list.push(std::move(e));
  }
  j.set("recoveries", std::move(recover_list));

  // Off the wire when empty, so pre-late-join specs serialize unchanged.
  if (!late_joins.empty()) {
    Json join_list = Json::array();
    for (const LateJoin& lj : late_joins) {
      Json e = Json::object();
      e.set("at_ns", lj.at);
      e.set("node", lj.node);
      join_list.push(std::move(e));
    }
    j.set("late_joins", std::move(join_list));
  }

  Json partition_list = Json::array();
  for (const PartitionFault& p : partitions) {
    Json e = Json::object();
    e.set("from_ns", p.from);
    e.set("until_ns", p.until);
    Json nodes = Json::array();
    for (NodeId node : p.isolated) nodes.push(node);
    e.set("isolated", std::move(nodes));
    partition_list.push(std::move(e));
  }
  j.set("partitions", std::move(partition_list));

  Json loss_list = Json::array();
  for (const LossWindow& w2 : loss_windows) {
    Json e = Json::object();
    e.set("from_ns", w2.from);
    e.set("until_ns", w2.until);
    e.set("drop", w2.drop);
    e.set("duplicate", w2.duplicate);
    Json overrides = Json::array();
    for (const LinkOverride& o : w2.link_overrides) {
      Json oe = Json::object();
      oe.set("src", o.src);
      oe.set("dst", o.dst);
      oe.set("drop", o.drop);
      oe.set("duplicate", o.duplicate);
      oe.set("extra_latency_ns", o.extra_latency);
      overrides.push(std::move(oe));
    }
    e.set("link_overrides", std::move(overrides));
    loss_list.push(std::move(e));
  }
  j.set("loss_windows", std::move(loss_list));

  Json update_list = Json::array();
  for (const UpdateAction& u : updates) {
    Json e = Json::object();
    e.set("at_ns", u.at);
    e.set("initiator", u.initiator);
    e.set("protocol", u.protocol);
    // Defaulted fields stay off the wire, so pre-UpdateApi specs serialize
    // exactly as they used to.
    if (!u.service.empty()) e.set("service", u.service);
    if (!u.mechanism.empty()) e.set("mechanism", u.mechanism);
    update_list.push(std::move(e));
  }
  j.set("updates", std::move(update_list));

  Json policy_list = Json::array();
  for (const PolicySpec& p : policies) {
    Json e = Json::object();
    if (!p.name.empty()) e.set("name", p.name);
    e.set("service", p.service);
    if (!p.when_protocol.empty()) e.set("when", p.when_protocol);
    e.set("to", p.to_protocol);
    e.set("trigger", p.trigger);
    if (p.trigger == "fd-suspect") {
      if (p.node != kNoNode) e.set("node", p.node);
    } else if (p.trigger == "latency") {
      e.set("latency_threshold_ns", p.latency_threshold);
      e.set("window_ns", p.window);
    } else {
      e.set("rate", p.rate_threshold);
      e.set("window_ns", p.window);
    }
    if (p.cooldown != 0) e.set("cooldown_ns", p.cooldown);
    policy_list.push(std::move(e));
  }
  j.set("policies", std::move(policy_list));

  Json cost = Json::object();
  cost.set("hop_cost_ns", hop_cost);
  cost.set("module_create_cost_ns", module_create_cost);
  j.set("cost", std::move(cost));

  // Deployment-scale knobs: off the wire at their defaults, so pre-cluster
  // spec documents (and their digests) stay byte-stable.
  if (fd_heartbeat != 0) j.set("fd_heartbeat_ns", fd_heartbeat);
  if (fd_timeout != 0) j.set("fd_timeout_ns", fd_timeout);
  if (!rbcast_relay) j.set("rbcast_relay", rbcast_relay);
  if (rt_sockets) j.set("rt_sockets", rt_sockets);

  // Off the wire at the default: sharding does not change results, and
  // leaving it out keeps pre-existing spec documents byte-stable.
  if (sim_shards != 1) j.set("sim_shards", sim_shards);

  j.set("max_retransmissions", max_retransmissions);
  return j;
}

namespace {

/// Rejects keys outside `allowed` — catches typos in hand-written specs
/// that would otherwise silently fall back to defaults.
void check_keys(const Json& obj, const char* where,
                std::initializer_list<std::string_view> allowed) {
  for (const auto& [key, value] : obj.members()) {
    (void)value;
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      throw std::runtime_error(std::string("scenario: unknown key '") + key +
                               "' in " + where);
    }
  }
}

NodeId node_from(const Json& j) {
  const std::int64_t v = j.as_int();
  if (v < 0 || v >= static_cast<std::int64_t>(kNoNode)) {
    throw std::runtime_error("scenario: node id out of range");
  }
  return static_cast<NodeId>(v);
}

}  // namespace

ScenarioSpec ScenarioSpec::from_json(const Json& j) {
  check_keys(j, "spec",
             {"name", "description", "n", "duration_ns", "drain_ns",
              "engine", "mechanism", "initial_protocol", "initial_consensus",
              "net", "workload", "crashes", "recoveries", "late_joins",
              "partitions", "loss_windows", "updates", "policies", "cost",
              "fd_heartbeat_ns", "fd_timeout_ns", "rbcast_relay",
              "rt_sockets", "sim_shards", "max_retransmissions"});
  ScenarioSpec spec;
  if (const Json* v = j.find("name")) spec.name = v->as_string();
  if (const Json* v = j.find("description")) spec.description = v->as_string();
  if (const Json* v = j.find("n")) {
    spec.n = static_cast<std::size_t>(v->as_int());
  }
  if (const Json* v = j.find("duration_ns")) spec.duration = v->as_int();
  if (const Json* v = j.find("drain_ns")) spec.drain = v->as_int();
  if (const Json* v = j.find("engine")) {
    spec.engine = engine_from_name(v->as_string());
  }
  if (const Json* v = j.find("mechanism")) {
    spec.mechanism = mechanism_from_name(v->as_string());
  }
  if (const Json* v = j.find("initial_protocol")) {
    spec.initial_protocol = v->as_string();
  }
  if (const Json* v = j.find("initial_consensus")) {
    spec.initial_consensus = v->as_string();
  }
  if (const Json* net = j.find("net")) {
    check_keys(*net, "net", {"drop", "duplicate"});
    if (const Json* v = net->find("drop")) spec.base_drop = v->as_double();
    if (const Json* v = net->find("duplicate")) {
      spec.base_duplicate = v->as_double();
    }
  }
  if (const Json* w = j.find("workload")) {
    check_keys(*w, "workload",
               {"rate_per_stack", "message_size", "poisson", "start_after_ns",
                "stop_after_ns", "phases"});
    if (const Json* v = w->find("rate_per_stack")) {
      spec.workload.rate_per_stack = v->as_double();
    }
    if (const Json* v = w->find("message_size")) {
      spec.workload.message_size = static_cast<std::size_t>(v->as_int());
    }
    if (const Json* v = w->find("poisson")) {
      spec.workload.poisson = v->as_bool();
    }
    if (const Json* v = w->find("start_after_ns")) {
      spec.workload.start_after = v->as_int();
    }
    if (const Json* v = w->find("stop_after_ns")) {
      spec.workload.stop_after = v->as_int();
    }
    if (const Json* list = w->find("phases")) {
      for (const Json& e : list->items()) {
        check_keys(e, "workload phase",
                   {"kind", "from_ns", "until_ns", "factor", "to_rate"});
        WorkloadPhase p;
        const std::string kind = e.at("kind").as_string();
        if (kind == "burst") {
          p.kind = WorkloadPhase::Kind::kBurst;
        } else if (kind == "ramp") {
          p.kind = WorkloadPhase::Kind::kRamp;
        } else {
          throw std::runtime_error("scenario: unknown workload phase kind '" +
                                   kind + "'");
        }
        p.from = e.at("from_ns").as_int();
        p.until = e.at("until_ns").as_int();
        const char* value_key =
            p.kind == WorkloadPhase::Kind::kBurst ? "factor" : "to_rate";
        p.value = e.at(value_key).as_double();
        spec.workload.phases.push_back(p);
      }
    }
  }
  if (const Json* list = j.find("crashes")) {
    for (const Json& e : list->items()) {
      check_keys(e, "crash", {"at_ns", "node"});
      CrashFault c;
      c.at = e.at("at_ns").as_int();
      c.node = node_from(e.at("node"));
      spec.crashes.push_back(c);
    }
  }
  if (const Json* list = j.find("recoveries")) {
    for (const Json& e : list->items()) {
      check_keys(e, "recovery", {"at_ns", "node"});
      RecoverFault rec;
      rec.at = e.at("at_ns").as_int();
      rec.node = node_from(e.at("node"));
      spec.recoveries.push_back(rec);
    }
  }
  if (const Json* list = j.find("late_joins")) {
    for (const Json& e : list->items()) {
      check_keys(e, "late join", {"at_ns", "node"});
      LateJoin lj;
      lj.at = e.at("at_ns").as_int();
      lj.node = node_from(e.at("node"));
      spec.late_joins.push_back(lj);
    }
  }
  if (const Json* list = j.find("partitions")) {
    for (const Json& e : list->items()) {
      check_keys(e, "partition", {"from_ns", "until_ns", "isolated"});
      PartitionFault p;
      p.from = e.at("from_ns").as_int();
      p.until = e.at("until_ns").as_int();
      for (const Json& node : e.at("isolated").items()) {
        p.isolated.push_back(node_from(node));
      }
      spec.partitions.push_back(std::move(p));
    }
  }
  if (const Json* list = j.find("loss_windows")) {
    for (const Json& e : list->items()) {
      check_keys(e, "loss window",
                 {"from_ns", "until_ns", "drop", "duplicate",
                  "link_overrides"});
      LossWindow w;
      w.from = e.at("from_ns").as_int();
      w.until = e.at("until_ns").as_int();
      if (const Json* v = e.find("drop")) w.drop = v->as_double();
      if (const Json* v = e.find("duplicate")) w.duplicate = v->as_double();
      if (const Json* list2 = e.find("link_overrides")) {
        for (const Json& oe : list2->items()) {
          check_keys(oe, "link override",
                     {"src", "dst", "drop", "duplicate", "extra_latency_ns"});
          LinkOverride o;
          o.src = node_from(oe.at("src"));
          o.dst = node_from(oe.at("dst"));
          if (const Json* v = oe.find("drop")) o.drop = v->as_double();
          if (const Json* v = oe.find("duplicate")) {
            o.duplicate = v->as_double();
          }
          if (const Json* v = oe.find("extra_latency_ns")) {
            o.extra_latency = v->as_int();
          }
          w.link_overrides.push_back(o);
        }
      }
      spec.loss_windows.push_back(std::move(w));
    }
  }
  if (const Json* list = j.find("updates")) {
    for (const Json& e : list->items()) {
      check_keys(e, "update",
                 {"at_ns", "initiator", "protocol", "service", "mechanism"});
      UpdateAction u;
      u.at = e.at("at_ns").as_int();
      u.initiator = node_from(e.at("initiator"));
      u.protocol = e.at("protocol").as_string();
      if (const Json* v = e.find("service")) u.service = v->as_string();
      if (const Json* v = e.find("mechanism")) u.mechanism = v->as_string();
      spec.updates.push_back(std::move(u));
    }
  }
  if (const Json* list = j.find("policies")) {
    for (const Json& e : list->items()) {
      check_keys(e, "policy",
                 {"name", "service", "when", "to", "trigger", "node",
                  "latency_threshold_ns", "rate", "window_ns", "cooldown_ns"});
      PolicySpec p;
      if (const Json* v = e.find("name")) p.name = v->as_string();
      if (const Json* v = e.find("service")) p.service = v->as_string();
      if (const Json* v = e.find("when")) p.when_protocol = v->as_string();
      p.to_protocol = e.at("to").as_string();
      if (const Json* v = e.find("trigger")) p.trigger = v->as_string();
      if (const Json* v = e.find("node")) p.node = node_from(*v);
      if (const Json* v = e.find("latency_threshold_ns")) {
        p.latency_threshold = v->as_int();
      }
      if (const Json* v = e.find("rate")) p.rate_threshold = v->as_double();
      if (const Json* v = e.find("window_ns")) p.window = v->as_int();
      if (const Json* v = e.find("cooldown_ns")) p.cooldown = v->as_int();
      spec.policies.push_back(std::move(p));
    }
  }
  if (const Json* cost = j.find("cost")) {
    check_keys(*cost, "cost", {"hop_cost_ns", "module_create_cost_ns"});
    if (const Json* v = cost->find("hop_cost_ns")) spec.hop_cost = v->as_int();
    if (const Json* v = cost->find("module_create_cost_ns")) {
      spec.module_create_cost = v->as_int();
    }
  }
  if (const Json* v = j.find("fd_heartbeat_ns")) {
    spec.fd_heartbeat = v->as_int();
  }
  if (const Json* v = j.find("fd_timeout_ns")) spec.fd_timeout = v->as_int();
  if (const Json* v = j.find("rbcast_relay")) {
    spec.rbcast_relay = v->as_bool();
  }
  if (const Json* v = j.find("rt_sockets")) spec.rt_sockets = v->as_bool();
  if (const Json* v = j.find("sim_shards")) {
    const std::int64_t raw = v->as_int();
    if (raw < 1) throw std::runtime_error("scenario: sim_shards < 1");
    spec.sim_shards = static_cast<std::size_t>(raw);
  }
  if (const Json* v = j.find("max_retransmissions")) {
    const std::int64_t raw = v->as_int();
    if (raw < 0) throw std::runtime_error("scenario: max_retransmissions < 0");
    spec.max_retransmissions = static_cast<std::uint64_t>(raw);
  }
  return spec;
}

}  // namespace dpu::scenario

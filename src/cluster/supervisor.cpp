#include "cluster/supervisor.hpp"

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "abcast/audit.hpp"
#include "cluster/control.hpp"
#include "cluster/hosts.hpp"
#include "cluster/journal.hpp"
#include "scenario/compose.hpp"
#include "util/log.hpp"

namespace dpu::cluster {

namespace {

using scenario::Json;
using scenario::ScenarioResult;
using scenario::ScenarioSpec;

namespace fs = std::filesystem;

[[nodiscard]] std::int64_t mono_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// What the campaign timeline does at one instant.
struct TimelineEvent {
  enum class Kind { kKill, kRespawn, kFaultChange };
  TimePoint at = 0;
  Kind kind = Kind::kFaultChange;
  NodeId node = kNoNode;
  bool late_join = false;  ///< respawn realizing a late join (first boot)
};

[[nodiscard]] std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace

// ---------------------------------------------------------------------------
// One run's full state, so helpers share it without a parameter caravan.
// ---------------------------------------------------------------------------

class ClusterSupervisor::Run {
 public:
  Run(const SupervisorOptions& options, const ScenarioSpec& spec,
      std::uint64_t seed)
      : options_(options), spec_(spec), seed_(seed), ctrl_(options.control_port) {}

  ~Run() { kill_all(); }

  ScenarioResult execute();

 private:
  struct Agent {
    pid_t pid = -1;
    std::uint32_t incarnation = 0;
    bool helloed = false;
    sockaddr_in addr{};  ///< control address, learned from the hello
    /// Every incarnation this node ever ran, ascending — the journal replay
    /// order.  Present nodes start at {0}; late joiners start empty.
    std::vector<std::uint32_t> incarnations;
  };

  [[nodiscard]] TimePoint world_now() const {
    return mono_now_ns() - epoch_ns_;
  }

  void check_cancel() {
    if (options_.cancel != nullptr &&
        options_.cancel->load(std::memory_order_relaxed)) {
      kill_all();
      throw std::runtime_error("cluster run canceled");
    }
  }

  void setup_run_dir();
  void spawn(NodeId node, std::uint32_t incarnation);
  void kill_all();
  /// Reaps `pid`, SIGKILLing it after `patience` if it will not exit.
  void reap(pid_t pid, Duration patience);

  /// Handles one inbound control message (hello or an ack/report).
  void handle_message(const Json& msg, const sockaddr_in& from);
  /// Pumps inbound messages for up to `budget`.
  void pump(Duration budget);
  /// Sleeps until world time `t`, pumping the control channel meanwhile.
  void sleep_until(TimePoint t);

  [[nodiscard]] Json fault_state_at(TimePoint t) const;
  void broadcast_fault_state(TimePoint t);
  void send_fault_state_to(NodeId node);
  void await_hellos(const std::vector<NodeId>& nodes, Duration timeout);

  void run_timeline();
  void drain();
  void harvest();
  ScenarioResult merge();
  void replay_audit(AbcastAudit& audit) const;

  const SupervisorOptions& options_;
  const ScenarioSpec& spec_;
  std::uint64_t seed_ = 0;
  ControlSocket ctrl_;

  fs::path run_dir_;
  fs::path spec_path_;
  fs::path hosts_path_;
  std::int64_t epoch_ns_ = 0;

  std::vector<Agent> agents_;
  std::set<NodeId> crashed_now_;  ///< down at this instant
  /// Mirrors RtWorld::next_incarnation_: the first respawn (or late join)
  /// anywhere gets 1, globally increasing.
  std::uint32_t next_incarnation_ = 1;
  std::int64_t fault_seq_ = 0;
  Json current_fault_state_;  ///< last broadcast state (without type/seq)
  std::set<NodeId> fault_acked_;

  /// Quiescence reports for the in-flight status seq.
  std::int64_t status_seq_ = 0;
  std::map<NodeId, std::pair<std::uint64_t, std::uint64_t>> status_reports_;
  std::set<NodeId> harvest_acked_;

  /// Synthesized crash/recovery markers and join times for the merge.
  std::vector<TraceEvent> fault_markers_;
  std::vector<TimePoint> recovery_time_;
};

// ---------------------------------------------------------------------------
// Setup and process control
// ---------------------------------------------------------------------------

void ClusterSupervisor::Run::setup_run_dir() {
  run_dir_ = fs::path(options_.results_dir) /
             (spec_.name + "-s" + std::to_string(seed_));
  std::error_code ec;
  fs::remove_all(run_dir_, ec);  // stale journals would pollute the replay
  fs::create_directories(run_dir_);

  spec_path_ = run_dir_ / "spec.json";
  {
    std::ofstream out(spec_path_);
    out << spec_.to_json().dump(2) << "\n";
  }
  hosts_path_ = run_dir_ / "hosts.txt";
  {
    std::ofstream out(hosts_path_);
    out << HostsFile::generate(spec_.n, "127.0.0.1", options_.base_port)
               .format();
  }
}

void ClusterSupervisor::Run::spawn(NodeId node, std::uint32_t incarnation) {
  const std::vector<std::string> args = {
      options_.node_binary,
      "--spec", spec_path_.string(),
      "--hosts", hosts_path_.string(),
      "--node", std::to_string(node),
      "--incarnation", std::to_string(incarnation),
      "--epoch-ns", std::to_string(epoch_ns_),
      "--seed", std::to_string(seed_),
      "--supervisor-port", std::to_string(ctrl_.local_port()),
      "--results-dir", run_dir_.string(),
  };
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("cluster: fork failed");
  if (pid == 0) {
    // Child (async-signal-safe territory until exec).  Die with the
    // supervisor, whatever kills it; re-check the parent to close the race
    // where it died before prctl took effect.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::execv(options_.node_binary.c_str(), argv.data());
    ::_exit(126);
  }

  Agent& agent = agents_[node];
  agent.pid = pid;
  agent.incarnation = incarnation;
  agent.helloed = false;
  agent.incarnations.push_back(incarnation);
}

void ClusterSupervisor::Run::kill_all() {
  for (Agent& agent : agents_) {
    if (agent.pid <= 0) continue;
    ::kill(agent.pid, SIGKILL);
    ::waitpid(agent.pid, nullptr, 0);
    agent.pid = -1;
  }
}

void ClusterSupervisor::Run::reap(pid_t pid, Duration patience) {
  const std::int64_t deadline = mono_now_ns() + patience;
  for (;;) {
    int status = 0;
    const pid_t got = ::waitpid(pid, &status, WNOHANG);
    if (got == pid || (got < 0 && errno == ECHILD)) return;
    if (mono_now_ns() >= deadline) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

// ---------------------------------------------------------------------------
// Control channel
// ---------------------------------------------------------------------------

void ClusterSupervisor::Run::handle_message(const Json& msg,
                                            const sockaddr_in& from) {
  const Json* type_field = msg.find("type");
  if (type_field == nullptr) return;
  const std::string& type = type_field->as_string();

  if (type == "hello") {
    const auto node = static_cast<std::size_t>(msg.at("node").as_int());
    const auto inc = static_cast<std::uint32_t>(msg.at("incarnation").as_int());
    if (node >= agents_.size()) return;
    Agent& agent = agents_[node];
    // Ack every hello (resends included), but only the current incarnation
    // registers — a zombie predecessor's late hello must not hijack the
    // control address.
    Json ack = Json::object();
    ack.set("type", "hello_ack");
    ack.set("node", static_cast<NodeId>(node));
    ctrl_.send(from, ack);
    if (inc == agent.incarnation && agent.pid > 0) {
      const bool first = !agent.helloed;
      agent.helloed = true;
      agent.addr = from;
      // A respawned agent boots with no fault state: re-install the current
      // one (idempotent on the agent side).
      if (first && fault_seq_ > 0) send_fault_state_to(static_cast<NodeId>(node));
    }
    return;
  }

  const Json* node_field = msg.find("node");
  if (node_field == nullptr) return;
  const auto node = static_cast<std::size_t>(node_field->as_int());
  if (node >= agents_.size()) return;
  const Json* seq_field = msg.find("seq");
  const std::int64_t seq = seq_field != nullptr ? seq_field->as_int() : -1;

  if (type == "fault_ack") {
    if (seq == fault_seq_) fault_acked_.insert(static_cast<NodeId>(node));
  } else if (type == "report") {
    if (seq == status_seq_) {
      status_reports_[static_cast<NodeId>(node)] = {
          static_cast<std::uint64_t>(msg.at("deliveries").as_int()),
          static_cast<std::uint64_t>(msg.at("unacked").as_int())};
    }
  } else if (type == "harvest_ack") {
    harvest_acked_.insert(static_cast<NodeId>(node));
  }
}

void ClusterSupervisor::Run::pump(Duration budget) {
  const std::int64_t deadline = mono_now_ns() + budget;
  do {
    check_cancel();
    Json msg;
    sockaddr_in from{};
    const Duration left = deadline - mono_now_ns();
    if (left <= 0) break;
    if (ctrl_.receive(msg, from, std::min(left, 50 * kMillisecond))) {
      handle_message(msg, from);
    }
  } while (mono_now_ns() < deadline);
}

void ClusterSupervisor::Run::sleep_until(TimePoint t) {
  while (world_now() < t) {
    pump(std::min<Duration>(t - world_now(), 50 * kMillisecond));
  }
}

Json ClusterSupervisor::Run::fault_state_at(TimePoint t) const {
  double drop = spec_.base_drop;
  double duplicate = spec_.base_duplicate;
  Json links = Json::array();
  for (const scenario::LossWindow& w : spec_.loss_windows) {
    if (t < w.from || t >= w.until) continue;
    drop = w.drop;
    duplicate = w.duplicate;
    for (const scenario::LinkOverride& o : w.link_overrides) {
      Json link = Json::object();
      link.set("src", o.src);
      link.set("dst", o.dst);
      link.set("drop", o.drop);
      link.set("duplicate", o.duplicate);
      link.set("extra_latency_ns", o.extra_latency);
      links.push(std::move(link));
    }
  }
  Json isolated = Json::array();
  for (const scenario::PartitionFault& p : spec_.partitions) {
    if (t < p.from || t >= p.until) continue;
    Json side = Json::array();
    for (const NodeId id : p.isolated) side.push(id);
    isolated.push(std::move(side));
  }
  Json state = Json::object();
  state.set("drop", drop);
  state.set("duplicate", duplicate);
  state.set("isolated", std::move(isolated));
  state.set("link_overrides", std::move(links));
  return state;
}

void ClusterSupervisor::Run::broadcast_fault_state(TimePoint t) {
  current_fault_state_ = fault_state_at(t);
  ++fault_seq_;
  fault_acked_.clear();
  // Retry until every live agent acked this seq (the channel is lossy UDP);
  // give up after a bounded number of rounds — the state is re-sent on the
  // next change anyway, and a dying agent must not wedge the timeline.
  for (int round = 0; round < 20; ++round) {
    bool all = true;
    for (NodeId i = 0; i < spec_.n; ++i) {
      const Agent& agent = agents_[i];
      if (agent.pid <= 0 || !agent.helloed) continue;
      if (fault_acked_.count(i) != 0) continue;
      all = false;
      Json msg = current_fault_state_;
      msg.set("type", "fault");
      msg.set("seq", fault_seq_);
      ctrl_.send(agent.addr, msg);
    }
    if (all) return;
    pump(50 * kMillisecond);
  }
  DPU_LOG(kWarn, "cluster") << "fault state seq " << fault_seq_
                            << " not fully acked";
}

void ClusterSupervisor::Run::send_fault_state_to(NodeId node) {
  Json msg = current_fault_state_;
  msg.set("type", "fault");
  msg.set("seq", fault_seq_);
  ctrl_.send(agents_[node].addr, msg);
}

void ClusterSupervisor::Run::await_hellos(const std::vector<NodeId>& nodes,
                                          Duration timeout) {
  const std::int64_t deadline = mono_now_ns() + timeout;
  for (;;) {
    bool all = true;
    for (const NodeId i : nodes) {
      if (!agents_[i].helloed) all = false;
    }
    if (all) return;
    if (mono_now_ns() >= deadline) {
      std::string missing;
      for (const NodeId i : nodes) {
        if (!agents_[i].helloed) missing += " " + std::to_string(i);
      }
      throw std::runtime_error("cluster: agents never registered:" + missing);
    }
    pump(100 * kMillisecond);
  }
}

// ---------------------------------------------------------------------------
// The campaign timeline
// ---------------------------------------------------------------------------

void ClusterSupervisor::Run::run_timeline() {
  std::vector<TimelineEvent> timeline;
  for (const scenario::CrashFault& c : spec_.crashes) {
    timeline.push_back({c.at, TimelineEvent::Kind::kKill, c.node, false});
  }
  for (const scenario::RecoverFault& r : spec_.recoveries) {
    timeline.push_back({r.at, TimelineEvent::Kind::kRespawn, r.node, false});
  }
  for (const scenario::LateJoin& l : spec_.late_joins) {
    timeline.push_back({l.at, TimelineEvent::Kind::kRespawn, l.node, true});
  }
  for (const scenario::PartitionFault& p : spec_.partitions) {
    timeline.push_back({p.from, TimelineEvent::Kind::kFaultChange});
    timeline.push_back({p.until, TimelineEvent::Kind::kFaultChange});
  }
  for (const scenario::LossWindow& w : spec_.loss_windows) {
    timeline.push_back({w.from, TimelineEvent::Kind::kFaultChange});
    timeline.push_back({w.until, TimelineEvent::Kind::kFaultChange});
  }
  std::stable_sort(timeline.begin(), timeline.end(),
                   [](const TimelineEvent& a, const TimelineEvent& b) {
                     return a.at < b.at;
                   });

  for (const TimelineEvent& ev : timeline) {
    sleep_until(ev.at);
    check_cancel();
    switch (ev.kind) {
      case TimelineEvent::Kind::kKill: {
        Agent& agent = agents_[ev.node];
        if (agent.pid > 0) {
          ::kill(agent.pid, SIGKILL);
          ::waitpid(agent.pid, nullptr, 0);
          agent.pid = -1;
          agent.helloed = false;
        }
        crashed_now_.insert(ev.node);
        fault_markers_.push_back({world_now(), ev.node,
                                  TraceKind::kStackCrashed, "", "",
                                  "killed by supervisor"});
        break;
      }
      case TimelineEvent::Kind::kRespawn: {
        const std::uint32_t inc = next_incarnation_++;
        spawn(ev.node, inc);
        crashed_now_.erase(ev.node);
        const TimePoint at = world_now();
        recovery_time_[ev.node] = at;
        fault_markers_.push_back({at, ev.node, TraceKind::kStackRecovered, "",
                                  "", "incarnation=" + std::to_string(inc)});
        // The fresh process hellos on its own schedule; the hello handler
        // installs the current fault state once it does.  Wait here so a
        // failed exec surfaces as a run error, not a silent absent node.
        await_hellos({ev.node}, 15 * kSecond);
        break;
      }
      case TimelineEvent::Kind::kFaultChange:
        // Compute from the *event's* nominal time: wall clock may run a
        // hair late, and [from, until) boundaries must use the spec's time.
        broadcast_fault_state(ev.at);
        break;
    }
  }
  sleep_until(spec_.duration);
}

void ClusterSupervisor::Run::drain() {
  const TimePoint cap =
      spec_.duration + std::min(spec_.drain, options_.drain_cap);
  std::uint64_t last_deliveries = ~0ULL;
  TimePoint stable_since = world_now();

  while (world_now() < cap) {
    check_cancel();
    ++status_seq_;
    status_reports_.clear();
    Json status = Json::object();
    status.set("type", "status");
    status.set("seq", status_seq_);
    Json crashed = Json::array();
    for (const NodeId id : crashed_now_) crashed.push(id);
    status.set("crashed", std::move(crashed));

    std::size_t live = 0;
    for (NodeId i = 0; i < spec_.n; ++i) {
      const Agent& agent = agents_[i];
      if (agent.pid <= 0 || !agent.helloed) continue;
      ++live;
      ctrl_.send(agent.addr, status);
    }
    if (live == 0) return;
    const std::int64_t round_deadline = mono_now_ns() + 150 * kMillisecond;
    while (status_reports_.size() < live && mono_now_ns() < round_deadline) {
      pump(20 * kMillisecond);
    }
    if (status_reports_.size() < live) continue;  // round lost; no verdict

    std::uint64_t deliveries = 0;
    std::uint64_t unacked = 0;
    for (const auto& [node, counts] : status_reports_) {
      deliveries += counts.first;
      unacked += counts.second;
    }
    if (unacked != 0 || deliveries != last_deliveries) {
      last_deliveries = deliveries;
      stable_since = world_now();
    } else if (world_now() - stable_since >= options_.quiesce_window) {
      return;
    }
  }
  DPU_LOG(kWarn, "cluster") << "drain cap reached before quiescence";
}

void ClusterSupervisor::Run::harvest() {
  harvest_acked_.clear();
  Json msg = Json::object();
  msg.set("type", "harvest");
  msg.set("seq", ++status_seq_);
  const std::int64_t deadline = mono_now_ns() + 15 * kSecond;
  for (;;) {
    bool all = true;
    for (NodeId i = 0; i < spec_.n; ++i) {
      const Agent& agent = agents_[i];
      if (agent.pid <= 0 || !agent.helloed) continue;
      if (harvest_acked_.count(i) != 0) continue;
      all = false;
      ctrl_.send(agent.addr, msg);
    }
    if (all || mono_now_ns() >= deadline) break;
    pump(200 * kMillisecond);
  }
  // Reap everything; an agent that never acked gets the SIGKILL treatment
  // and shows up as a missing report in the merge.
  for (Agent& agent : agents_) {
    if (agent.pid <= 0) continue;
    reap(agent.pid, 5 * kSecond);
    agent.pid = -1;
  }
}

// ---------------------------------------------------------------------------
// Merge: per-node files -> one ScenarioResult
// ---------------------------------------------------------------------------

void ClusterSupervisor::Run::replay_audit(AbcastAudit& audit) const {
  const std::set<NodeId> late_joiners = [&] {
    std::set<NodeId> s;
    for (const scenario::LateJoin& l : spec_.late_joins) s.insert(l.node);
    return s;
  }();
  for (NodeId i = 0; i < spec_.n; ++i) {
    // A late joiner "recovers" into existence before its only incarnation,
    // mirroring the in-process realization (crash at t~0 + recovery).
    bool first = true;
    if (late_joiners.count(i) != 0) audit.record_recovered(i);
    for (const std::uint32_t inc : agents_[i].incarnations) {
      if (!first) audit.record_recovered(i);
      first = false;
      const fs::path path = run_dir_ / journal_filename(i, inc);
      std::error_code ec;
      if (!fs::exists(path, ec)) continue;  // died before its first write
      for (const JournalRecord& rec : parse_journal(read_file(path))) {
        if (rec.is_send) {
          audit.record_sent(i, rec.payload);
        } else {
          audit.record_delivery(i, rec.payload);
        }
      }
    }
  }
}

ScenarioResult ClusterSupervisor::Run::merge() {
  ScenarioResult result;
  result.scenario = spec_.name;
  result.seed = seed_;
  result.collector = std::make_unique<LatencyCollector>(options_.bucket_width);
  result.total_virtual_time = world_now();

  // A SIGKILLed process never reports: crashed nodes keep zero counters,
  // and a recovered node's counters are its live incarnation's only.
  scenario::RunFacts facts;
  facts.crashed = crashed_now_;
  facts.recovery_time = recovery_time_;
  facts.counts.resize(spec_.n);
  facts.pending_calls.assign(spec_.n, 0);
  for (NodeId i = 0; i < spec_.n; ++i) {
    if (facts.crashed.count(i) != 0) {
      result.final_protocol.emplace_back();
      continue;
    }
    const fs::path path = run_dir_ / ("node-" + std::to_string(i) + ".json");
    std::error_code ec;
    if (!fs::exists(path, ec)) {
      result.generic_report.fail("node " + std::to_string(i) +
                                 ": no result report harvested");
      result.final_protocol.emplace_back();
      continue;
    }
    const Json r = Json::parse(read_file(path));
    auto top = [&r](const char* key) -> std::uint64_t {
      const Json* v = r.find(key);
      return v != nullptr ? static_cast<std::uint64_t>(v->as_int()) : 0;
    };
    facts.counts[i] = scenario::NodeAccum::from_json(r.at("counts"));
    facts.pending_calls[i] = top("pending_calls");
    result.packets_sent += top("packets_sent");
    result.packets_dropped += top("packets_dropped");
    result.socket_tx_syscalls += top("socket_tx_syscalls");
    result.socket_tx_datagrams += top("socket_tx_datagrams");
    result.socket_rx_syscalls += top("socket_rx_syscalls");
    result.socket_rx_datagrams += top("socket_rx_datagrams");
    result.final_protocol.push_back(r.at("final_protocol").as_string());

    const std::vector<Json>& pairs = r.at("latency_pairs").items();
    for (std::size_t p = 0; p + 1 < pairs.size(); p += 2) {
      result.collector->add(pairs[p].as_int(), pairs[p + 1].as_int());
    }

    for (const Json& ev : r.at("trace").items()) {
      facts.trace.push_back(
          {ev.at("t").as_int(), static_cast<NodeId>(ev.at("node").as_int()),
           static_cast<TraceKind>(ev.at("kind").as_int()),
           ev.at("service").as_string(), ev.at("module").as_string(),
           ev.at("detail").as_string()});
    }

    // Slim per-node record for the campaign document: identity, counters,
    // transport stats — not the bulk latency/trace arrays.
    Json slim = Json::object();
    slim.set("node", i);
    slim.set("incarnation", r.at("incarnation").as_int());
    slim.set("counts", r.at("counts"));
    slim.set("packets_sent", top("packets_sent"));
    slim.set("packets_dropped", top("packets_dropped"));
    slim.set("socket_tx_syscalls", top("socket_tx_syscalls"));
    slim.set("socket_tx_datagrams", top("socket_tx_datagrams"));
    slim.set("socket_rx_syscalls", top("socket_rx_syscalls"));
    slim.set("socket_rx_datagrams", top("socket_rx_datagrams"));
    slim.set("final_protocol", r.at("final_protocol").as_string());
    result.node_reports.push_back(std::move(slim));
  }

  // The supervisor is the only witness of crash/recovery times: agents die
  // by SIGKILL and are born ignorant, so their traces carry no markers.
  facts.trace.insert(facts.trace.end(), fault_markers_.begin(),
                     fault_markers_.end());
  std::stable_sort(facts.trace.begin(), facts.trace.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.time < b.time;
                   });

  AbcastAudit audit;
  replay_audit(audit);
  facts.audit = &audit;
  scenario::distill_result(spec_, std::move(facts), result);
  return result;
}

// ---------------------------------------------------------------------------
// The whole run
// ---------------------------------------------------------------------------

ScenarioResult ClusterSupervisor::Run::execute() {
  setup_run_dir();
  agents_.resize(spec_.n);
  recovery_time_.assign(spec_.n, -1);

  std::set<NodeId> late;
  for (const scenario::LateJoin& l : spec_.late_joins) {
    late.insert(l.node);
    crashed_now_.insert(l.node);  // counted as down until they join
  }

  epoch_ns_ = mono_now_ns() + options_.boot_grace;
  std::vector<NodeId> initial;
  for (NodeId i = 0; i < spec_.n; ++i) {
    if (late.count(i) != 0) continue;
    spawn(i, 0);
    initial.push_back(i);
  }
  await_hellos(initial, 15 * kSecond);

  // Install the baseline adversity (agents boot fault-free).
  broadcast_fault_state(0);

  run_timeline();
  drain();
  harvest();
  ScenarioResult result = merge();

  if (!options_.keep_artifacts) {
    std::error_code ec;
    fs::remove_all(run_dir_, ec);
  }
  return result;
}

// ---------------------------------------------------------------------------

ClusterSupervisor::ClusterSupervisor(SupervisorOptions options)
    : options_(std::move(options)) {}

ClusterSupervisor::~ClusterSupervisor() = default;

ScenarioResult ClusterSupervisor::run(const ScenarioSpec& spec,
                                      std::uint64_t seed) {
  scenario::admit_scenario(spec);
  Run run(options_, spec, seed);
  return run.execute();
}

}  // namespace dpu::cluster

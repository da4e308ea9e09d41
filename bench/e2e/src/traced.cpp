#include "traced.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>

#include "abcast/audit.hpp"
#include "consensus/consensus.hpp"
#include "rt/rt_world.hpp"
#include "scenario/compose.hpp"
#include "sim/sim_world.hpp"

namespace dpu::bench {

using scenario::Json;
using scenario::ScenarioSpec;
using Clock = std::chrono::steady_clock;

namespace {

enum class Layer : std::uint8_t { kRp2p, kRbcast, kConsensus, kAbcast };
constexpr const char* kLayerNames[] = {"rp2p", "rbcast", "consensus",
                                       "abcast"};
enum class Step : std::uint8_t { kSend, kDeliver };

struct ProbeEvent {
  Layer layer;
  Step step;
  std::uint64_t probe;
  TimePoint time;
};

/// Abcast probes share the facade with the workload: a magic prefix tells
/// them apart (the workload's ProbePayload carries a different one).
constexpr std::uint32_t kBenchMagic = 0x42656e63;  // "Benc"
constexpr std::uint64_t kBootProbe = ~0ULL;
constexpr ChannelId kRp2pChannel = fnv1a64("bench/rp2p");
constexpr ChannelId kRbcastChannel = fnv1a64("bench/rbcast");
constexpr StreamId kStreamBase = fnv1a64("bench/consensus");
/// Probe tick spacing inside an active block, and the block length.
constexpr Duration kProbeInterval = 4 * kMillisecond;
constexpr Duration kProbeBlock = 100 * kMillisecond;
/// The update probe fires this long after the load window closes.
constexpr Duration kUpdateProbeDelay = 200 * kMillisecond;

Payload probe_payload(std::uint64_t probe) {
  BufWriter w(12);
  w.put_u32(kBenchMagic);
  w.put_u64(probe);
  return w.take_payload();
}

std::optional<std::uint64_t> parse_probe(std::span<const std::uint8_t> data) {
  if (data.size() != 12) return std::nullopt;
  BufReader r(data);
  if (r.get_u32() != kBenchMagic) return std::nullopt;
  return r.get_u64();
}

bool probes_active(TimePoint t, TimePoint load_end) {
  return t >= kLoadStart && t < load_end &&
         ((t - kLoadStart) / kProbeBlock) % 2 == 0;
}

/// What one node records.  Written only from that node's executor (its
/// thread on rt) and read after the world has stopped.
struct NodeLog {
  std::vector<ProbeEvent> events;
  std::vector<std::pair<std::string, TimePoint>> requests;  // service, time
  std::vector<std::pair<std::string, TimePoint>> done;      // service, time
  Samples gen_lag_us;
  Samples active_latency_us;  ///< workload messages sent inside probe blocks
  Samples quiet_latency_us;   ///< ... and outside them
  Duration max_gap = 0;
  TimePoint last_delivery = -1;

  void record(Layer layer, Step step, std::uint64_t probe, TimePoint t) {
    events.push_back(ProbeEvent{layer, step, probe, t});
  }
};

/// Per-incarnation tap on the abcast facade and the update service.
class NodeTap final : public AbcastListener, public UpdateListener {
 public:
  NodeTap(NodeLog& log, HostEnv& host, AbcastAudit* audit, NodeId node,
          TimePoint load_end)
      : log_(&log), host_(&host), audit_(audit), node_(node),
        load_end_(load_end) {}

  void adeliver(NodeId /*sender*/, const Bytes& payload) override {
    const TimePoint now = host_->now();
    if (const auto probe = parse_probe(payload)) {
      log_->record(Layer::kAbcast, Step::kDeliver, *probe, now);
      return;
    }
    if (!ProbePayload::is_probe(payload)) return;
    if (audit_ != nullptr) audit_->record_delivery(node_, payload);
    const ProbePayload p = ProbePayload::parse(payload);
    // Same latency rule as the runner's LatencyProbe.
    const double latency = to_micros(host_->busy_now() - p.send_time);
    (probes_active(p.send_time, load_end_) ? log_->active_latency_us
                                           : log_->quiet_latency_us)
        .add(latency);
    if (now >= kLoadStart && now < load_end_) {
      if (log_->last_delivery >= 0) {
        log_->max_gap = std::max(log_->max_gap, now - log_->last_delivery);
      }
      log_->last_delivery = now;
    }
  }

  void on_update_complete(const UpdateEvent& event) override {
    log_->done.emplace_back(event.service, host_->now());
  }

 private:
  NodeLog* log_;
  HostEnv* host_;
  AbcastAudit* audit_;
  NodeId node_;
  TimePoint load_end_;
};

/// Everything one traced engine run leaves behind.
struct TraceData {
  std::vector<NodeLog> logs;
  std::vector<TraceEvent> trace;
  std::vector<std::pair<TimePoint, TimePoint>> down;  ///< crash..recovery
  std::size_t crashed_at_end = 0;
  scenario::NodeAccum totals;  ///< summed over incarnations
  std::uint64_t datagrams = 0;  ///< rp2p DATA datagrams, all incarnations
  std::uint64_t packets = 0;
  std::uint64_t recoveries = 0;
  double modules_per_stack = 0.0;
  std::uint64_t violations = 0;
  std::vector<std::string> problems;
  double idle_cpu_s = 0.0;  ///< rt: process CPU over the idle window
};

/// Idle window of an rt run: after the boot, before the load starts.
constexpr TimePoint kIdleFrom = 300 * kMillisecond;
constexpr TimePoint kIdleUntil = 950 * kMillisecond;

/// Folds one incarnation's counters into the run totals.
void harvest(TraceData& d, const scenario::NodeModules& m) {
  scenario::harvest_modules(d.totals, m);
  if (m.rp2p != nullptr) d.datagrams += m.rp2p->data_datagrams_sent();
}

/// Driver state the stacks call into: the logs, taps, latency probes,
/// collectors and the audit.  Callers declare it before the world, so the
/// world (on rt, its threads) is gone first on every exit path.
struct Rig {
  TraceData d;
  AbcastAudit audit;
  std::vector<std::unique_ptr<LatencyCollector>> collectors;
  std::vector<std::unique_ptr<NodeTap>> taps;
  std::vector<std::unique_ptr<LatencyProbe>> latency_probes;
};

/// Composes, schedules and runs one traced world into `rig.d` — the
/// runner's lifecycle (runner.cpp run_on_world) plus probes, taps and the
/// update probe.
void drive(WorldControl& world, TraceRecorder& recorder, Rig& rig,
           const Workload& w, const EngineRun& run,
           const StandardStackOptions& options, bool rt) {
  const ScenarioSpec& spec = run.spec;
  const std::size_t n = spec.n;
  const TimePoint load_end = w.load_end();
  TraceData& d = rig.d;
  d.logs.resize(n);
  AbcastAudit& audit = rig.audit;
  AbcastAudit* audit_ptr = run.audit ? &audit : nullptr;
  for (std::size_t i = 0; i < n; ++i) {
    rig.collectors.push_back(std::make_unique<LatencyCollector>());
  }
  std::vector<scenario::NodeModules> nodes(n);
  const scenario::CompositionPlan plan =
      scenario::CompositionPlan::from_spec(spec);

  auto compose = [&](NodeId i, TimePoint since) {
    Stack& stack = world.stack(i);
    HostEnv* host = &stack.host();
    NodeLog* log = &d.logs[i];
    log->last_delivery = -1;
    rig.taps.push_back(
        std::make_unique<NodeTap>(*log, *host, audit_ptr, i, load_end));
    NodeTap* tap = rig.taps.back().get();
    scenario::ComposeHooks hooks;
    hooks.collector = rig.collectors[i].get();
    hooks.extra_listener = tap;
    hooks.on_send = [log, host, audit_ptr, i](const Bytes& payload) {
      const ProbePayload p = ProbePayload::parse(payload);
      log->gen_lag_us.add(to_micros(host->now() - p.send_time));
      if (audit_ptr != nullptr) audit_ptr->record_sent(i, payload);
    };
    scenario::ComposedStack composed =
        scenario::compose_stack(stack, spec, plan, options, since, hooks);
    nodes[i] = composed.modules;
    rig.latency_probes.push_back(std::move(composed.probe));
    if (since == 0) {
      d.modules_per_stack +=
          static_cast<double>(stack.module_count()) / static_cast<double>(n);
    }
    stack.listen<UpdateListener>(kUpdateService, tap, nullptr);
    stack.require<Rp2pApi>(kRp2pService).call([log, host](Rp2pApi& api) {
      api.rp2p_bind_channel(kRp2pChannel, [log, host](NodeId,
                                                      const Payload& data) {
        if (const auto id = parse_probe(data.span())) {
          log->record(Layer::kRp2p, Step::kDeliver, *id, host->now());
        }
      });
    });
    stack.require<RbcastApi>(kRbcastService).call([log, host](RbcastApi& api) {
      api.rbcast_bind_channel(kRbcastChannel, [log, host](NodeId,
                                                          const Payload& data) {
        if (const auto id = parse_probe(data.span())) {
          log->record(Layer::kRbcast, Step::kDeliver, *id, host->now());
        }
      });
    });
  };
  for (NodeId i = 0; i < n; ++i) compose(i, 0);

  // ---- Faults and updates, as the runner schedules them ---------------------
  for (const scenario::CrashFault& c : spec.crashes) {
    world.at(c.at, [&world, c]() { world.crash(c.node); });
  }
  for (const scenario::RecoverFault& rec : spec.recoveries) {
    world.at(rec.at, [&, rec]() {
      if (!world.crashed(rec.node)) return;
      world.quiesce_node(rec.node);
      harvest(d, nodes[rec.node]);
      audit.record_recovered(rec.node);
      world.recover(rec.node);
      world.run_on_node(rec.node, [&, rec]() { compose(rec.node, rec.at); });
      ++d.recoveries;
    });
  }
  for (const scenario::CrashFault& c : spec.crashes) {
    TimePoint back = kSecond * 3600;
    for (const scenario::RecoverFault& rec : spec.recoveries) {
      if (rec.node == c.node && rec.at > c.at) back = std::min(back, rec.at);
    }
    d.down.emplace_back(c.at, back);
  }
  auto request = [&world, &d](NodeId node, std::string service,
                              std::string protocol) {
    if (world.crashed(node)) return;
    Stack& stack = world.stack(node);
    d.logs[node].requests.emplace_back(service, stack.host().now());
    stack.require<UpdateApi>(kUpdateService)
        .call([service, protocol](UpdateApi& api) {
          api.request_update(service, protocol);
        });
  };
  for (const scenario::UpdateAction& u : spec.updates) {
    world.at_node(u.at, u.initiator, [request, u]() {
      request(u.initiator, u.target_service(), u.protocol);
    });
  }
  // The update probe: one more switch after the load, so every workload
  // measures the UpdateApi path (to the protocol already running).
  const std::string final_protocol =
      spec.updates.empty() ? spec.initial_protocol
                           : spec.updates.back().protocol;
  const TimePoint update_probe_at = load_end + kUpdateProbeDelay;
  world.at_node(update_probe_at, 0, [request, final_protocol]() {
    request(0, kAbcastService, final_protocol);
  });

  // ---- Probes ---------------------------------------------------------------
  auto fire = [&world, &d, n](NodeId i, NodeId origin, std::uint64_t probe) {
    if (world.crashed(i)) return;
    Stack& stack = world.stack(i);
    HostEnv* host = &stack.host();
    NodeLog* log = &d.logs[i];
    if (i == origin) {
      const Payload payload = probe_payload(probe);
      if (probe != kBootProbe) {
        log->record(Layer::kRp2p, Step::kSend, probe, host->now());
        stack.require<Rp2pApi>(kRp2pService)
            .call([payload, i, n](Rp2pApi& api) {
              for (NodeId dst = 0; dst < n; ++dst) {
                if (dst != i) api.rp2p_send(dst, kRp2pChannel, payload);
              }
            });
        log->record(Layer::kRbcast, Step::kSend, probe, host->now());
        stack.require<RbcastApi>(kRbcastService)
            .call([payload](RbcastApi& api) {
              api.rbcast(kRbcastChannel, payload);
            });
      }
      log->record(Layer::kAbcast, Step::kSend, probe, host->now());
      stack.require<AbcastApi>(kAbcastService).call([payload](AbcastApi& api) {
        api.abcast(payload);
      });
    }
    if (probe == kBootProbe) return;
    const StreamId stream = kStreamBase + probe;
    stack.require<ConsensusApi>(kConsensusService)
        .call([log, host, probe, stream](ConsensusApi& api) {
          api.consensus_bind_stream(
              stream, [log, host, probe](InstanceId, const Bytes&) {
                log->record(Layer::kConsensus, Step::kDeliver, probe,
                            host->now());
              });
          log->record(Layer::kConsensus, Step::kSend, probe, host->now());
          api.propose(stream, 1, probe_payload(probe).to_bytes());
        });
  };
  world.at_node(0, 0, [fire]() { fire(0, 0, kBootProbe); });
  std::uint64_t probe = 0;
  for (TimePoint t = kLoadStart; t < load_end; t += kProbeInterval, ++probe) {
    if (!probes_active(t, load_end)) continue;
    const NodeId origin = static_cast<NodeId>(probe % n);
    for (NodeId i = 0; i < n; ++i) {
      world.at_node(t, i,
                    [fire, i, origin, probe]() { fire(i, origin, probe); });
    }
  }

  double idle_from = 0.0;
  if (rt) {
    world.at(kIdleFrom, [&idle_from]() { idle_from = process_cpu_seconds(); });
    world.at(kIdleUntil, [&idle_from, &d]() {
      d.idle_cpu_s = process_cpu_seconds() - idle_from;
    });
  }

  // ---- Run ------------------------------------------------------------------
  // rt quiescence: deliveries stable and no unacked traffic for longer than
  // the consensus round timeout (the runner's rule).
  std::uint64_t last_deliveries = ~0ULL;
  TimePoint stable_since = -1;
  auto quiesced = [&]() -> bool {
    std::uint64_t deliveries = 0;
    std::size_t unacked = 0;
    const std::set<NodeId> crashed_now = world.crashed_set();
    for (NodeId i = 0; i < n; ++i) {
      if (crashed_now.count(i) != 0) continue;
      world.run_on_node(i, [&]() {
        deliveries += nodes[i].probe->deliveries();
        unacked += nodes[i].rp2p->unacked_excluding(crashed_now);
      });
    }
    const TimePoint now = world.now();
    if (unacked != 0 || deliveries != last_deliveries) {
      last_deliveries = deliveries;
      stable_since = now;
      return false;
    }
    return now - stable_since >= 1500 * kMillisecond;
  };
  const TimePoint active_until = update_probe_at + kUpdateProbeDelay;
  const TimePoint deadline =
      active_until + (rt ? std::min(spec.drain, 10 * kSecond) : spec.drain);
  if (!world.run(active_until, deadline, 500'000'000ULL,
                 rt ? std::function<bool()>(quiesced)
                    : std::function<bool()>())) {
    d.problems.push_back("event budget exhausted before quiescence");
  }

  // ---- Harvest --------------------------------------------------------------
  const std::set<NodeId> crashed = world.crashed_set();
  d.crashed_at_end = crashed.size();
  for (NodeId i = 0; i < n; ++i) {
    harvest(d, nodes[i]);
  }
  d.packets = world.packets_sent();
  d.trace = recorder.events();
  if (run.audit) {
    d.violations += audit.check(n, crashed).violations.size();
  }
  for (NodeId i = 0; i < n; ++i) {
    if (crashed.count(i) != 0) continue;
    if (world.stack(i).pending_call_count() != 0) {
      d.problems.push_back("stack " + std::to_string(i) +
                           ": service calls still pending at end of run");
    }
  }
}

// ---- Per-layer metrics from one TraceData -----------------------------------

struct ProbeTimes {
  std::map<NodeId, TimePoint> send;     ///< per node (consensus: proposes)
  std::map<NodeId, TimePoint> deliver;  ///< first delivery per node
};

using ProbeIndex = std::map<std::uint64_t, ProbeTimes>;

std::array<ProbeIndex, 4> index_probes(const TraceData& d) {
  std::array<ProbeIndex, 4> idx;
  for (NodeId i = 0; i < d.logs.size(); ++i) {
    for (const ProbeEvent& e : d.logs[i].events) {
      ProbeTimes& pt = idx[static_cast<std::size_t>(e.layer)][e.probe];
      auto& slot = e.step == Step::kSend ? pt.send : pt.deliver;
      slot.emplace(i, e.time);  // keeps the first (replays come later)
    }
  }
  return idx;
}

bool during_outage(const TraceData& d, TimePoint t) {
  for (const auto& [from, until] : d.down) {
    if (t >= from && t <= until) return true;
  }
  return false;
}

/// first send -> last delivery, for probes every live stack delivered.
Samples all_delivered_us(const ProbeIndex& idx, const TraceData& d) {
  Samples out;
  const std::size_t live = d.logs.size() - d.crashed_at_end;
  for (const auto& [probe, pt] : idx) {
    if (probe == kBootProbe || pt.send.empty()) continue;
    TimePoint first = pt.send.begin()->second;
    for (const auto& [node, t] : pt.send) first = std::min(first, t);
    if (during_outage(d, first) || pt.deliver.size() < live) continue;
    TimePoint last = first;
    for (const auto& [node, t] : pt.deliver) last = std::max(last, t);
    out.add(to_micros(last - first));
  }
  return out;
}

/// send -> each delivery (point-to-point probes).
Samples each_delivered_us(const ProbeIndex& idx, const TraceData& d) {
  Samples out;
  for (const auto& [probe, pt] : idx) {
    if (pt.send.empty()) continue;
    const TimePoint sent = pt.send.begin()->second;
    if (during_outage(d, sent)) continue;
    for (const auto& [node, t] : pt.deliver) out.add(to_micros(t - sent));
  }
  return out;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

void add_tail(std::vector<Metric>& out, const std::string& prefix,
              const char* stem, Samples s, bool enforce) {
  out.push_back(Metric{prefix + stem + "_p50_us", "us",
                       checked_percentile(s, 50.0), s.count()});
  out.push_back(Metric{prefix + stem + "_p99_us", "us",
                       checked_percentile(s, 99.0, enforce), s.count()});
}

std::vector<Metric> layer_metrics(const TraceData& d, const std::string& prefix,
                                  bool enforce) {
  std::vector<Metric> out;
  const auto idx = index_probes(d);
  const std::uint64_t sent = d.totals.sent;

  add_tail(out, prefix, "rp2p.send_deliver",
           each_delivered_us(idx[static_cast<std::size_t>(Layer::kRp2p)], d),
           enforce);
  out.push_back({prefix + "rp2p.datagrams_per_msg", "count",
                 ratio(d.datagrams, sent), sent});
  out.push_back({prefix + "rp2p.acks_per_datagram", "count",
                 ratio(d.totals.acks_sent, d.datagrams), d.datagrams});
  out.push_back({prefix + "rp2p.retransmits_per_msg", "count",
                 ratio(d.totals.retransmissions, sent), sent});
  out.push_back({prefix + "net.packets_per_msg", "count",
                 ratio(d.packets, sent), sent});
  add_tail(out, prefix, "rbcast.bcast_all",
           all_delivered_us(idx[static_cast<std::size_t>(Layer::kRbcast)], d),
           enforce);
  add_tail(out, prefix, "consensus.propose_decide",
           all_delivered_us(idx[static_cast<std::size_t>(Layer::kConsensus)],
                            d),
           enforce);
  const ProbeIndex& abcast = idx[static_cast<std::size_t>(Layer::kAbcast)];
  add_tail(out, prefix, "abcast.all_delivered", all_delivered_us(abcast, d),
           enforce);

  Samples gen_lag;
  Duration max_gap = 0;
  for (const NodeLog& log : d.logs) {
    gen_lag.merge(log.gen_lag_us);
    max_gap = std::max(max_gap, log.max_gap);
  }
  out.push_back({prefix + "abcast.gen_lag_p99_us", "us",
                 checked_percentile(gen_lag, 99.0, enforce), gen_lag.count()});
  out.push_back({prefix + "abcast.max_delivery_gap_ms", "ms",
                 to_millis(max_gap), 1});

  // Repl: UpdateApi request -> each stack's UpdateListener completion,
  // attributed to the latest not-younger request of the same service.
  std::vector<std::pair<std::string, TimePoint>> requests;
  for (const NodeLog& log : d.logs) {
    requests.insert(requests.end(), log.requests.begin(), log.requests.end());
  }
  std::sort(requests.begin(), requests.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  Samples done_ms;
  for (const NodeLog& log : d.logs) {
    for (const auto& [service, t] : log.done) {
      for (auto it = requests.rbegin(); it != requests.rend(); ++it) {
        if (it->first == service && it->second <= t) {
          done_ms.add(to_millis(t - it->second));
          break;
        }
      }
    }
  }
  out.push_back({prefix + "repl.request_done_p50_ms", "ms",
                 done_ms.count() != 0 ? done_ms.percentile(50.0) : 0.0,
                 done_ms.count()});
  const auto outcomes = scenario::extract_update_outcomes(d.trace);
  const std::uint64_t switches = std::max<std::size_t>(outcomes.size(), 1);
  // Repl-ABcast never blocks a call during a switch; calls queue only
  // while a recovered stack rebinds its services.
  out.push_back({prefix + "repl.blocked_calls", "count",
                 static_cast<double>(blocked_call_durations(d.trace).size()),
                 1});
  out.push_back({prefix + "repl.reissued_per_switch", "count",
                 ratio(d.totals.reissued, switches), switches});
  std::uint64_t created = 0;
  for (const TraceEvent& e : d.trace) {
    if (e.kind != TraceKind::kModuleCreated) continue;
    for (const auto& o : outcomes) {
      if (e.time >= o.requested && e.time <= o.converged) {
        ++created;
        break;
      }
    }
  }
  out.push_back({prefix + "repl.module_creations_per_switch", "count",
                 ratio(created, switches), switches});
  out.push_back({prefix + "repl.state_replayed_per_recovery", "count",
                 ratio(d.totals.state_replayed, d.recoveries),
                 d.recoveries});

  TimePoint booted = 0;
  const auto boot = abcast.find(kBootProbe);
  if (boot == abcast.end() || boot->second.deliver.size() < d.logs.size()) {
    throw std::runtime_error("boot probe not delivered at every stack");
  }
  for (const auto& [node, t] : boot->second.deliver) {
    booted = std::max(booted, t);
  }
  out.push_back({prefix + "compose.boot_ms", "ms", to_millis(booted), 1});
  out.push_back({prefix + "compose.modules_per_stack", "count",
                 d.modules_per_stack, d.logs.size()});
  return out;
}

// ---- Chrome trace-event JSON ------------------------------------------------

void append_chrome(Json& events, const TraceData& d, int pid,
                   const char* engine) {
  Json meta = Json::object();
  meta.set("name", "process_name");
  meta.set("ph", "M");
  meta.set("pid", pid);
  Json args = Json::object();
  args.set("name", engine);
  meta.set("args", std::move(args));
  events.push(std::move(meta));

  const auto idx = index_probes(d);
  for (std::size_t layer = 0; layer < idx.size(); ++layer) {
    for (const auto& [probe, pt] : idx[layer]) {
      for (const auto& [node, end] : pt.deliver) {
        // A span runs from the probe's send (consensus: this node's own
        // propose) to its delivery on `node`.
        const auto own = pt.send.find(node);
        const bool consensus =
            layer == static_cast<std::size_t>(Layer::kConsensus);
        if (consensus && own == pt.send.end()) continue;
        if (!consensus && pt.send.empty()) continue;
        const TimePoint start =
            consensus ? own->second : pt.send.begin()->second;
        Json e = Json::object();
        e.set("name", kLayerNames[layer]);
        e.set("cat", kLayerNames[layer]);
        e.set("ph", "X");
        e.set("ts", to_micros(start));
        e.set("dur", to_micros(end - start));
        e.set("pid", pid);
        e.set("tid", node);
        Json a = Json::object();
        a.set("probe", probe == kBootProbe ? Json("boot") : Json(probe));
        e.set("args", std::move(a));
        events.push(std::move(e));
      }
    }
  }
  for (const TraceEvent& t : d.trace) {
    Json e = Json::object();
    e.set("name", t.kind == TraceKind::kCustom
                      ? t.detail
                      : std::string(trace_kind_name(t.kind)));
    e.set("cat", trace_kind_name(t.kind));
    e.set("ph", "i");
    e.set("s", "t");
    e.set("ts", to_micros(t.time));
    e.set("pid", pid);
    e.set("tid", t.node);
    Json a = Json::object();
    a.set("service", t.service);
    a.set("module", t.module);
    a.set("detail", t.detail);
    e.set("args", std::move(a));
    events.push(std::move(e));
  }
}

// ---- Engines ----------------------------------------------------------------

struct EngineResult {
  TraceData data;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t events = 0;     ///< sim only
  std::uint64_t deferrals = 0;  ///< sim only
};

EngineResult traced_sim(const Workload& w, std::uint64_t seed) {
  const ScenarioSpec& spec = w.sim.spec;
  const StandardStackOptions options = scenario::stack_options_for_spec(spec);
  const ProtocolRegistry library = make_standard_library(options);
  SimConfig config;  // as scenario::run_scenario configures it
  config.num_stacks = spec.n;
  config.seed = seed;
  config.shards = spec.sim_shards;
  config.net.drop_probability = spec.base_drop;
  config.net.duplicate_probability = spec.base_duplicate;
  config.stack_cost.service_hop_cost = spec.hop_cost;
  config.stack_cost.module_create_cost = spec.module_create_cost;
  TraceRecorder recorder;
  Rig rig;
  SimWorld world(config, &library, &recorder);
  EngineResult r;
  const Clock::time_point t0 = Clock::now();
  drive(world, recorder, rig, w, w.sim, options, /*rt=*/false);
  r.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  r.data = std::move(rig.d);
  r.events = world.processed_events();
  r.deferrals = world.deferrals();
  return r;
}

EngineResult traced_rt(const Workload& w, std::uint64_t seed) {
  const ScenarioSpec& spec = w.rt.spec;
  const StandardStackOptions options = scenario::stack_options_for_spec(spec);
  const ProtocolRegistry library = make_standard_library(options);
  RtConfig config;  // as scenario::run_scenario configures it
  config.num_stacks = spec.n;
  config.seed = seed;
  config.transport =
      spec.rt_sockets ? RtTransport::kUdpSockets : RtTransport::kInproc;
  config.drop_probability = spec.base_drop;
  config.duplicate_probability = spec.base_duplicate;
  TraceRecorder recorder;
  Rig rig;
  RtWorld world(config, &library, &recorder);
  EngineResult r;
  const double cpu0 = process_cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  drive(world, recorder, rig, w, w.rt, options, /*rt=*/true);
  r.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  r.cpu_s = process_cpu_seconds() - cpu0;
  r.data = std::move(rig.d);
  return r;
}

void count_failures(RunReport& report, const TraceData& d) {
  report.attempted += d.totals.sent;
  report.failed += d.violations;
  for (const std::string& p : d.problems) report.problems.push_back(p);
}

}  // namespace

RunReport measure_per_layer(const Workload& w, std::uint64_t seed,
                            const std::string& chrome_trace_path) {
  RunReport report;
  const EngineResult sim = traced_sim(w, seed);
  const EngineResult rt = traced_rt(w, seed);
  count_failures(report, sim.data);
  count_failures(report, rt.data);

  for (Metric& m : layer_metrics(sim.data, "sim.", !w.smoke)) {
    report.metrics.push_back(std::move(m));
  }
  for (Metric& m : layer_metrics(rt.data, "rt.", !w.smoke)) {
    report.metrics.push_back(std::move(m));
  }

  const auto ordered = [](const TraceData& d) {
    return static_cast<double>(d.totals.deliveries) /
           static_cast<double>(d.logs.size());
  };
  report.metrics.push_back({"sim.wall_msgs_s", "1/s",
                            ordered(sim.data) / sim.wall_s, 1});
  report.metrics.push_back(
      {"rt.cpu_us_per_msg", "us", rt.cpu_s * 1e6 / ordered(rt.data),
       static_cast<std::uint64_t>(ordered(rt.data))});

  // Fig. 6 "without replacement layer": the workload's base load (no
  // faults, updates or ramp), once behind the Repl-ABcast facade and once
  // with abcast bound directly.
  ScenarioSpec with_repl = w.sim.spec;
  with_repl.workload.phases.clear();
  with_repl.crashes.clear();
  with_repl.recoveries.clear();
  with_repl.updates.clear();
  with_repl.base_drop = 0.0;
  with_repl.base_duplicate = 0.0;
  ScenarioSpec without = with_repl;
  without.mechanism = scenario::Mechanism::kNone;
  scenario::RunOptions options;
  options.with_audit = w.sim.audit;
  scenario::ScenarioResult a = scenario::run_scenario(with_repl, seed, options);
  scenario::ScenarioResult b = scenario::run_scenario(without, seed, options);
  report.attempted += a.messages_sent + b.messages_sent;
  report.failed += violation_count(a) + violation_count(b);
  const double p50_repl = checked_percentile(a.collector->all(), 50.0);
  const double p50_none = checked_percentile(b.collector->all(), 50.0);
  report.metrics.push_back({"sim.repl.overhead_pct", "%",
                            (p50_repl / p50_none - 1.0) * 100.0,
                            a.collector->all().count()});

  const std::uint64_t sent = sim.data.totals.sent;
  report.metrics.push_back({"sim.engine.events_per_msg", "count",
                            ratio(sim.events, sent), sent});
  report.metrics.push_back({"sim.engine.events_per_wall_s", "1/s",
                            static_cast<double>(sim.events) / sim.wall_s, 1});
  report.metrics.push_back({"sim.engine.cpu_deferrals_per_msg", "count",
                            ratio(sim.deferrals, sent), sent});
  report.metrics.push_back(
      {"rt.cpu_cores", "cores", rt.cpu_s / rt.wall_s, 1});
  report.metrics.push_back(
      {"rt.idle_cpu_cores", "cores",
       rt.data.idle_cpu_s / to_seconds(kIdleUntil - kIdleFrom), 1});

  Samples active;
  Samples quiet;
  for (const NodeLog& log : rt.data.logs) {
    active.merge(log.active_latency_us);
    quiet.merge(log.quiet_latency_us);
  }
  report.metrics.push_back(
      {"trace.overhead_pct", "%",
       (checked_percentile(active, 50.0) / checked_percentile(quiet, 50.0) -
        1.0) *
           100.0,
       active.count()});
  for (const auto& [prefix, data] :
       {std::pair<std::string, const TraceData*>{"sim.", &sim.data},
        {"rt.", &rt.data}}) {
    const std::vector<Duration> blocked = blocked_call_durations(data->trace);
    Duration total = 0;
    for (Duration b : blocked) total += b;
    report.detail.push_back({prefix + "repl.blocked_call_ms", "ms",
                             to_millis(total), blocked.size()});
  }
  report.detail.push_back({"sim.traced_wall_s", "s", sim.wall_s, 1});
  report.detail.push_back({"rt.traced_wall_s", "s", rt.wall_s, 1});

  if (!chrome_trace_path.empty()) {
    Json events = Json::array();
    append_chrome(events, sim.data, 1, "sim");
    append_chrome(events, rt.data, 2, "rt");
    Json doc = Json::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", "ms");
    std::ofstream out(chrome_trace_path);
    out << doc.dump() << '\n';
    if (!out) {
      throw std::runtime_error("cannot write trace " + chrome_trace_path);
    }
  }
  return report;
}

}  // namespace dpu::bench

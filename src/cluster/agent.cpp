#include "cluster/agent.hpp"

#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "app/stack_builder.hpp"
#include "cluster/control.hpp"
#include "cluster/journal.hpp"
#include "cluster/slice.hpp"
#include "rt/rt_world.hpp"
#include "scenario/compose.hpp"
#include "util/log.hpp"

namespace dpu::cluster {

namespace {

using scenario::ComposeHooks;
using scenario::ComposedStack;
using scenario::CompositionPlan;
using scenario::Json;
using scenario::NodeAccum;
using scenario::ScenarioSpec;

/// Journals probe deliveries and keeps the raw (send_time, latency) pairs
/// for the supervisor-side collector rebuild.  Runs on the stack thread;
/// the mutex covers the harvest read from the control thread.
class JournalListener final : public AbcastListener {
 public:
  JournalListener(JournalWriter& journal, HostEnv& host)
      : journal_(&journal), host_(&host) {}

  void adeliver(NodeId /*sender*/, const Bytes& payload) override {
    // Probe traffic only — same filter as the in-process audit tap: topic
    // frames on the facade were never record_sent.
    if (!ProbePayload::is_probe(payload)) return;
    journal_->record_delivery(payload);
    const ProbePayload p = ProbePayload::parse(payload);
    const std::lock_guard<std::mutex> lock(mutex_);
    pairs_.emplace_back(p.send_time, host_->busy_now() - p.send_time);
  }

  [[nodiscard]] std::vector<std::pair<TimePoint, Duration>> pairs() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return pairs_;
  }

 private:
  JournalWriter* journal_;
  HostEnv* host_;
  mutable std::mutex mutex_;
  std::vector<std::pair<TimePoint, Duration>> pairs_;
};

/// Applies one full fault-state message.  The message always carries the
/// *entire* current state (base loss, active partition masks, link
/// overrides), so applying a duplicate or stale resend is harmless.
void apply_fault_state(RtWorld& world, const Json& msg, std::size_t n,
                       std::set<std::pair<NodeId, NodeId>>& applied_links) {
  const Json* drop = msg.find("drop");
  const Json* dup = msg.find("duplicate");
  world.set_loss(drop != nullptr ? drop->as_double() : 0.0,
                 dup != nullptr ? dup->as_double() : 0.0);

  // Partition masks: a packet passes when no active mask separates the
  // endpoints — the same shared-active-mask filter the in-process runner
  // installs, rebuilt from the wire.
  std::vector<std::vector<bool>> masks;
  if (const Json* parts = msg.find("isolated")) {
    for (const Json& part : parts->items()) {
      std::vector<bool> mask(n, false);
      for (const Json& id : part.items()) {
        const auto node = static_cast<std::size_t>(id.as_int());
        if (node < n) mask[node] = true;
      }
      masks.push_back(std::move(mask));
    }
  }
  if (masks.empty()) {
    world.set_link_filter(nullptr);
  } else {
    world.set_link_filter([masks](NodeId src, NodeId dst) {
      for (const std::vector<bool>& side : masks) {
        if (side[src] != side[dst]) return false;
      }
      return true;
    });
  }

  std::set<std::pair<NodeId, NodeId>> now_active;
  if (const Json* links = msg.find("link_overrides")) {
    for (const Json& link : links->items()) {
      const auto src = static_cast<NodeId>(link.at("src").as_int());
      const auto dst = static_cast<NodeId>(link.at("dst").as_int());
      LinkFault fault;
      fault.drop = link.at("drop").as_double();
      fault.duplicate = link.at("duplicate").as_double();
      fault.extra_latency = link.at("extra_latency_ns").as_int();
      world.set_link_fault(src, dst, fault);
      now_active.insert({src, dst});
    }
  }
  for (const auto& link : applied_links) {
    if (now_active.count(link) == 0) {
      world.set_link_fault(link.first, link.second, std::nullopt);
    }
  }
  applied_links = std::move(now_active);
}

}  // namespace

int run_agent(const AgentConfig& config) {
  const ScenarioSpec& spec = config.spec;
  const NodeSlice slice = slice_for_node(spec, config.node);

  // ---- World --------------------------------------------------------------
  const StandardStackOptions stack_options =
      scenario::stack_options_for_spec(spec);
  ProtocolRegistry library = make_standard_library(stack_options);
  TraceRecorder trace_recorder;

  RtConfig rt;
  rt.num_stacks = spec.n;
  rt.seed = config.seed;
  rt.local_node = config.node;
  rt.peers = config.hosts.peers(spec.n);
  rt.initial_incarnation = config.incarnation;
  rt.epoch_ns = config.epoch_ns;
  RtWorld world(rt, &library, &trace_recorder);

  // ---- Composition + journal ----------------------------------------------
  JournalWriter journal(config.results_dir + "/" +
                        journal_filename(config.node, config.incarnation));
  Stack& stack = world.stack(config.node);
  JournalListener delivery_journal(journal, stack.host());

  LatencyCollector collector;
  ComposeHooks hooks;
  hooks.collector = &collector;
  hooks.extra_listener = &delivery_journal;
  hooks.on_send = [&journal](const Bytes& payload) {
    journal.record_send(payload);
  };

  // `since` = now on the shared timebase: negative during the boot grace
  // (first spawns compose before the epoch), the respawn time afterwards.
  // compose_stack shifts the workload window by it, so sends land in the
  // spec's absolute window whatever this process's start time was.
  const CompositionPlan plan = CompositionPlan::from_spec(spec);
  ComposedStack composed = scenario::compose_stack(
      stack, spec, plan, stack_options, world.now(), hooks);
  world.start();

  // ---- Control loop -------------------------------------------------------
  ControlSocket ctrl;
  const sockaddr_in supervisor =
      make_address(config.supervisor_host, config.supervisor_port);

  // Register: retry hello until acked (the supervisor learns our control
  // address from the datagram's source).  rp2p retransmissions absorb any
  // data-plane traffic sent at us before everyone is up.
  {
    Json hello = Json::object();
    hello.set("type", "hello");
    hello.set("node", config.node);
    hello.set("incarnation", config.incarnation);
    hello.set("pid", static_cast<std::int64_t>(::getpid()));
    bool acked = false;
    for (int attempt = 0; attempt < 100 && !acked; ++attempt) {
      ctrl.send(supervisor, hello);
      Json msg;
      sockaddr_in from{};
      if (ctrl.receive(msg, from, 200 * kMillisecond)) {
        const Json* type = msg.find("type");
        if (type != nullptr && type->as_string() == "hello_ack") acked = true;
      }
    }
    if (!acked) {
      DPU_LOG(kWarn, "cluster") << "agent n" << config.node
                                << ": no hello ack; giving up";
      return 2;
    }
  }

  std::set<std::pair<NodeId, NodeId>> applied_links;
  std::int64_t last_fault_seq = -1;
  std::size_t next_update = 0;
  TimePoint last_heard = world.now();

  for (;;) {
    // Fire this node's own update actions when their time comes (the
    // initiator's stack lives here; the supervisor never proxies these).
    while (next_update < slice.updates.size() &&
           world.now() >= slice.updates[next_update].at) {
      const scenario::UpdateAction u = slice.updates[next_update++];
      auto* update = composed.modules.update;
      if (update != nullptr) {
        world.post_to(config.node, [update, u]() {
          update->request_update(u.target_service(), u.protocol);
        });
      }
    }

    Json msg;
    sockaddr_in from{};
    if (!ctrl.receive(msg, from, 100 * kMillisecond)) {
      if (world.now() - last_heard > config.supervisor_silence_limit) {
        DPU_LOG(kWarn, "cluster") << "agent n" << config.node
                                  << ": supervisor silent; exiting";
        return 2;
      }
      continue;
    }
    last_heard = world.now();
    const Json* type_field = msg.find("type");
    if (type_field == nullptr) continue;
    const std::string& type = type_field->as_string();
    const Json* seq_field = msg.find("seq");
    const std::int64_t seq = seq_field != nullptr ? seq_field->as_int() : 0;

    if (type == "fault") {
      if (seq > last_fault_seq) {
        apply_fault_state(world, msg, spec.n, applied_links);
        last_fault_seq = seq;
      }
      Json ack = Json::object();
      ack.set("type", "fault_ack");
      ack.set("seq", seq);
      ack.set("node", config.node);
      ctrl.send(supervisor, ack);
    } else if (type == "status") {
      std::set<NodeId> crashed;
      if (const Json* list = msg.find("crashed")) {
        for (const Json& id : list->items()) {
          crashed.insert(static_cast<NodeId>(id.as_int()));
        }
      }
      std::uint64_t deliveries = 0;
      std::uint64_t unacked = 0;
      std::uint64_t pending = 0;
      world.call_on(config.node, [&]() {
        if (composed.modules.probe != nullptr) {
          deliveries = composed.modules.probe->deliveries();
        }
        if (composed.modules.rp2p != nullptr) {
          unacked = composed.modules.rp2p->unacked_excluding(crashed);
        }
        pending = stack.pending_call_count();
      });
      Json report = Json::object();
      report.set("type", "report");
      report.set("seq", seq);
      report.set("node", config.node);
      report.set("deliveries", deliveries);
      report.set("unacked", unacked);
      report.set("pending_calls", pending);
      ctrl.send(supervisor, report);
    } else if (type == "harvest") {
      break;
    }
  }

  // ---- Harvest ------------------------------------------------------------
  world.stop();

  NodeAccum acc;
  scenario::harvest_modules(acc, composed.modules);

  Json report = Json::object();
  report.set("node", config.node);
  report.set("incarnation", config.incarnation);
  report.set("counts", acc.to_json());
  report.set("packets_sent", world.packets_sent());
  report.set("packets_dropped", world.packets_dropped());
  report.set("socket_tx_syscalls", world.socket_tx_syscalls());
  report.set("socket_tx_datagrams", world.socket_tx_datagrams());
  report.set("socket_rx_syscalls", world.socket_rx_syscalls());
  report.set("socket_rx_datagrams", world.socket_rx_datagrams());
  report.set("pending_calls", stack.pending_call_count());
  report.set("final_protocol",
             scenario::final_protocol_of(spec, plan, composed.modules));

  Json pairs = Json::array();
  for (const auto& [send_time, latency] : delivery_journal.pairs()) {
    pairs.push(send_time);
    pairs.push(latency);
  }
  report.set("latency_pairs", std::move(pairs));

  Json trace = Json::array();
  for (const TraceEvent& e : trace_recorder.events()) {
    Json ev = Json::object();
    ev.set("t", e.time);
    ev.set("node", e.node);
    ev.set("kind", static_cast<int>(e.kind));
    ev.set("service", e.service);
    ev.set("module", e.module);
    ev.set("detail", e.detail);
    trace.push(std::move(ev));
  }
  report.set("trace", std::move(trace));

  const std::string path =
      config.results_dir + "/node-" + std::to_string(config.node) + ".json";
  {
    std::ofstream out(path);
    out << report.dump(2) << "\n";
  }

  Json ack = Json::object();
  ack.set("type", "harvest_ack");
  ack.set("node", config.node);
  ctrl.send(supervisor, ack);
  return 0;
}

}  // namespace dpu::cluster

#include "fd/fd.hpp"

#include "util/log.hpp"

namespace dpu {

FdModule* FdModule::create(Stack& stack, const std::string& service,
                           Config config) {
  auto* m = stack.emplace_module<FdModule>(stack, service, config);
  stack.bind<FdApi>(service, m, m);
  return m;
}

void FdModule::register_protocol(ProtocolLibrary& library, Config config) {
  library.register_protocol(ProtocolInfo{
      .protocol = kProtocolName,
      .default_service = kFdService,
      .requires_services = {kUdpService},
      .factory = [config](Stack& stack, const std::string& provide_as,
                          const ModuleParams&) -> Module* {
        return create(stack, provide_as, config);
      }});
}

FdModule::FdModule(Stack& stack, std::string instance_name, Config config)
    : Module(stack, std::move(instance_name)),
      config_(config),
      udp_(stack.require<UdpApi>(kUdpService)),
      // Responses go out on the service this instance provides (== its
      // instance name under the create() convention).
      up_(stack.upcalls<FdListener>(Module::instance_name())),
      tick_timer_(stack.host()) {}

void FdModule::start() {
  peers_.assign(env().world_size(), PeerState{});
  for (auto& p : peers_) {
    p.last_heartbeat = env().now();
    p.timeout = config_.initial_timeout;
  }
  udp_.call([this](UdpApi& udp) {
    udp.udp_bind_port(kFdPort, [this](NodeId src, const Payload& data) {
      on_heartbeat(src, data);
    });
  });
  on_tick();
}

void FdModule::stop() {
  tick_timer_.cancel();
  udp_.call([](UdpApi& udp) { udp.udp_release_port(kFdPort); });
}

bool FdModule::fd_suspects(NodeId node) const {
  if (node >= peers_.size()) return false;
  return peers_[node].suspected;
}

std::vector<NodeId> FdModule::fd_suspected() const {
  std::vector<NodeId> out;
  for (NodeId i = 0; i < peers_.size(); ++i) {
    if (peers_[i].suspected) out.push_back(i);
  }
  return out;
}

void FdModule::on_heartbeat(NodeId src, const Payload& data) {
  (void)data;  // heartbeats carry no payload
  if (src >= peers_.size() || src == env().node_id()) return;
  PeerState& peer = peers_[src];
  peer.last_heartbeat = env().now();
  if (peer.suspected) {
    // False suspicion: rescind it and raise this peer's bar so the same
    // delay does not fool us twice (eventual accuracy).
    peer.suspected = false;
    peer.timeout += config_.timeout_increment;
    ++false_suspicions_;
    DPU_LOG(kDebug, "fd") << "s" << env().node_id() << " trusts s" << src
                          << " again (timeout now "
                          << to_millis(peer.timeout) << "ms)";
    up_.notify([src](FdListener& l) { l.on_trust(src); });
  }
}

void FdModule::on_tick() {
  const NodeId self = env().node_id();
  // Broadcast a heartbeat to all peers, in one udp service crossing.
  const auto n = static_cast<NodeId>(peers_.size());
  if (n > 1) {
    udp_.call([self, n](UdpApi& udp) {
      for (NodeId dst = 0; dst < n; ++dst) {
        if (dst != self) udp.udp_send(dst, kFdPort, Payload{});
      }
    });
  }
  // Check for silent peers.
  const TimePoint now = env().now();
  for (NodeId i = 0; i < peers_.size(); ++i) {
    if (i == self) continue;
    PeerState& peer = peers_[i];
    if (!peer.suspected && now - peer.last_heartbeat > peer.timeout) {
      peer.suspected = true;
      DPU_LOG(kDebug, "fd") << "s" << self << " suspects s" << i;
      up_.notify([i](FdListener& l) { l.on_suspect(i); });
    }
  }
  tick_timer_.schedule(config_.heartbeat_interval, [this]() { on_tick(); });
}

}  // namespace dpu

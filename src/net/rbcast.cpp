#include "net/rbcast.hpp"

#include "util/log.hpp"

namespace dpu {

RbcastModule* RbcastModule::create(Stack& stack, const std::string& service,
                                   Config config,
                                   const std::string& instance_name) {
  auto* m = stack.emplace_module<RbcastModule>(
      stack, instance_name.empty() ? service : instance_name, config);
  stack.bind<RbcastApi>(service, m, m);
  return m;
}

void RbcastModule::register_protocol(ProtocolLibrary& library, Config config) {
  // Dynamically created instances (replacement versions) derive their rp2p
  // channel from the cross-stack-identical "instance" param, so coexisting
  // versions never share a channel (net/services.hpp multiplexing model).
  auto factory_with = [config](bool relay) {
    return [config, relay](Stack& stack, const std::string& provide_as,
                           const ModuleParams& params) -> Module* {
      Config c = config;
      c.relay = relay;
      const std::string instance = params.get("instance");
      if (!instance.empty()) c.rp2p_channel = fnv1a64(instance + "/bcast");
      return create(stack, provide_as, c, instance);
    };
  };
  library.register_protocol(ProtocolInfo{
      .protocol = kProtocolName,
      .default_service = kRbcastService,
      .requires_services = {kRp2pService},
      .factory = factory_with(/*relay=*/true)});
  library.register_protocol(ProtocolInfo{
      .protocol = kProtocolNameNoRelay,
      .default_service = kRbcastService,
      .requires_services = {kRp2pService},
      .factory = factory_with(/*relay=*/false)});
}

RbcastModule::RbcastModule(Stack& stack, std::string instance_name,
                           Config config)
    : Module(stack, std::move(instance_name)),
      config_(config),
      rp2p_(stack.require<Rp2pApi>(kRp2pService)) {}

void RbcastModule::start() {
  next_seq_ = incarnation_seq_base(env().incarnation()) + 1;
  seen_.reset(env().world_size());
  rp2p_.call([this](Rp2pApi& rp2p) {
    rp2p.rp2p_bind_channel(config_.rp2p_channel,
                           [this](NodeId from, const Payload& data) {
                             on_message(from, data);
                           });
  });
}

void RbcastModule::stop() {
  rp2p_.call([this](Rp2pApi& rp2p) {
    rp2p.rp2p_release_channel(config_.rp2p_channel);
  });
  channels_.clear();
  pending_channel_.clear();
}

void RbcastModule::rbcast(ChannelId channel, Payload payload) {
  const MsgId id{env().node_id(), next_seq_++};
  BufWriter w(payload.size() + 32);
  id.encode(w);
  w.put_u64(channel);
  w.put_blob(payload);
  ++sent_;
  // Send to everyone, self included: self-delivery takes the same code path
  // (and the same latency/cost accounting) as remote delivery.  Serialized
  // once; all N destinations (and any later relays) share this one
  // immutable buffer, handed to rp2p in one service crossing.
  const auto n = static_cast<NodeId>(env().world_size());
  rp2p_.call([wire = w.take_payload(), n,
              channel = config_.rp2p_channel](Rp2pApi& rp2p) {
    for (NodeId dst = 0; dst < n; ++dst) rp2p.rp2p_send(dst, channel, wire);
  });
}

void RbcastModule::rbcast_bind_channel(ChannelId channel,
                                       BroadcastHandler handler) {
  channels_.bind(channel, std::move(handler));
  auto it = pending_channel_.find(channel);
  if (it == pending_channel_.end()) return;
  auto queued = std::move(it->second);
  pending_channel_.erase(it);
  // Routed through deliver(), which re-fetches the handler per message
  // (see Rp2pModule::rp2p_bind_channel).
  for (auto& [origin, payload] : queued) {
    deliver(channel, origin, payload);
  }
}

void RbcastModule::rbcast_release_channel(ChannelId channel) {
  channels_.release(channel);
}

void RbcastModule::on_message(NodeId from, const Payload& data) {
  MsgId id;
  ChannelId channel = 0;
  Payload payload;
  try {
    BufReader r(data);
    id = MsgId::decode(r);
    channel = r.get_u64();
    payload = r.get_blob_payload();  // zero-copy slice of the wire message
    r.expect_done();
  } catch (const CodecError& e) {
    DPU_LOG(kWarn, "rbcast") << "s" << env().node_id()
                             << " malformed message from s" << from << ": "
                             << e.what();
    return;
  }
  if (!seen_.mark_seen(id)) return;  // duplicate (relay echo)

  if (config_.relay && id.origin != env().node_id()) {
    // Relay on first receipt — unconditionally, not only when the message
    // came straight from the origin.  With chained crashes (origin crashes
    // mid-broadcast, then the stack it reached crashes mid-relay) a weaker
    // rule would let one stack deliver while another never hears of m.
    // The relay shares the received buffer (no re-serialization) and goes
    // to all other stacks in one rp2p crossing.
    ++relays_;
    const auto n = static_cast<NodeId>(env().world_size());
    const NodeId self = env().node_id();
    auto skip = [self, origin = id.origin, from](NodeId dst) {
      return dst == self || dst == origin || dst == from;
    };
    bool any = false;
    for (NodeId dst = 0; dst < n && !any; ++dst) any = !skip(dst);
    if (any) {
      rp2p_.call([data, n, skip,
                  channel = config_.rp2p_channel](Rp2pApi& rp2p) {
        for (NodeId dst = 0; dst < n; ++dst) {
          if (!skip(dst)) rp2p.rp2p_send(dst, channel, data);
        }
      });
    }
  }
  deliver(channel, id.origin, payload);
}

void RbcastModule::deliver(ChannelId channel, NodeId origin,
                           const Payload& payload) {
  if (const auto handler = channels_.find(channel)) {
    ++delivered_;
    (*handler)(origin, payload);
    return;
  }
  auto& queue = pending_channel_[channel];
  if (queue.size() >= config_.max_pending_per_channel) {
    DPU_LOG(kWarn, "rbcast") << "s" << env().node_id()
                             << " pending buffer overflow on channel "
                             << channel;
    return;
  }
  queue.emplace_back(origin, payload);
}

}  // namespace dpu

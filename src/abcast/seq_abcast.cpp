#include "abcast/seq_abcast.hpp"

#include "util/log.hpp"

namespace dpu {

SeqAbcastModule* SeqAbcastModule::create(Stack& stack,
                                         const std::string& service,
                                         Config config,
                                         const std::string& instance_name) {
  const std::string instance = instance_name.empty() ? service : instance_name;
  auto* m = stack.emplace_module<SeqAbcastModule>(stack, instance, service, config);
  stack.bind<AbcastApi>(service, m, m);
  return m;
}

void SeqAbcastModule::register_protocol(ProtocolLibrary& library,
                                        Config config) {
  library.register_protocol(ProtocolInfo{
      .protocol = kProtocolName,
      .default_service = kAbcastService,
      .requires_services = {kRp2pService, kRbcastService},
      .factory = [config](Stack& stack, const std::string& provide_as,
                          const ModuleParams& params) -> Module* {
        Config c = config;
        c.sequencer = static_cast<NodeId>(
            params.get_int("sequencer", static_cast<std::int64_t>(c.sequencer)));
        return create(stack, provide_as, c, params.get("instance"));
      }});
}

SeqAbcastModule::SeqAbcastModule(Stack& stack, std::string instance_name,
                                 std::string service, Config config)
    : Module(stack, std::move(instance_name)),
      config_(config),
      rp2p_(stack.require<Rp2pApi>(kRp2pService)),
      rbcast_(stack.require<RbcastApi>(kRbcastService)),
      up_(stack.upcalls<AbcastListener>(service)),
      submit_channel_(fnv1a64(Module::instance_name() + "/submit")),
      order_channel_(fnv1a64(Module::instance_name() + "/order")) {}

void SeqAbcastModule::start() {
  next_local_seq_ = incarnation_seq_base(env().incarnation()) + 1;
  if (env().node_id() == config_.sequencer) {
    rp2p_.call([this](Rp2pApi& rp2p) {
      rp2p.rp2p_bind_channel(submit_channel_,
                             [this](NodeId from, const Payload& data) {
                               on_submit(from, data);
                             });
    });
  }
  rbcast_.call([this](RbcastApi& rbcast) {
    rbcast.rbcast_bind_channel(order_channel_,
                               [this](NodeId origin, const Payload& data) {
                                 on_ordered(origin, data);
                               });
  });
}

void SeqAbcastModule::stop() {
  if (env().node_id() == config_.sequencer) {
    rp2p_.call(
        [this](Rp2pApi& rp2p) { rp2p.rp2p_release_channel(submit_channel_); });
  }
  rbcast_.call(
      [this](RbcastApi& rbcast) { rbcast.rbcast_release_channel(order_channel_); });
}

void SeqAbcastModule::abcast(Payload payload) {
  const MsgId id{env().node_id(), next_local_seq_++};
  BufWriter w(payload.size() + 16);
  id.encode(w);
  w.put_blob(payload);
  rp2p_.call([this, bytes = w.take_payload()](Rp2pApi& rp2p) mutable {
    rp2p.rp2p_send(config_.sequencer, submit_channel_, std::move(bytes));
  });
}

void SeqAbcastModule::on_submit(NodeId from, const Payload& data) {
  MsgId id;
  Bytes payload;
  try {
    BufReader r(data);
    id = MsgId::decode(r);
    payload = r.get_blob();
    r.expect_done();
  } catch (const CodecError& e) {
    DPU_LOG(kWarn, "seq-abcast") << "s" << env().node_id()
                                 << " malformed submit from s" << from << ": "
                                 << e.what();
    return;
  }
  const std::uint64_t gseq = next_gseq_++;
  BufWriter w(payload.size() + 24);
  w.put_varint(gseq);
  w.put_u32(id.origin);
  w.put_blob(payload);
  rbcast_.call([this, bytes = w.take_payload()](RbcastApi& rbcast) mutable {
    rbcast.rbcast(order_channel_, std::move(bytes));
  });
}

void SeqAbcastModule::on_ordered(NodeId /*origin*/, const Payload& data) {
  std::uint64_t gseq = 0;
  NodeId sender = kNoNode;
  Bytes payload;
  try {
    BufReader r(data);
    gseq = r.get_varint();
    sender = r.get_u32();
    payload = r.get_blob();
    r.expect_done();
  } catch (const CodecError& e) {
    DPU_LOG(kWarn, "seq-abcast") << "s" << env().node_id()
                                 << " malformed ordered message: " << e.what();
    return;
  }
  if (gseq < next_deliver_) return;  // duplicate
  reorder_.emplace(gseq, std::make_pair(sender, std::move(payload)));
  // The contiguous run this message completes goes up in one upcall.
  std::vector<std::pair<NodeId, Bytes>> run;
  while (!reorder_.empty() && reorder_.begin()->first == next_deliver_) {
    run.push_back(std::move(reorder_.extract(reorder_.begin()).mapped()));
    ++next_deliver_;
    ++deliveries_;
  }
  adeliver_run(up_, run);
}

}  // namespace dpu

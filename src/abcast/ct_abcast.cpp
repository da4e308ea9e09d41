#include "abcast/ct_abcast.hpp"

#include "util/log.hpp"

namespace dpu {

CtAbcastModule* CtAbcastModule::create(Stack& stack, const std::string& service,
                                       Config config,
                                       const std::string& instance_name) {
  const std::string instance = instance_name.empty() ? service : instance_name;
  auto* m = stack.emplace_module<CtAbcastModule>(stack, instance, service, config);
  stack.bind<AbcastApi>(service, m, m);
  return m;
}

void CtAbcastModule::register_protocol(ProtocolLibrary& library,
                                       Config config) {
  library.register_protocol(ProtocolInfo{
      .protocol = kProtocolName,
      .default_service = kAbcastService,
      .requires_services = {kConsensusService, kRbcastService},
      .factory = [config](Stack& stack, const std::string& provide_as,
                          const ModuleParams& params) -> Module* {
        Config c = config;
        c.batch_max = static_cast<std::size_t>(
            params.get_int("batch_max", static_cast<std::int64_t>(c.batch_max)));
        return create(stack, provide_as, c, params.get("instance"));
      }});
}

CtAbcastModule::CtAbcastModule(Stack& stack, std::string instance_name,
                               std::string service, Config config)
    : Module(stack, std::move(instance_name)),
      config_(config),
      consensus_(stack.require<ConsensusApi>(kConsensusService)),
      rbcast_(stack.require<RbcastApi>(kRbcastService)),
      up_(stack.upcalls<AbcastListener>(service)),
      stream_(fnv1a64(Module::instance_name() + "/stream")),
      data_channel_(fnv1a64(Module::instance_name() + "/data")) {}

void CtAbcastModule::start() {
  next_local_seq_ = incarnation_seq_base(env().incarnation()) + 1;
  delivered_.reset(env().world_size());
  rbcast_.call([this](RbcastApi& rbcast) {
    rbcast.rbcast_bind_channel(data_channel_,
                               [this](NodeId origin, const Payload& data) {
                                 on_data(origin, data);
                               });
  });
  consensus_.call([this](ConsensusApi& consensus) {
    consensus.consensus_bind_stream(
        stream_, [this](InstanceId instance, const Bytes& batch) {
          on_decision(instance, batch);
        });
  });
  // A recovered incarnation starts with an empty history but the stream may
  // hold decided instances it can never receive again (fire-once decide
  // broadcasts).  Ask for them up front instead of waiting for live traffic
  // to reveal the gap — this is what makes a node recovering into a *quiet*
  // group (workload over, nothing being decided) converge at all, and what
  // makes a busy-group recovery start replaying immediately instead of
  // after the first round-timeout nack.
  if (env().incarnation() > 0) {
    last_sync_requested_ = next_apply_;
    consensus_.call([this](ConsensusApi& consensus) {
      consensus.consensus_sync(stream_, next_apply_);
    });
  }
}

void CtAbcastModule::stop() {
  rbcast_.call(
      [this](RbcastApi& rbcast) { rbcast.rbcast_release_channel(data_channel_); });
  consensus_.call([this](ConsensusApi& consensus) {
    consensus.consensus_release_stream(stream_);
  });
}

void CtAbcastModule::abcast(Payload payload) {
  const MsgId id{env().node_id(), next_local_seq_++};
  BufWriter w(payload.size() + 16);
  id.encode(w);
  w.put_blob(payload);
  rbcast_.call([this, bytes = w.take_payload()](RbcastApi& rbcast) mutable {
    rbcast.rbcast(data_channel_, std::move(bytes));
  });
}

void CtAbcastModule::on_data(NodeId /*origin*/, const Payload& data) {
  MsgId id;
  Bytes payload;
  try {
    BufReader r(data);
    id = MsgId::decode(r);
    payload = r.get_blob();
    r.expect_done();
  } catch (const CodecError& e) {
    DPU_LOG(kWarn, "ct-abcast") << "s" << env().node_id()
                                << " malformed data: " << e.what();
    return;
  }
  if (delivered_.seen(id)) return;  // already settled by a decision
  pending_.emplace(id, std::move(payload));
  try_start_instance();
}

void CtAbcastModule::try_start_instance() {
  if (proposed_current_ || pending_.empty()) return;
  proposed_current_ = true;
  BufWriter w;
  const std::size_t count = std::min(pending_.size(), config_.batch_max);
  w.put_varint(count);
  std::size_t added = 0;
  for (const auto& [id, payload] : pending_) {
    if (added == count) break;
    id.encode(w);
    w.put_blob(payload);
    ++added;
  }
  consensus_.call([this, batch = w.take()](ConsensusApi& consensus) {
    consensus.propose(stream_, next_apply_, batch);
  });
}

void CtAbcastModule::on_decision(InstanceId instance, const Bytes& batch) {
  decision_buffer_[instance] = batch;
  // Decision-gap catch-up: decisions normally arrive (nearly) in instance
  // order.  A decision far ahead of the next applicable one means the
  // in-between decisions were missed for good — their fire-once broadcasts
  // are gone (we recovered from a crash, or rejoined after a long
  // partition) — so ask the peers to resend everything from next_apply_ on.
  // One request per stall point: re-request only after progress.
  if (instance > next_apply_ + 1 && last_sync_requested_ != next_apply_) {
    last_sync_requested_ = next_apply_;
    consensus_.call([this](ConsensusApi& consensus) {
      consensus.consensus_sync(stream_, next_apply_);
    });
  }
  while (true) {
    auto it = decision_buffer_.find(next_apply_);
    if (it == decision_buffer_.end()) break;
    const Bytes current = std::move(it->second);
    decision_buffer_.erase(it);
    apply_batch(current);
    ++next_apply_;
    proposed_current_ = false;
  }
  try_start_instance();
}

void CtAbcastModule::apply_batch(const Bytes& batch) {
  // The messages new at this node, in decided order, go up in one upcall.
  std::vector<std::pair<NodeId, Bytes>> fresh;
  try {
    BufReader r(batch);
    const std::uint64_t count = r.get_varint();
    for (std::uint64_t i = 0; i < count; ++i) {
      const MsgId id = MsgId::decode(r);
      Bytes payload = r.get_blob();
      if (!delivered_.mark_seen(id)) continue;  // integrity: once only
      pending_.erase(id);
      ++deliveries_;
      fresh.emplace_back(id.origin, std::move(payload));
    }
    r.expect_done();
  } catch (const CodecError& e) {
    // A malformed decided batch would be a bug in a proposer, not the
    // network (consensus ships it reliably); surface loudly.  The decoded
    // prefix still delivers.
    DPU_LOG(kError, "ct-abcast") << "s" << env().node_id()
                                 << " malformed decided batch: " << e.what();
  }
  adeliver_run(up_, fresh);
}

}  // namespace dpu

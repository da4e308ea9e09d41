#include "abcast/token_abcast.hpp"

#include "util/log.hpp"

namespace dpu {

TokenAbcastModule* TokenAbcastModule::create(Stack& stack,
                                             const std::string& service,
                                             Config config,
                                             const std::string& instance_name) {
  const std::string instance = instance_name.empty() ? service : instance_name;
  auto* m =
      stack.emplace_module<TokenAbcastModule>(stack, instance, service, config);
  stack.bind<AbcastApi>(service, m, m);
  return m;
}

void TokenAbcastModule::register_protocol(ProtocolLibrary& library,
                                          Config config) {
  library.register_protocol(ProtocolInfo{
      .protocol = kProtocolName,
      .default_service = kAbcastService,
      .requires_services = {kRp2pService, kRbcastService},
      .factory = [config](Stack& stack, const std::string& provide_as,
                          const ModuleParams& params) -> Module* {
        Config c = config;
        c.idle_hold = params.get_int("idle_hold_us",
                                     c.idle_hold / kMicrosecond) *
                      kMicrosecond;
        c.batch_max = static_cast<std::size_t>(
            params.get_int("batch_max", static_cast<std::int64_t>(c.batch_max)));
        return create(stack, provide_as, c, params.get("instance"));
      }});
}

TokenAbcastModule::TokenAbcastModule(Stack& stack, std::string instance_name,
                                     std::string service, Config config)
    : Module(stack, std::move(instance_name)),
      config_(config),
      rp2p_(stack.require<Rp2pApi>(kRp2pService)),
      rbcast_(stack.require<RbcastApi>(kRbcastService)),
      up_(stack.upcalls<AbcastListener>(service)),
      token_channel_(fnv1a64(Module::instance_name() + "/token")),
      order_channel_(fnv1a64(Module::instance_name() + "/order")),
      idle_timer_(stack.host()) {}

void TokenAbcastModule::start() {
  rp2p_.call([this](Rp2pApi& rp2p) {
    rp2p.rp2p_bind_channel(token_channel_,
                           [this](NodeId from, const Payload& data) {
                             on_token(from, data);
                           });
  });
  rbcast_.call([this](RbcastApi& rbcast) {
    rbcast.rbcast_bind_channel(order_channel_,
                               [this](NodeId origin, const Payload& data) {
                                 on_ordered(origin, data);
                               });
  });
  // Stack 0 mints the token.  Every stack creates this module in a
  // replacement, so the mint happens exactly once per protocol instance.
  if (env().node_id() == 0) {
    use_and_pass_token(1);
  }
}

void TokenAbcastModule::stop() {
  idle_timer_.cancel();
  rp2p_.call([this](Rp2pApi& rp2p) { rp2p.rp2p_release_channel(token_channel_); });
  rbcast_.call(
      [this](RbcastApi& rbcast) { rbcast.rbcast_release_channel(order_channel_); });
}

void TokenAbcastModule::abcast(Payload payload) {
  queue_.push_back(std::move(payload));
  if (holding_token_) {
    // We are idling with the token; use it right away.
    idle_timer_.cancel();
    use_and_pass_token(held_gseq_);
  }
}

void TokenAbcastModule::on_token(NodeId from, const Payload& data) {
  std::uint64_t next_gseq = 0;
  try {
    BufReader r(data);
    next_gseq = r.get_varint();
    r.expect_done();
  } catch (const CodecError& e) {
    DPU_LOG(kWarn, "token-abcast") << "s" << env().node_id()
                                   << " malformed token from s" << from << ": "
                                   << e.what();
    return;
  }
  use_and_pass_token(next_gseq);
}

void TokenAbcastModule::use_and_pass_token(std::uint64_t next_gseq) {
  ++token_visits_;
  holding_token_ = true;
  held_gseq_ = next_gseq;

  std::size_t stamped = 0;
  while (!queue_.empty() && stamped < config_.batch_max) {
    Payload payload = std::move(queue_.front());
    queue_.pop_front();
    BufWriter w(payload.size() + 24);
    w.put_varint(held_gseq_++);
    w.put_u32(env().node_id());
    w.put_blob(payload);
    rbcast_.call([this, bytes = w.take_payload()](RbcastApi& rbcast) mutable {
      rbcast.rbcast(order_channel_, std::move(bytes));
    });
    ++stamped;
  }

  if (stamped > 0 || config_.idle_hold <= 0) {
    pass_token(held_gseq_);
    return;
  }
  // Idle: hold briefly so an idle ring does not spin at network speed.
  idle_timer_.schedule(config_.idle_hold, [this]() {
    if (holding_token_) pass_token(held_gseq_);
  });
}

void TokenAbcastModule::pass_token(std::uint64_t next_gseq) {
  holding_token_ = false;
  const NodeId next =
      static_cast<NodeId>((env().node_id() + 1) % env().world_size());
  BufWriter w(12);
  w.put_varint(next_gseq);
  rp2p_.call([this, next, bytes = w.take_payload()](Rp2pApi& rp2p) mutable {
    rp2p.rp2p_send(next, token_channel_, std::move(bytes));
  });
}

void TokenAbcastModule::on_ordered(NodeId /*origin*/, const Payload& data) {
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
    DPU_LOG(kWarn, "token-abcast") << "s" << env().node_id()
                                   << " malformed ordered message: " << e.what();
    return;
  }
  if (gseq < next_deliver_) return;
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

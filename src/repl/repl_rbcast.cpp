#include "repl/repl_rbcast.hpp"

#include "util/log.hpp"

namespace dpu {

namespace {

ReplacementFacadeBase::FacadeConfig to_facade_config(
    const ReplRbcastConfig& config) {
  ReplacementFacadeBase::FacadeConfig f;
  f.facade_service = config.facade_service;
  f.inner_service = config.inner_service;
  f.initial_protocol = config.initial_protocol;
  f.initial_params = config.initial_params;
  f.retire_after = config.retire_after;
  // Rbcast owes a recovered stack no delivered history (it orders nothing;
  // upper layers recover what they need through their own catch-up), but it
  // does owe the current version metadata so the stack re-enters at the
  // live protocol/version instead of re-installing version 0.
  f.state_sync = ReplacementFacadeBase::FacadeConfig::StateSync::kMetadata;
  return f;
}

}  // namespace

ReplRbcastModule* ReplRbcastModule::create(Stack& stack, Config config) {
  auto* m = stack.emplace_module<ReplRbcastModule>(
      stack, "repl-" + config.facade_service, config);
  stack.bind<RbcastApi>(config.facade_service, m, m);
  return m;
}

ReplRbcastModule::ReplRbcastModule(Stack& stack, std::string instance_name,
                                   Config config)
    : ReplacementFacadeBase(stack, std::move(instance_name),
                            to_facade_config(config)),
      inner_(stack.require<RbcastApi>(fcfg_.inner_service)),
      switch_channel_(fnv1a64(Module::instance_name() + "/switch")) {}

void ReplRbcastModule::start() {
  dedup_.reset(env().world_size(), kMaxOldEpochs);
  facade_start();  // installs version 0; on_inner_installed hooks it up
}

void ReplRbcastModule::stop() {
  facade_stop();
  for (const InnerVersion& v : versions_) {
    v.api->rbcast_release_channel(switch_channel_);
  }
  channels_.clear();
}

// ---------------------------------------------------------------------------
// Facade RbcastApi
// ---------------------------------------------------------------------------

void ReplRbcastModule::rbcast(ChannelId channel, Payload payload) {
  const MsgId id = next_msg_id();
  if (state_syncing()) {
    // No installed version yet (recovering/late-joining): track only; the
    // sync finalize reissues under the synced version number.
    track_undelivered(id, std::move(payload), channel);
    return;
  }
  Payload wrapped = wrap_data(seq_number_, id, payload);
  // The channel rides as the undelivered entry's context so a reissue after
  // a switch re-broadcasts on the message's own client channel.
  track_undelivered(id, std::move(payload), channel);
  send_inner_data(std::move(wrapped), channel);
}

void ReplRbcastModule::rbcast_bind_channel(ChannelId channel,
                                           BroadcastHandler handler) {
  channels_.bind(channel, std::move(handler));
  // Intercept this channel on every live version: traffic of older versions
  // (including their pending-channel buffers) must still reach the facade.
  for (const InnerVersion& v : versions_) bind_interceptor(*v.api, channel);
}

void ReplRbcastModule::rbcast_release_channel(ChannelId channel) {
  channels_.release(channel);
  for (const InnerVersion& v : versions_) v.api->rbcast_release_channel(channel);
}

// ---------------------------------------------------------------------------
// ReplacementFacadeBase hooks
// ---------------------------------------------------------------------------

void ReplRbcastModule::send_inner_change(Payload wrapped) {
  inner_.call([this, wrapped = std::move(wrapped)](RbcastApi& api) mutable {
    api.rbcast(switch_channel_, std::move(wrapped));
  });
}

void ReplRbcastModule::send_inner_data(Payload wrapped, std::uint64_t ctx) {
  inner_.call([channel = static_cast<ChannelId>(ctx),
               wrapped = std::move(wrapped)](RbcastApi& api) mutable {
    api.rbcast(channel, std::move(wrapped));
  });
}

void ReplRbcastModule::on_inner_installed(Module* created,
                                          std::uint64_t /*sn*/) {
  auto* api = dynamic_cast<RbcastApi*>(created);
  assert(api != nullptr);
  versions_.push_back(InnerVersion{created, api});
  api->rbcast_bind_channel(switch_channel_,
                           [this](NodeId from, const Payload& data) {
                             on_switch_message(from, data);
                           });
  // Re-attach every client channel before the base reissues the undelivered
  // set through this version.
  channels_.for_each_key(
      [this, api](ChannelId channel) { bind_interceptor(*api, channel); });
}

void ReplRbcastModule::on_inner_retired(Module* retired) {
  std::erase_if(versions_, [retired](const InnerVersion& v) {
    return v.module == retired;
  });
}

void ReplRbcastModule::bind_interceptor(RbcastApi& api, ChannelId channel) {
  api.rbcast_bind_channel(channel,
                          [this, channel](NodeId from, const Payload& data) {
                            on_inner_message(channel, from, data);
                          });
}

// ---------------------------------------------------------------------------
// Inner deliveries
// ---------------------------------------------------------------------------

void ReplRbcastModule::on_inner_message(ChannelId channel, NodeId /*from*/,
                                        const Payload& data) {
  try {
    UnwrappedData m = unwrap_data(data);  // zero-copy slice of the wire
    // Any version's copy counts (rbcast orders nothing, so the version skew
    // is unobservable); integrity across versions is the dedup's job —
    // reissued messages carry their original id.
    if (!dedup_.mark_seen(m.id)) {
      ++stale_discarded_;
      return;
    }
    if (m.id.origin == env().node_id()) settle_undelivered(m.id);
    if (const auto handler = channels_.find(channel)) {
      (*handler)(m.id.origin, m.payload);
    }
  } catch (const CodecError& e) {
    DPU_LOG(kError, "repl-rbcast")
        << "s" << env().node_id() << " malformed wrapped message: "
        << e.what();
  }
}

void ReplRbcastModule::on_switch_message(NodeId from, const Payload& data) {
  try {
    Unwrapped m = unwrap(data);
    if (m.tag == kNil) throw CodecError("data on the switch channel");
    if (m.tag == kNewProtocol && m.sn != seq_number_) {
      // One-switch-at-a-time discipline: without an order there is no way to
      // serialize concurrent changes consistently, so a change targeting a
      // version we are no longer (or not yet) at is dropped — uniformly, on
      // every stack that already switched.  Refresh switches (kNewProtocolSync)
      // get the same sn test in perform_switch_from, which additionally
      // requeues and relaunches the responder's unserved requests.
      ++changes_dropped_;
      DPU_LOG(kWarn, "repl-rbcast")
          << "s" << env().node_id() << " dropping change to " << m.protocol
          << " from s" << from << " (its sn " << m.sn << " != " << seq_number_
          << ")";
      return;
    }
    perform_switch_from(m);
  } catch (const CodecError& e) {
    DPU_LOG(kError, "repl-rbcast")
        << "s" << env().node_id() << " malformed change message: " << e.what();
  }
}

}  // namespace dpu

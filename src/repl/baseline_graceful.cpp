#include "repl/baseline_graceful.hpp"

#include "util/log.hpp"

namespace dpu {

namespace {
void encode_params(BufWriter& w, const ModuleParams& params) {
  w.put_varint(params.entries().size());
  for (const auto& [key, value] : params.entries()) {
    w.put_string(key);
    w.put_string(value);
  }
}

ModuleParams decode_params(BufReader& r) {
  ModuleParams params;
  const std::uint64_t n = r.get_varint();
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string key = r.get_string();
    params.set(key, r.get_string());
  }
  return params;
}
}  // namespace

GracefulSwitchModule* GracefulSwitchModule::create(Stack& stack,
                                                   Config config) {
  auto* m = stack.emplace_module<GracefulSwitchModule>(
      stack, "graceful-" + config.facade_service, config);
  stack.bind<AbcastApi>(config.facade_service, m, m);
  return m;
}

GracefulSwitchModule::GracefulSwitchModule(Stack& stack,
                                           std::string instance_name,
                                           Config config)
    : Module(stack, std::move(instance_name)),
      config_(config),
      rp2p_(stack.require<Rp2pApi>(kRp2pService)),
      up_(stack.upcalls<AbcastListener>(config_.facade_service)),
      ctl_channel_(fnv1a64(Module::instance_name() + "/ctl")) {}

void GracefulSwitchModule::start() {
  manager_ = UpdateManagerModule::of(stack());
  if (manager_ != nullptr) manager_->register_mechanism(this);
  rp2p_.call([this](Rp2pApi& rp2p) {
    rp2p.rp2p_bind_channel(ctl_channel_,
                           [this](NodeId from, const Payload& data) {
                             on_ctl(from, data);
                           });
  });
  cur_protocol_ = config_.initial_protocol;
  active_protocol_ = config_.initial_protocol;
  // AAC version 0.
  ModuleParams params = config_.initial_params;
  params.set("instance", cur_protocol_ + "@aac#0");
  stack().create_module(cur_protocol_, aac_service(0), params);
  stack().listen<AbcastListener>(aac_service(0), this, this);
}

void GracefulSwitchModule::stop() {
  if (manager_ != nullptr) manager_->unregister_mechanism(this);
  rp2p_.call([this](Rp2pApi& rp2p) { rp2p.rp2p_release_channel(ctl_channel_); });
  stack().unlisten<AbcastListener>(aac_service(version_), this);
}

// ---------------------------------------------------------------------------
// Data path
// ---------------------------------------------------------------------------

void GracefulSwitchModule::abcast(Payload payload) {
  if (phase_ == Phase::kDraining || phase_ == Phase::kAwaitingMarker) {
    // The old AAC is deactivating; hold the call until activation.
    ++calls_queued_;
    queued_calls_.push_back(std::move(payload));
    return;
  }
  forward_to_active(payload);
}

void GracefulSwitchModule::forward_to_active(const Payload& payload) {
  const MsgId id{env().node_id(), next_local_++};
  in_flight_.insert(id);
  BufWriter w(payload.size() + 24);
  w.put_u8(kData);
  id.encode(w);
  w.put_blob(payload);
  stack().require<AbcastApi>(aac_service(version_))
      .call([bytes = w.take_payload()](AbcastApi& api) mutable {
        api.abcast(std::move(bytes));
      });
}

void GracefulSwitchModule::adeliver(NodeId /*sender*/,
                                    const Bytes& inner_payload) {
  try {
    BufReader r(inner_payload);
    const auto tag = static_cast<Tag>(r.get_u8());
    if (tag == kActivateMarker) {
      const std::uint64_t switch_id = r.get_varint();
      r.expect_done();
      if (switch_id == switch_id_ && phase_ == Phase::kAwaitingMarker) {
        activate();
      }
      return;
    }
    if (tag != kData) throw CodecError("unknown graceful tag");
    const MsgId id = MsgId::decode(r);
    Bytes payload = r.get_blob();
    r.expect_done();
    if (id.origin == env().node_id()) {
      in_flight_.erase(id);
      if (phase_ == Phase::kDraining) check_drained();
    }
    up_.notify([&](AbcastListener& l) { l.adeliver(id.origin, payload); });
  } catch (const CodecError& e) {
    DPU_LOG(kError, "graceful") << "s" << env().node_id()
                                << " malformed wrapper: " << e.what();
  }
}

// ---------------------------------------------------------------------------
// Coordinated adaptation
// ---------------------------------------------------------------------------

void GracefulSwitchModule::request_update(const std::string& protocol,
                                          const ModuleParams& params) {
  // `is_ca_` covers the window between issuing PREPARE and our own PREPARE
  // arriving back (control messages are asynchronous, even to self).
  if (phase_ != Phase::kIdle || is_ca_) {
    throw std::logic_error("graceful: a switch is already in progress");
  }
  const ProtocolInfo* info =
      stack().library() != nullptr ? stack().library()->find(protocol)
                                   : nullptr;
  if (info == nullptr) {
    throw std::logic_error("graceful: unknown protocol '" + protocol + "'");
  }
  // The Graceful Adaptation restriction: an AAC may only use services the
  // host module already requires (no recursive creation).
  for (const std::string& s : info->requires_services) {
    if (!stack().slot(s).bound()) {
      throw std::logic_error(
          "graceful: cannot adapt to '" + protocol + "': required service '" +
          s + "' is not bound (AACs are limited to the services of their "
          "module)");
    }
  }
  is_ca_ = true;
  switch_id_ = version_ + 1;  // our own PREPARE (self-delivered) confirms it
  prepared_from_.clear();
  drained_from_.clear();
  for (NodeId dst = 0; dst < env().world_size(); ++dst) {
    send_ctl(dst, kPrepare, version_ + 1, protocol, params);
  }
}

void GracefulSwitchModule::send_ctl(NodeId dst, CtlType type,
                                    std::uint64_t switch_id,
                                    const std::string& protocol,
                                    const ModuleParams& params) {
  BufWriter w(protocol.size() + 32);
  w.put_u8(type);
  w.put_varint(switch_id);
  w.put_string(protocol);
  encode_params(w, params);
  rp2p_.call([this, dst, bytes = w.take_payload()](Rp2pApi& rp2p) mutable {
    rp2p.rp2p_send(dst, ctl_channel_, std::move(bytes));
  });
}

void GracefulSwitchModule::on_ctl(NodeId from, const Payload& data) {
  CtlType type{};
  std::uint64_t switch_id = 0;
  std::string protocol;
  ModuleParams params;
  try {
    BufReader r(data);
    type = static_cast<CtlType>(r.get_u8());
    switch_id = r.get_varint();
    protocol = r.get_string();
    params = decode_params(r);
    r.expect_done();
  } catch (const CodecError& e) {
    DPU_LOG(kWarn, "graceful") << "s" << env().node_id()
                               << " malformed control message: " << e.what();
    return;
  }

  switch (type) {
    case kPrepare:
      if (phase_ != Phase::kIdle || switch_id != version_ + 1) return;
      prepare_new_aac(switch_id, protocol, params);
      send_ctl(from, kPrepared, switch_id, "", ModuleParams());
      break;
    case kPrepared:
      if (!is_ca_ || switch_id != switch_id_) return;
      prepared_from_.insert(from);
      if (prepared_from_.size() == env().world_size()) {
        // Barrier 1 complete: deactivate everywhere.
        for (NodeId dst = 0; dst < env().world_size(); ++dst) {
          send_ctl(dst, kDeactivate, switch_id, "", ModuleParams());
        }
      }
      break;
    case kDeactivate:
      if (phase_ != Phase::kPrepared || switch_id != switch_id_) return;
      begin_drain();
      break;
    case kDrained:
      if (!is_ca_ || switch_id != switch_id_) return;
      drained_from_.insert(from);
      if (drained_from_.size() == env().world_size()) {
        // Barrier 2 complete: broadcast the activation marker through the
        // OLD AAC — its total order is the consistent activation point.
        BufWriter w(12);
        w.put_u8(kActivateMarker);
        w.put_varint(switch_id_);
        stack().require<AbcastApi>(aac_service(version_))
            .call([bytes = w.take_payload()](AbcastApi& api) mutable {
              api.abcast(std::move(bytes));
            });
      }
      break;
  }
}

void GracefulSwitchModule::prepare_new_aac(std::uint64_t switch_id,
                                           const std::string& protocol,
                                           const ModuleParams& params) {
  switch_id_ = switch_id;
  phase_ = Phase::kPrepared;
  ModuleParams create_params = params;
  create_params.set("instance",
                    protocol + "@aac#" + std::to_string(switch_id));
  stack().create_module(protocol, aac_service(switch_id), create_params);
  stack().listen<AbcastListener>(aac_service(switch_id), this, this);
  cur_protocol_ = protocol;
}

void GracefulSwitchModule::begin_drain() {
  phase_ = Phase::kDraining;
  queue_since_ = env().now();
  stack().trace(TraceKind::kCustom, config_.facade_service, instance_name(),
                kTraceDeactivated);
  check_drained();
}

void GracefulSwitchModule::check_drained() {
  if (phase_ != Phase::kDraining || !in_flight_.empty()) return;
  phase_ = Phase::kAwaitingMarker;
  // Report to the CA; the CA of this switch is whoever sent PREPARE — we
  // reply to everyone to avoid tracking it (only the CA counts DRAINED).
  for (NodeId dst = 0; dst < env().world_size(); ++dst) {
    send_ctl(dst, kDrained, switch_id_, "", ModuleParams());
  }
}

void GracefulSwitchModule::activate() {
  stack().unlisten<AbcastListener>(aac_service(version_), this);
  // Keep listening on the new version (registered at prepare); the old AAC
  // is deactivated but remains in the stack.
  version_ = switch_id_;
  phase_ = Phase::kIdle;
  is_ca_ = false;
  ++switches_completed_;
  active_protocol_ = cur_protocol_;
  total_queue_window_ += env().now() - queue_since_;
  stack().trace(TraceKind::kCustom, config_.facade_service, instance_name(),
                kTraceActivated);
  if (manager_ != nullptr) {
    manager_->notify_update_complete(*this, active_protocol_, version_);
  }
  while (!queued_calls_.empty()) {
    Payload payload = std::move(queued_calls_.front());
    queued_calls_.pop_front();
    forward_to_active(payload);
  }
}

}  // namespace dpu

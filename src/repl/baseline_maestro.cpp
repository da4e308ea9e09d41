#include "repl/baseline_maestro.hpp"

#include "consensus/consensus.hpp"
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

MaestroSwitchModule* MaestroSwitchModule::create(Stack& stack, Config config) {
  auto* m = stack.emplace_module<MaestroSwitchModule>(
      stack, "maestro-" + config.facade_service, config);
  stack.bind<AbcastApi>(config.facade_service, m, m);
  return m;
}

MaestroSwitchModule::MaestroSwitchModule(Stack& stack,
                                         std::string instance_name,
                                         Config config)
    : Module(stack, std::move(instance_name)),
      config_(config),
      inner_(stack.require<AbcastApi>(config_.inner_service)),
      rp2p_(stack.require<Rp2pApi>(kRp2pService)),
      up_(stack.upcalls<AbcastListener>(config_.facade_service)),
      ready_channel_(fnv1a64(Module::instance_name() + "/ready")) {}

void MaestroSwitchModule::start() {
  manager_ = UpdateManagerModule::of(stack());
  if (manager_ != nullptr) manager_->register_mechanism(this);
  stack().listen<AbcastListener>(config_.inner_service, this, this);
  rp2p_.call([this](Rp2pApi& rp2p) {
    rp2p.rp2p_bind_channel(ready_channel_,
                           [this](NodeId from, const Payload& data) {
                             on_ready(from, data);
                           });
  });
  cur_protocol_ = config_.initial_protocol;
  // Build the initial protocol layer (consensus + abcast), version 0.
  ModuleParams cparams;
  cparams.set("instance", "consensus@maestro#0");
  stack().create_module(config_.consensus_protocol, kConsensusService, cparams);
  ModuleParams params = config_.initial_params;
  params.set("instance", cur_protocol_ + "@maestro#0");
  stack().create_module(cur_protocol_, config_.inner_service, params);
}

void MaestroSwitchModule::stop() {
  if (manager_ != nullptr) manager_->unregister_mechanism(this);
  stack().unlisten<AbcastListener>(config_.inner_service, this);
  rp2p_.call([this](Rp2pApi& rp2p) { rp2p.rp2p_release_channel(ready_channel_); });
}

void MaestroSwitchModule::abcast(Payload payload) {
  if (blocked_) {
    // The measurable Maestro drawback: the application is blocked during the
    // stack switch (calls are queued, not lost).
    ++calls_queued_;
    queued_while_blocked_.push_back(std::move(payload));
    return;
  }
  const MsgId id{env().node_id(), next_local_++};
  undelivered_.emplace(id, payload);
  inner_abcast_wrapped(id, payload);
}

void MaestroSwitchModule::inner_abcast_wrapped(const MsgId& id,
                                               const Payload& payload) {
  BufWriter w(payload.size() + 24);
  w.put_u8(kNil);
  w.put_varint(version_);
  id.encode(w);
  w.put_blob(payload);
  inner_.call([bytes = w.take_payload()](AbcastApi& api) mutable {
    api.abcast(std::move(bytes));
  });
}

void MaestroSwitchModule::request_update(const std::string& protocol,
                                         const ModuleParams& params) {
  if (stack().library() == nullptr ||
      stack().library()->find(protocol) == nullptr) {
    throw std::logic_error("maestro: unknown protocol '" + protocol + "'");
  }
  BufWriter w(protocol.size() + 32);
  w.put_u8(kSwitchMarker);
  w.put_varint(version_);
  w.put_string(protocol);
  encode_params(w, params);
  inner_.call([bytes = w.take_payload()](AbcastApi& api) mutable {
    api.abcast(std::move(bytes));
  });
}

void MaestroSwitchModule::adeliver(NodeId /*sender*/,
                                   const Bytes& inner_payload) {
  try {
    BufReader r(inner_payload);
    const auto tag = static_cast<Tag>(r.get_u8());
    const std::uint64_t version = r.get_varint();
    if (tag == kSwitchMarker) {
      std::string protocol = r.get_string();
      ModuleParams params = decode_params(r);
      r.expect_done();
      perform_local_switch(protocol, params);
      return;
    }
    if (tag != kNil) throw CodecError("unknown maestro tag");
    const MsgId id = MsgId::decode(r);
    Bytes payload = r.get_blob();
    r.expect_done();
    if (version != version_) return;  // stale: lost with the old stack
    if (id.origin == env().node_id()) undelivered_.erase(id);
    up_.notify([&](AbcastListener& l) { l.adeliver(id.origin, payload); });
  } catch (const CodecError& e) {
    DPU_LOG(kError, "maestro") << "s" << env().node_id()
                               << " malformed wrapper: " << e.what();
  }
}

void MaestroSwitchModule::perform_local_switch(const std::string& protocol,
                                               const ModuleParams& params) {
  ++version_;
  // (1) Block the application.
  blocked_ = true;
  blocked_since_ = env().now();
  ready_from_.clear();
  stack().trace(TraceKind::kCustom, config_.facade_service, instance_name(),
                kTraceBlocked);

  // (2) Finalize the old stack: stop + destroy the whole protocol layer
  // (ABcast and its consensus substrate).
  Module* old_abcast = stack().slot(config_.inner_service).provider_module();
  Module* old_consensus = stack().slot(kConsensusService).provider_module();
  if (old_abcast != nullptr) stack().destroy_module(old_abcast);
  if (old_consensus != nullptr) stack().destroy_module(old_consensus);

  // (3) Rebuild bottom-up with fresh instance names.
  const std::string suffix = "@maestro#" + std::to_string(version_);
  ModuleParams cparams;
  cparams.set("instance", "consensus" + suffix);
  stack().create_module(config_.consensus_protocol, kConsensusService, cparams);
  ModuleParams aparams = params;
  aparams.set("instance", protocol + suffix);
  stack().create_module(protocol, config_.inner_service, aparams);
  cur_protocol_ = protocol;

  // (4) Coordinate the start: tell everyone we are ready, then wait for all.
  BufWriter w(12);
  w.put_varint(version_);
  const Payload ready = w.take_payload();
  for (NodeId dst = 0; dst < env().world_size(); ++dst) {
    rp2p_.call([this, dst, ready](Rp2pApi& rp2p) mutable {
      rp2p.rp2p_send(dst, ready_channel_, std::move(ready));
    });
  }
}

void MaestroSwitchModule::on_ready(NodeId from, const Payload& data) {
  try {
    BufReader r(data);
    const std::uint64_t version = r.get_varint();
    r.expect_done();
    if (version != version_) return;  // stale barrier round
  } catch (const CodecError&) {
    return;
  }
  ready_from_.insert(from);
  maybe_unblock();
}

void MaestroSwitchModule::maybe_unblock() {
  if (!blocked_ || ready_from_.size() < env().world_size()) return;
  blocked_ = false;
  total_blocked_time_ += env().now() - blocked_since_;
  ++switches_completed_;
  stack().trace(TraceKind::kCustom, config_.facade_service, instance_name(),
                kTraceUnblocked);
  if (manager_ != nullptr) {
    manager_->notify_update_complete(*this, cur_protocol_, version_);
  }

  // Re-issue in-flight messages lost with the old stack, then the calls
  // queued while blocked.
  for (const auto& [id, payload] : undelivered_) {
    inner_abcast_wrapped(id, payload);
  }
  while (!queued_while_blocked_.empty()) {
    Payload payload = std::move(queued_while_blocked_.front());
    queued_while_blocked_.pop_front();
    const MsgId id{env().node_id(), next_local_++};
    undelivered_.emplace(id, payload);
    inner_abcast_wrapped(id, payload);
  }
}

}  // namespace dpu

#include "repl/repl_consensus.hpp"

#include <algorithm>

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

/// Wrapper layout: u8 has_vote | [u32 target_version, string protocol,
/// params] | blob client_value.
struct Wrapped {
  bool has_vote = false;
  std::uint32_t target_version = 0;
  std::string protocol;
  ModuleParams params;
  Bytes client_value;

  [[nodiscard]] static Bytes encode_plain(const Bytes& client_value) {
    BufWriter w(client_value.size() + 4);
    w.put_bool(false);
    w.put_blob(client_value);
    return w.take();
  }

  [[nodiscard]] static Bytes encode_vote(std::uint32_t target,
                                         const std::string& protocol,
                                         const ModuleParams& params,
                                         const Bytes& client_value) {
    BufWriter w(client_value.size() + protocol.size() + 32);
    w.put_bool(true);
    w.put_u32(target);
    w.put_string(protocol);
    encode_params(w, params);
    w.put_blob(client_value);
    return w.take();
  }

  [[nodiscard]] static Wrapped decode(const Bytes& data) {
    BufReader r(data);
    Wrapped out;
    out.has_vote = r.get_bool();
    if (out.has_vote) {
      out.target_version = r.get_u32();
      out.protocol = r.get_string();
      out.params = decode_params(r);
    }
    out.client_value = r.get_blob();
    r.expect_done();
    return out;
  }
};

}  // namespace

ReplConsensusModule* ReplConsensusModule::create(Stack& stack, Config config) {
  auto* m = stack.emplace_module<ReplConsensusModule>(
      stack, "repl-" + config.facade_service, config);
  stack.bind<ConsensusApi>(config.facade_service, m, m);
  return m;
}

ReplConsensusModule::ReplConsensusModule(Stack& stack,
                                         std::string instance_name,
                                         Config config)
    : Module(stack, std::move(instance_name)),
      config_(config),
      rbcast_(stack.require<RbcastApi>(kRbcastService)),
      announce_channel_(fnv1a64(Module::instance_name() + "/switch")) {}

void ReplConsensusModule::start() {
  manager_ = UpdateManagerModule::of(stack());
  if (manager_ != nullptr) manager_->register_mechanism(this);
  rbcast_.call([this](RbcastApi& rbcast) {
    rbcast.rbcast_bind_channel(announce_channel_,
                               [this](NodeId from, const Payload& data) {
                                 on_announce(from, data);
                               });
  });
  create_version(0, config_.initial_protocol, config_.initial_params);
}

void ReplConsensusModule::stop() {
  if (manager_ != nullptr) manager_->unregister_mechanism(this);
  rbcast_.call([this](RbcastApi& rbcast) {
    rbcast.rbcast_release_channel(announce_channel_);
  });
}

UpdateStatus ReplConsensusModule::update_status() const {
  // The slowest routed stream defines the stack-wide version; with no
  // routed streams the latest announced version rules (nothing is pinned to
  // an older protocol).
  std::uint32_t version = static_cast<std::uint32_t>(versions_.size()) - 1;
  for (const auto& [stream, st] : streams_) {
    (void)stream;
    if (st.routed) version = std::min(version, st.auth);
  }
  return UpdateStatus{versions_[version].protocol, version};
}

std::uint32_t ReplConsensusModule::stream_version(StreamId stream) const {
  auto it = streams_.find(stream);
  return it == streams_.end() ? 0 : it->second.auth;
}

// ---------------------------------------------------------------------------
// Switch announcement
// ---------------------------------------------------------------------------

void ReplConsensusModule::request_update(const std::string& protocol,
                                         const ModuleParams& params) {
  if (stack().library() == nullptr ||
      stack().library()->find(protocol) == nullptr) {
    throw std::logic_error("repl-consensus: unknown protocol '" + protocol +
                           "'");
  }
  stack().trace(TraceKind::kCustom, config_.facade_service, instance_name(),
                std::string(kTraceChangeRequested) + ":" + protocol);
  BufWriter w(protocol.size() + 32);
  w.put_u32(static_cast<std::uint32_t>(versions_.size()));
  w.put_string(protocol);
  encode_params(w, params);
  rbcast_.call([this, bytes = w.take_payload()](RbcastApi& rbcast) mutable {
    rbcast.rbcast(announce_channel_, std::move(bytes));
  });
}

void ReplConsensusModule::on_announce(NodeId from, const Payload& data) {
  (void)from;
  try {
    BufReader r(data);
    const std::uint32_t version = r.get_u32();
    std::string protocol = r.get_string();
    ModuleParams params = decode_params(r);
    r.expect_done();
    create_version(version, protocol, params);
  } catch (const CodecError& e) {
    DPU_LOG(kWarn, "repl-cons") << "s" << env().node_id()
                                << " malformed announce: " << e.what();
  }
}

void ReplConsensusModule::create_version(std::uint32_t version,
                                         const std::string& protocol,
                                         const ModuleParams& params) {
  if (version < versions_.size()) return;  // duplicate announcement
  if (version > versions_.size()) {
    // Single-switch-at-a-time discipline violated upstream; refuse rather
    // than create a gap.
    DPU_LOG(kError, "repl-cons") << "s" << env().node_id()
                                 << " out-of-order version " << version;
    return;
  }
  const std::string service =
      config_.inner_prefix + "#" + std::to_string(version);
  ModuleParams create_params = params;
  create_params.set("instance",
                    protocol + "@cons#" + std::to_string(version));
  Module* m = stack().create_module(protocol, service, create_params);
  auto* api = dynamic_cast<ConsensusApi*>(m);
  assert(api != nullptr);
  versions_.push_back(VersionInfo{protocol, api});
  if (version > 0) {
    // Version 0 is the initial composition, not a switch.  Creation of the
    // new inner module is the per-stack completion point (streams migrate
    // lazily at their next decided instance, but from here on this stack
    // routes fresh proposals through the new protocol).
    stack().trace(TraceKind::kCustom, config_.facade_service, instance_name(),
                  std::string(kTraceVersionCreated) + ":" + protocol + ":v=" +
                      std::to_string(version));
    if (manager_ != nullptr) {
      manager_->notify_update_complete(*this, protocol, version);
    }
  }
  DPU_LOG(kInfo, "repl-cons") << "s" << env().node_id()
                              << " consensus version " << version << " = "
                              << protocol;
  // Route decisions of every known stream from the new module too.
  for (auto& [stream, st] : streams_) {
    if (st.routed) {
      bind_stream_on_version(stream,
                             static_cast<std::uint32_t>(versions_.size() - 1));
    }
  }
  (void)version;
}

// ---------------------------------------------------------------------------
// Facade ConsensusApi
// ---------------------------------------------------------------------------

void ReplConsensusModule::consensus_bind_stream(StreamId stream,
                                                DecisionHandler handler) {
  StreamState& st = streams_[stream];
  st.handler = std::move(handler);
  st.handler_bound = true;
  if (!st.routed) {
    st.routed = true;
    for (std::uint32_t v = 0; v < versions_.size(); ++v) {
      bind_stream_on_version(stream, v);
    }
  }
  // Release deliveries that raced ahead of the handler.
  auto queued = std::move(st.pending_out);
  st.pending_out.clear();
  for (auto& [instance, value] : queued) {
    ++decisions_delivered_;
    st.handler(instance, value);
  }
}

void ReplConsensusModule::consensus_release_stream(StreamId stream) {
  auto it = streams_.find(stream);
  if (it == streams_.end()) return;
  it->second.handler = nullptr;
  it->second.handler_bound = false;
}

void ReplConsensusModule::consensus_sync(StreamId stream,
                                         InstanceId from_instance) {
  for (VersionInfo& v : versions_) {
    if (v.api != nullptr) v.api->consensus_sync(stream, from_instance);
  }
}

void ReplConsensusModule::bind_stream_on_version(StreamId stream,
                                                 std::uint32_t version) {
  versions_[version].api->consensus_bind_stream(
      stream, [this, version, stream](InstanceId instance, const Bytes& v) {
        on_inner_decision(version, stream, instance, v);
      });
}

void ReplConsensusModule::propose(StreamId stream, InstanceId instance,
                                  const Bytes& value) {
  StreamState& st = streams_[stream];
  if (!st.routed) {
    // Propose-before-bind client: route decisions now, buffer deliveries.
    st.routed = true;
    for (std::uint32_t v = 0; v < versions_.size(); ++v) {
      bind_stream_on_version(stream, v);
    }
  }
  st.outstanding[instance] = value;
  submit(stream, instance, st);
}

void ReplConsensusModule::submit(StreamId stream, InstanceId instance,
                                 StreamState& st) {
  const Bytes& value = st.outstanding[instance];
  Bytes wrapped;
  if (st.auth + 1 < versions_.size()) {
    // A newer version exists: vote to migrate this stream.
    const std::uint32_t target = st.auth + 1;
    wrapped = Wrapped::encode_vote(target, versions_[target].protocol,
                                   ModuleParams(), value);
  } else {
    wrapped = Wrapped::encode_plain(value);
  }
  versions_[st.auth].api->propose(stream, instance, wrapped);
}

// ---------------------------------------------------------------------------
// Decision routing
// ---------------------------------------------------------------------------

void ReplConsensusModule::on_inner_decision(std::uint32_t version,
                                            StreamId stream,
                                            InstanceId instance,
                                            const Bytes& wrapped) {
  StreamState& st = streams_[stream];
  st.decisions[{version, instance}] = wrapped;
  process_stream(stream, st);
}

void ReplConsensusModule::process_stream(StreamId stream, StreamState& st) {
  for (;;) {
    auto it = st.decisions.find({st.auth, st.next_process});
    if (it == st.decisions.end()) return;
    Wrapped w;
    try {
      w = Wrapped::decode(it->second);
    } catch (const CodecError& e) {
      DPU_LOG(kError, "repl-cons") << "s" << env().node_id()
                                   << " malformed wrapper: " << e.what();
      return;
    }
    st.decisions.erase(it);
    const InstanceId instance = st.next_process;
    ++st.next_process;
    st.outstanding.erase(instance);
    deliver(stream, st, instance, w.client_value);

    if (w.has_vote && w.target_version == st.auth + 1) {
      // Boundary crossed: migrate the stream to the next version, creating
      // it on demand (the announcement may not have arrived here yet).
      if (w.target_version >= versions_.size()) {
        create_version(w.target_version, w.protocol, w.params);
      }
      if (w.target_version < versions_.size()) {
        st.auth = w.target_version;
        // Re-route proposals that were submitted to the wrong side.
        for (const auto& [k, value] : st.outstanding) {
          (void)value;
          submit(stream, k, st);
        }
      }
    }
  }
}

void ReplConsensusModule::deliver(StreamId stream, StreamState& st,
                                  InstanceId instance,
                                  const Bytes& client_value) {
  (void)stream;
  if (!st.handler_bound) {
    st.pending_out.emplace_back(instance, client_value);
    return;
  }
  ++decisions_delivered_;
  st.handler(instance, client_value);
}

}  // namespace dpu

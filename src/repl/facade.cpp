#include "repl/facade.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/log.hpp"

namespace dpu {

void encode_module_params(BufWriter& w, const ModuleParams& params) {
  w.put_varint(params.entries().size());
  for (const auto& [key, value] : params.entries()) {
    w.put_string(key);
    w.put_string(value);
  }
}

ModuleParams decode_module_params(BufReader& r) {
  ModuleParams params;
  const std::uint64_t n = r.get_varint();
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string key = r.get_string();
    params.set(key, r.get_string());
  }
  return params;
}

// ---------------------------------------------------------------------------
// ReplacementFacadeBase
// ---------------------------------------------------------------------------

ReplacementFacadeBase::ReplacementFacadeBase(Stack& stack,
                                             std::string instance_name,
                                             FacadeConfig config)
    : Module(stack, std::move(instance_name)), fcfg_(std::move(config)) {}

std::string ReplacementFacadeBase::inner_service_name(std::uint64_t sn) const {
  if (!fcfg_.versioned_inner) return fcfg_.inner_service;
  return fcfg_.inner_service + "#" + std::to_string(sn);
}

std::string ReplacementFacadeBase::versioned_instance(
    const std::string& protocol, std::uint64_t sn) const {
  return protocol + "@" + fcfg_.inner_service + "#" + std::to_string(sn);
}

void ReplacementFacadeBase::facade_start() {
  next_local_ = incarnation_seq_base(env().incarnation()) + 1;
  manager_ = UpdateManagerModule::of(stack());
  if (manager_ != nullptr) manager_->register_mechanism(this);

  if (fcfg_.state_sync != FacadeConfig::StateSync::kNone) {
    rp2p_ = stack().require<Rp2pApi>(kRp2pService);
    fd_ = stack().require<FdApi>(kFdService);
    state_channel_ = fnv1a64(instance_name() + "/state");
    rp2p_.call([this](Rp2pApi& api) {
      api.rp2p_bind_channel(state_channel_,
                            [this](NodeId src, const Payload& data) {
                              on_state_datagram(src, data);
                            });
    });
    state_channel_bound_ = true;
    if (env().incarnation() > 0 && env().world_size() > 1) {
      // Recovering or late-joining: do not re-install version 0 — ask a
      // peer for the facade's state (version metadata, and in kLog mode the
      // delivered history) and enter at the refresh switch it coordinates.
      syncing_ = true;
      sync_timer_ = std::make_unique<TimerSlot>(env());
      send_state_request(/*rotate=*/false);
      return;
    }
  }

  // Install the initial protocol (seqNumber 0).
  cur_protocol_ = fcfg_.initial_protocol;
  cur_params_ = fcfg_.initial_params;
  ModuleParams params = fcfg_.initial_params;
  params.set("instance", versioned_instance(cur_protocol_, seq_number_));
  cur_module_ =
      stack().create_module(cur_protocol_, inner_service_name(), params);
  on_inner_installed(cur_module_, seq_number_);
}

void ReplacementFacadeBase::facade_stop() {
  if (manager_ != nullptr) manager_->unregister_mechanism(this);
  retire_timers_.clear();
  if (sync_timer_ != nullptr) sync_timer_->cancel();
  if (state_channel_bound_) {
    state_channel_bound_ = false;
    // try_get, not call: during teardown the transport may already be gone,
    // and a queued release would trip the weak well-formedness check.
    if (Rp2pApi* api = rp2p_.try_get()) {
      api->rp2p_release_channel(state_channel_);
    }
  }
}

void ReplacementFacadeBase::on_inner_installed(Module* /*created*/,
                                               std::uint64_t /*sn*/) {}

void ReplacementFacadeBase::on_inner_retired(Module* /*retired*/) {}

// ---------------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------------

Payload ReplacementFacadeBase::wrap_data(std::uint64_t sn, const MsgId& id,
                                         const Payload& payload) {
  BufWriter w(payload.size() + 24);
  w.put_u8(kNil);
  w.put_varint(sn);
  id.encode(w);
  w.put_blob(payload);
  return w.take_payload();
}

Payload ReplacementFacadeBase::wrap_change(const std::string& protocol,
                                           const ModuleParams& params) const {
  BufWriter w(protocol.size() + 32);
  w.put_u8(kNewProtocol);
  w.put_varint(seq_number_);
  w.put_string(protocol);
  encode_module_params(w, params);
  return w.take_payload();
}

namespace {

ReplacementFacadeBase::Unwrapped unwrap_reader(
    BufReader& r, std::uint8_t raw_tag) {
  using Base = ReplacementFacadeBase;
  Base::Unwrapped out;
  const auto tag = static_cast<Base::Tag>(raw_tag);
  out.sn = r.get_varint();
  if (tag == Base::kNewProtocol) {
    out.tag = Base::kNewProtocol;
    out.protocol = r.get_string();
    out.params = decode_module_params(r);
    r.expect_done();
    return out;
  }
  if (tag == Base::kNewProtocolSync) {
    out.tag = Base::kNewProtocolSync;
    out.protocol = r.get_string();
    out.params = decode_module_params(r);
    out.responder = r.get_u32();
    const std::uint64_t n = r.get_varint();
    for (std::uint64_t i = 0; i < n; ++i) {
      const NodeId node = r.get_u32();
      out.sync_epochs.emplace_back(node, r.get_varint());
    }
    r.expect_done();
    return out;
  }
  if (tag != Base::kNil) throw CodecError("unknown repl tag");
  out.tag = Base::kNil;
  out.id = MsgId::decode(r);
  out.payload = r.get_blob();
  r.expect_done();
  return out;
}

}  // namespace

ReplacementFacadeBase::Unwrapped ReplacementFacadeBase::unwrap(
    const Bytes& wire) {
  BufReader r(wire);
  return unwrap_reader(r, r.get_u8());
}

ReplacementFacadeBase::Unwrapped ReplacementFacadeBase::unwrap(
    const Payload& wire) {
  BufReader r(wire);
  return unwrap_reader(r, r.get_u8());
}

ReplacementFacadeBase::UnwrappedData ReplacementFacadeBase::unwrap_data(
    const Payload& wire) {
  BufReader r(wire);
  if (static_cast<Tag>(r.get_u8()) != kNil) {
    throw CodecError("expected a data wrapper");
  }
  UnwrappedData out;
  out.sn = r.get_varint();
  out.id = MsgId::decode(r);
  out.payload = r.get_blob_payload();  // zero-copy slice of the wire buffer
  r.expect_done();
  return out;
}

// ---------------------------------------------------------------------------
// Algorithm 1 operations
// ---------------------------------------------------------------------------

void ReplacementFacadeBase::track_undelivered(const MsgId& id, Payload payload,
                                              std::uint64_t ctx) {
  undelivered_.emplace(id, UndeliveredEntry{std::move(payload), ctx});
}

bool ReplacementFacadeBase::settle_undelivered(const MsgId& id) {
  return undelivered_.erase(id) != 0;
}

void ReplacementFacadeBase::request_change(const std::string& protocol,
                                           const ModuleParams& params) {
  if (stack().library() == nullptr ||
      stack().library()->find(protocol) == nullptr) {
    throw std::logic_error("request_change: unknown protocol '" + protocol +
                           "'");
  }
  stack().trace(TraceKind::kCustom, fcfg_.facade_service, instance_name(),
                std::string(change_requested_marker()) + ":" + protocol);
  if (syncing_) {
    // No version to send under yet: hold the change until the snapshot
    // finalizes (it is re-wrapped with the synced version number there).
    deferred_changes_.emplace_back(protocol, params);
    return;
  }
  send_inner_change(wrap_change(protocol, params));  // line 6
}

void ReplacementFacadeBase::perform_switch(const std::string& protocol,
                                           const ModuleParams& params) {
  perform_switch_impl(protocol, params, nullptr);
}

void ReplacementFacadeBase::perform_switch_from(const Unwrapped& u) {
  if (u.tag == kNewProtocolSync) {
    if (u.sn != seq_number_) {
      // Stale refresh: another switch was ordered between this refresh's
      // launch and its delivery.  A change sent through an instance that is
      // no longer current may ride a channel a recovered stack never bound
      // (it entered at a later version), so performing it would fork the
      // instance sequence between old members and the recovered stack.  The
      // change order is the same on every stack that delivers it, so they
      // all sit at the same seq_number_ here and the drop is uniform.  Any
      // requester this refresh was launched for is either already served
      // (it cancels on finalize) or still retrying; the responder relaunches
      // under the current version for those still waiting.
      ++stale_syncs_dropped_;
      DPU_LOG(kInfo, "repl") << "s" << env().node_id()
                             << " dropping stale refresh switch (its sn "
                             << u.sn << " != " << seq_number_ << ")";
      if (u.responder == env().node_id()) {
        // Requesters in the dropped batch were never served: requeue them
        // (dedup by node, keeping the highest epoch) and relaunch once.
        refresh_inflight_ = false;
        for (StateRequest& req : inflight_requests_) {
          bool found = false;
          for (StateRequest& p : pending_requests_) {
            if (p.node == req.node) {
              p.epoch = std::max(p.epoch, req.epoch);
              found = true;
            }
          }
          if (!found) pending_requests_.push_back(req);
        }
        inflight_requests_.clear();
        launch_refresh_switch();
      }
      return;
    }
    perform_switch_impl(u.protocol, u.params, &u);
  } else {
    perform_switch_impl(u.protocol, u.params, nullptr);
  }
}

void ReplacementFacadeBase::perform_switch_impl(const std::string& protocol,
                                                const ModuleParams& params,
                                                const Unwrapped* sync) {
  const bool refresh = sync != nullptr;

  // Epoch barrier (refresh switches): note the requesters' incarnation
  // epochs to rp2p at this stack's switch point, so everything sent to the
  // recovered stacks from here on rides their new epochs — including the
  // new inner instance's traffic, which rp2p buffers for them until they
  // bind it.
  if (refresh && rp2p_.valid()) {
    for (const auto& [node, epoch] : sync->sync_epochs) {
      if (node == env().node_id()) continue;
      rp2p_.call([node = node, epoch = epoch](Rp2pApi& api) {
        api.rp2p_note_peer_epoch(node, epoch);
      });
    }
  }

  // Snapshot cut: the log as of *before* the switch.  Creating the new
  // inner module below synchronously flushes rp2p's pending buffers for its
  // channels, so deliveries may append to the log mid-switch; those are
  // post-cut history a requester receives through the new instance itself.
  const std::size_t cut = replay_log_.size();

  ++seq_number_;  // line 11
  DPU_LOG(kInfo, "repl") << "s" << env().node_id() << " switching "
                         << fcfg_.inner_service << " to " << protocol
                         << " (sn=" << seq_number_
                         << (refresh ? ", refresh)" : ")");

  // Line 12: unbind(cur).  The module stays in the stack and may still
  // deliver (stale) responses.  Versioned inner slots skip the unbind: each
  // version owns its own slot, and the old version's clients — none — would
  // be the only reason to clear it.
  Module* old_module = cur_module_;
  if (!fcfg_.versioned_inner) stack().unbind(fcfg_.inner_service);

  // Lines 13-14: create_module(prot); bind.  Stack::create_module implements
  // lines 22-28 (recursive creation of providers for required services); the
  // factory binds the module to the inner service.
  ModuleParams create_params = params;
  create_params.set("instance", versioned_instance(protocol, seq_number_));
  cur_module_ =
      stack().create_module(protocol, inner_service_name(), create_params);
  cur_protocol_ = protocol;
  cur_params_ = params;
  on_inner_installed(cur_module_, seq_number_);

  if (fcfg_.state_sync == FacadeConfig::StateSync::kLog) {
    LogEntry sw;
    sw.kind = kLogSwitch;
    sw.sn = seq_number_;
    sw.protocol = protocol;
    push_log(std::move(sw));
  }

  // Lines 15-16: re-issue all undelivered messages through the new protocol.
  for (const auto& [id, entry] : undelivered_) {
    ++reissued_total_;
    send_inner_data(wrap_data(seq_number_, id, entry.payload), entry.ctx);
  }

  if (!refresh) {
    ++switches_completed_;
    stack().trace(TraceKind::kCustom, fcfg_.facade_service, instance_name(),
                  std::string(switch_done_marker()) + ":" + protocol + ":sn=" +
                      std::to_string(seq_number_));
    if (manager_ != nullptr) {
      manager_->notify_update_complete(*this, protocol, seq_number_);
    }
  } else {
    // A refresh switch is bookkeeping, not an update: no done-marker, no
    // update outcome (benches and the scenario engine must not count it).
    ++refresh_switches_;
    if (sync->responder == env().node_id()) {
      for (const auto& req : inflight_requests_) {
        send_snapshot(req.node, cut);
      }
      inflight_requests_.clear();
      refresh_inflight_ = false;
      launch_refresh_switch();  // more requests may have queued meanwhile
    }
  }

  // Optional extension: retire the old module once the switch has settled.
  if (old_module != nullptr && fcfg_.retire_after > 0) {
    auto timer = std::make_unique<TimerSlot>(env());
    timer->schedule(fcfg_.retire_after, [this, old_module]() {
      on_inner_retired(old_module);
      stack().destroy_module(old_module);
    });
    retire_timers_.push_back(std::move(timer));
  }
}

// ---------------------------------------------------------------------------
// State transfer (recovery / late join)
// ---------------------------------------------------------------------------

void ReplacementFacadeBase::replay_delivered(
    std::span<const LogEntry> /*run*/) {}

void ReplacementFacadeBase::on_state_sync_complete() {}

void ReplacementFacadeBase::push_log(LogEntry e) {
  if (fcfg_.state_sync != FacadeConfig::StateSync::kLog) return;
  replay_log_.push_back(std::move(e));
  while (replay_log_.size() > fcfg_.replay_log_cap) {
    replay_log_.pop_front();
    ++log_trimmed_;
  }
}

void ReplacementFacadeBase::log_delivered(const MsgId& id,
                                          const Payload& payload) {
  if (fcfg_.state_sync != FacadeConfig::StateSync::kLog) return;
  LogEntry e;
  e.kind = kLogData;
  e.id = id;
  e.payload = payload;
  push_log(std::move(e));
}

NodeId ReplacementFacadeBase::pick_responder() const {
  const auto world = static_cast<NodeId>(env().world_size());
  const NodeId self = env().node_id();
  const FdApi* fd = fd_.try_get();
  std::vector<NodeId> candidates;
  for (NodeId n = 0; n < world; ++n) {
    if (n == self) continue;
    if (fd != nullptr && fd->fd_suspects(n)) continue;
    candidates.push_back(n);
  }
  if (candidates.empty()) {
    // Everyone suspected (or no detector yet): try all peers round-robin.
    for (NodeId n = 0; n < world; ++n) {
      if (n != self) candidates.push_back(n);
    }
  }
  if (candidates.empty()) return kNoNode;
  return candidates[sync_attempt_ % candidates.size()];
}

void ReplacementFacadeBase::send_state_request(bool rotate) {
  if (!syncing_) return;
  if (rotate) {
    // A transfer that made progress since the last tick is slow, not dead:
    // keep collecting instead of discarding a half-received snapshot.
    if (sync_header_seen_ && sync_entries_.size() > sync_progress_mark_) {
      sync_progress_mark_ = sync_entries_.size();
      sync_timer_->schedule(fcfg_.sync_retry,
                            [this]() { send_state_request(/*rotate=*/true); });
      return;
    }
    ++sync_attempt_;
    ++sync_retries_;
  }
  // Drop any partial snapshot from the previous responder.
  sync_header_seen_ = false;
  sync_source_ = kNoNode;
  sync_progress_mark_ = 0;
  sync_entries_.clear();
  sync_responder_ = pick_responder();
  if (sync_responder_ != kNoNode) {
    BufWriter w(8);
    w.put_u8(kStateRequest);
    w.put_varint(env().incarnation());
    rp2p_.call([this, p = w.take_payload()](Rp2pApi& api) mutable {
      api.rp2p_send(sync_responder_, state_channel_, std::move(p));
    });
  }
  sync_timer_->schedule(fcfg_.sync_retry,
                        [this]() { send_state_request(/*rotate=*/true); });
}

void ReplacementFacadeBase::on_state_datagram(NodeId src, const Payload& wire) {
  BufReader r(wire);
  switch (static_cast<StateTag>(r.get_u8())) {
    case kStateRequest: {
      const std::uint64_t epoch = r.get_varint();
      r.expect_done();
      handle_state_request(src, epoch);
      break;
    }
    case kStateDecline:
      r.expect_done();
      // The responder cannot serve (it is syncing itself): rotate now
      // instead of waiting out the retry timer.
      if (syncing_ && src == sync_responder_) {
        send_state_request(/*rotate=*/true);
      }
      break;
    case kStateHeader:
      handle_state_header(src, r);
      break;
    case kStateChunk:
      handle_state_chunk(src, r);
      break;
    case kStateCancel: {
      const std::uint64_t epoch = r.get_varint();
      r.expect_done();
      handle_state_cancel(src, epoch);
      break;
    }
    default:
      throw CodecError("unknown state-channel tag");
  }
}

void ReplacementFacadeBase::handle_state_request(NodeId src,
                                                 std::uint64_t epoch) {
  if (syncing_) {
    BufWriter w(2);
    w.put_u8(kStateDecline);
    rp2p_.call([this, src, p = w.take_payload()](Rp2pApi& api) mutable {
      api.rp2p_send(src, state_channel_, std::move(p));
    });
    return;
  }
  // Dedup by node, keeping the highest epoch: a re-request after losing a
  // responder supersedes the stale entry.
  bool found = false;
  for (StateRequest& req : pending_requests_) {
    if (req.node == src) {
      req.epoch = std::max(req.epoch, epoch);
      found = true;
    }
  }
  if (!found) pending_requests_.push_back(StateRequest{src, epoch});
  launch_refresh_switch();
}

void ReplacementFacadeBase::handle_state_cancel(NodeId src,
                                                std::uint64_t epoch) {
  // The requester finalized from someone's snapshot: drop its outstanding
  // requests so they spawn no further refresh switches.  rp2p's per-sender
  // FIFO orders the cancel after every request the requester sent before
  // finalizing; a *later* epoch (it crashed and recovered again) is a new
  // request cycle and survives the purge.
  const auto purge = [&](std::vector<StateRequest>& reqs) {
    std::erase_if(reqs, [&](const StateRequest& req) {
      return req.node == src && req.epoch <= epoch;
    });
  };
  purge(pending_requests_);
  purge(inflight_requests_);
}

void ReplacementFacadeBase::launch_refresh_switch() {
  if (refresh_inflight_ || pending_requests_.empty()) return;
  refresh_inflight_ = true;
  inflight_requests_ = std::move(pending_requests_);
  pending_requests_.clear();
  // Coordinate the refresh through the replaced service, like any change
  // (Algorithm 1 line 6): the delivery point is the cut every stack
  // snapshots and epoch-notes at.
  send_inner_change(wrap_change_sync());
}

Payload ReplacementFacadeBase::wrap_change_sync() const {
  BufWriter w(cur_protocol_.size() + 48);
  w.put_u8(kNewProtocolSync);
  w.put_varint(seq_number_);
  w.put_string(cur_protocol_);
  encode_module_params(w, cur_params_);
  w.put_u32(env().node_id());
  w.put_varint(inflight_requests_.size());
  for (const StateRequest& req : inflight_requests_) {
    w.put_u32(req.node);
    w.put_varint(req.epoch);
  }
  return w.take_payload();
}

void ReplacementFacadeBase::encode_log_entry(BufWriter& w, const LogEntry& e) {
  w.put_u8(e.kind);
  if (e.kind == kLogData) {
    e.id.encode(w);
    w.put_blob(e.payload);
  } else {
    w.put_varint(e.sn);
    w.put_string(e.protocol);
  }
}

ReplacementFacadeBase::LogEntry ReplacementFacadeBase::decode_log_entry(
    BufReader& r) {
  LogEntry e;
  e.kind = r.get_u8();
  if (e.kind == kLogData) {
    e.id = MsgId::decode(r);
    e.payload = r.get_blob_payload();
  } else if (e.kind == kLogSwitch) {
    e.sn = r.get_varint();
    e.protocol = r.get_string();
  } else {
    throw CodecError("unknown replay-log entry kind");
  }
  return e;
}

void ReplacementFacadeBase::send_snapshot(NodeId dst, std::size_t cut) {
  ++snapshots_served_;
  const std::size_t count =
      fcfg_.state_sync == FacadeConfig::StateSync::kLog ? cut : 0;
  {
    BufWriter w(cur_protocol_.size() + 64);
    w.put_u8(kStateHeader);
    w.put_varint(seq_number_);
    w.put_string(cur_protocol_);
    encode_module_params(w, cur_params_);
    w.put_varint(count);
    w.put_varint(log_trimmed_);
    rp2p_.call([this, dst, p = w.take_payload()](Rp2pApi& api) mutable {
      api.rp2p_send(dst, state_channel_, std::move(p));
    });
  }
  // Entries ride in ~16 KB chunks (the rt engine's UDP transport caps
  // datagrams well under 64 KB); rp2p's per-sender FIFO keeps header and
  // chunks in order.
  constexpr std::size_t kChunkBytes = 16 * 1024;
  std::size_t i = 0;
  while (i < count) {
    std::size_t n = 0;
    std::size_t bytes = 0;
    while (i + n < count && (n == 0 || bytes < kChunkBytes)) {
      const LogEntry& e = replay_log_[i + n];
      bytes += 16 + (e.kind == kLogData ? e.payload.size() : e.protocol.size());
      ++n;
    }
    BufWriter w(bytes + 16);
    w.put_u8(kStateChunk);
    w.put_varint(n);
    for (std::size_t k = 0; k < n; ++k) {
      encode_log_entry(w, replay_log_[i + k]);
    }
    i += n;
    rp2p_.call([this, dst, p = w.take_payload()](Rp2pApi& api) mutable {
      api.rp2p_send(dst, state_channel_, std::move(p));
    });
  }
}

void ReplacementFacadeBase::handle_state_header(NodeId src, BufReader& r) {
  // Accept from ANY peer we asked, not only the latest: a retry may have
  // rotated past a responder whose refresh switch was merely slow to order,
  // and its snapshot is the *earliest* refresh launched for us — entering
  // there means this stack creates every inner instance the group binds
  // from that point on (the operationability contract).  Later snapshots
  // arriving after the finalize are ignored (`syncing_` is false by then).
  if (!syncing_) return;
  if (sync_header_seen_ && src != sync_source_) return;  // mid-transfer
  sync_source_ = src;
  sync_sn_ = r.get_varint();
  sync_protocol_ = r.get_string();
  sync_params_ = decode_module_params(r);
  sync_expected_ = r.get_varint();
  sync_trimmed_ = r.get_varint();
  r.expect_done();
  sync_header_seen_ = true;
  sync_entries_.clear();
  if (sync_entries_.size() >= sync_expected_) finalize_state_sync();
}

void ReplacementFacadeBase::handle_state_chunk(NodeId src, BufReader& r) {
  if (!syncing_ || !sync_header_seen_ || src != sync_source_) return;
  const std::uint64_t n = r.get_varint();
  for (std::uint64_t i = 0; i < n; ++i) {
    sync_entries_.push_back(decode_log_entry(r));
  }
  r.expect_done();
  if (sync_entries_.size() >= sync_expected_) finalize_state_sync();
}

void ReplacementFacadeBase::finalize_state_sync() {
  syncing_ = false;
  sync_timer_->cancel();

  // Tell every peer (rotation may have spread requests across several) that
  // this sync is over, so requests still queued or inflight there stop
  // spawning refresh switches on our behalf.
  for (NodeId n = 0; n < static_cast<NodeId>(env().world_size()); ++n) {
    if (n == env().node_id()) continue;
    BufWriter w(8);
    w.put_u8(kStateCancel);
    w.put_varint(env().incarnation());
    rp2p_.call([this, n, p = w.take_payload()](Rp2pApi& api) mutable {
      api.rp2p_send(n, state_channel_, std::move(p));
    });
  }

  seq_number_ = sync_sn_;
  cur_protocol_ = sync_protocol_;
  cur_params_ = sync_params_;
  log_trimmed_ = sync_trimmed_;

  // Re-deliver the snapshot history locally (the kLog audit contract: a
  // recovered stack's delivery sequence restarts from the beginning of
  // history) and seed the replay log with it, so this stack can serve later
  // requesters with the same full history.
  // Each maximal run of data entries between switch entries replays in one
  // call.
  const std::span<const LogEntry> entries(sync_entries_);
  std::size_t run_start = 0;
  for (std::size_t i = 0; i <= entries.size(); ++i) {
    if (i < entries.size() && entries[i].kind == kLogData) continue;
    if (i > run_start) {
      replayed_from_snapshot_ += i - run_start;
      replay_delivered(entries.subspan(run_start, i - run_start));
    }
    run_start = i + 1;
  }
  for (LogEntry& e : sync_entries_) push_log(std::move(e));
  sync_entries_.clear();
  sync_entries_.shrink_to_fit();
  if (fcfg_.state_sync == FacadeConfig::StateSync::kLog) {
    // The refresh switch every peer performed, in log form.
    LogEntry sw;
    sw.kind = kLogSwitch;
    sw.sn = seq_number_;
    sw.protocol = cur_protocol_;
    push_log(std::move(sw));
  }

  DPU_LOG(kInfo, "repl") << "s" << env().node_id() << " state sync of "
                         << fcfg_.facade_service << " done: sn=" << seq_number_
                         << " protocol=" << cur_protocol_
                         << " replayed=" << replayed_from_snapshot_;

  // Install the synced version's inner instance.  rp2p buffered its channel
  // traffic for us since the refresh switch; binding flushes it, so the
  // live tail follows the replay seamlessly.
  ModuleParams create_params = cur_params_;
  create_params.set("instance", versioned_instance(cur_protocol_, seq_number_));
  cur_module_ = stack().create_module(cur_protocol_, inner_service_name(),
                                      create_params);
  on_inner_installed(cur_module_, seq_number_);

  on_state_sync_complete();

  // Reissue everything the application handed us while we were syncing
  // (tracked, never transmitted — there was no version to send under).
  for (const auto& [id, entry] : undelivered_) {
    ++reissued_total_;
    send_inner_data(wrap_data(seq_number_, id, entry.payload), entry.ctx);
  }

  stack().trace(TraceKind::kCustom, fcfg_.facade_service, instance_name(),
                std::string(kTraceStateSyncDone) + ":" + cur_protocol_ +
                    ":sn=" + std::to_string(seq_number_) +
                    ":replayed=" + std::to_string(replayed_from_snapshot_));

  // Installing the synced version IS this stack's completion of whatever
  // update produced it: emit the same done-marker/manager notification as
  // a locally performed switch, so a pre-crash update's convergence window
  // stretches to cover the recovery (completions with no matching request
  // — a plain refresh — are dropped by the outcome extractor).
  stack().trace(TraceKind::kCustom, fcfg_.facade_service, instance_name(),
                std::string(switch_done_marker()) + ":" + cur_protocol_ +
                    ":sn=" + std::to_string(seq_number_));
  if (manager_ != nullptr) {
    manager_->notify_update_complete(*this, cur_protocol_, seq_number_);
  }

  // Changes requested while syncing, re-wrapped under the synced version.
  auto deferred = std::move(deferred_changes_);
  deferred_changes_.clear();
  for (const auto& [protocol, params] : deferred) {
    send_inner_change(wrap_change(protocol, params));
  }
}

}  // namespace dpu

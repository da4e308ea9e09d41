#include "consensus/consensus.hpp"

#include "util/log.hpp"

namespace dpu {

namespace {

/// Sync-channel message types.  Decisions resent point-to-point reuse the
/// decide-record layout after the tag byte.
enum SyncMsg : std::uint8_t { kSyncRequest = 0, kSyncDecide = 1 };

}  // namespace

ConsensusBase::ConsensusBase(Stack& stack, std::string instance_name)
    : Module(stack, std::move(instance_name)),
      rp2p_(stack.require<Rp2pApi>(kRp2pService)),
      rbcast_(stack.require<RbcastApi>(kRbcastService)),
      fd_(stack.require<FdApi>(kFdService)),
      peer_channel_(fnv1a64(Module::instance_name() + "/msg")),
      decide_channel_(fnv1a64(Module::instance_name() + "/dec")),
      sync_channel_(fnv1a64(Module::instance_name() + "/sync")),
      sync_retry_timer_(stack.host()) {}

void ConsensusBase::start() {
  rp2p_.call([this](Rp2pApi& rp2p) {
    rp2p.rp2p_bind_channel(peer_channel_,
                           [this](NodeId from, const Payload& data) {
                             on_peer_message(from, data);
                           });
    rp2p.rp2p_bind_channel(sync_channel_,
                           [this](NodeId from, const Payload& data) {
                             on_sync_message(from, data);
                           });
  });
  rbcast_.call([this](RbcastApi& rbcast) {
    rbcast.rbcast_bind_channel(decide_channel_,
                               [this](NodeId origin, const Payload& data) {
                                 on_decide_message(origin, data);
                               });
  });
}

void ConsensusBase::stop() {
  rp2p_.call([this](Rp2pApi& rp2p) {
    rp2p.rp2p_release_channel(peer_channel_);
    rp2p.rp2p_release_channel(sync_channel_);
  });
  rbcast_.call(
      [this](RbcastApi& rbcast) { rbcast.rbcast_release_channel(decide_channel_); });
  streams_.clear();
  pending_decisions_.clear();
  pending_syncs_.clear();
  sync_retry_timer_.cancel();
}

void ConsensusBase::propose(StreamId stream, InstanceId instance,
                            const Bytes& value) {
  const Key key{stream, instance};
  auto it = decided_.find(key);
  if (it != decided_.end()) {
    // Late proposal for a settled instance: the proposer already received
    // (or will receive) the decision via the decide channel; nothing to do.
    return;
  }
  algo_propose(key, value);
}

void ConsensusBase::consensus_bind_stream(StreamId stream,
                                          DecisionHandler handler) {
  streams_[stream] = std::move(handler);
  auto it = pending_decisions_.find(stream);
  if (it == pending_decisions_.end()) return;
  auto queued = std::move(it->second);
  pending_decisions_.erase(it);
  for (auto& [instance, value] : queued) {
    ++decisions_delivered_;
    streams_[stream](instance, value);
  }
}

void ConsensusBase::consensus_release_stream(StreamId stream) {
  streams_.erase(stream);
}

void ConsensusBase::consensus_sync(StreamId stream,
                                   InstanceId from_instance) {
  // One targeted request, not a broadcast: every peer holds the same
  // decided history (uniform agreement), so asking all of them would just
  // deliver world_size-1 identical copies of the full decision log.  But a
  // single request can die with its target (the trusted peer may crash
  // before responding), so the request stays pending and rotates to the
  // next trusted peer on a timer until any decision of the stream arrives.
  auto [it, inserted] =
      pending_syncs_.try_emplace(stream, SyncPending{from_instance, 0});
  if (!inserted) {
    it->second.from_instance =
        std::min(it->second.from_instance, from_instance);
  }
  send_sync_request(stream, it->second);
  if (!sync_retry_timer_.pending()) {
    sync_retry_timer_.schedule(kSyncRetryInterval,
                               [this]() { on_sync_retry_tick(); });
  }
}

NodeId ConsensusBase::pick_sync_target(std::uint32_t attempt) const {
  const FdApi* fd = fd_.try_get();
  const auto world = static_cast<NodeId>(env().world_size());
  std::vector<NodeId> candidates;
  for (NodeId dst = 0; dst < world; ++dst) {
    if (dst == env().node_id()) continue;
    if (fd != nullptr && fd->fd_suspects(dst)) continue;
    candidates.push_back(dst);
  }
  if (candidates.empty()) return kNoNode;  // nobody trusted: retried later
  return candidates[attempt % candidates.size()];
}

void ConsensusBase::send_sync_request(StreamId stream,
                                      const SyncPending& pending) {
  const NodeId target = pick_sync_target(pending.attempt);
  if (target == kNoNode) return;
  BufWriter w(24);
  w.put_u8(kSyncRequest);
  w.put_varint(stream);
  w.put_varint(pending.from_instance);
  rp2p_.call([this, target, wire = w.take_payload()](Rp2pApi& rp2p) mutable {
    rp2p.rp2p_send(target, sync_channel_, std::move(wire));
  });
}

void ConsensusBase::on_sync_retry_tick() {
  const auto world = static_cast<std::uint32_t>(env().world_size());
  const std::uint32_t max_attempts =
      kSyncRetryRounds * (world > 1 ? world - 1 : 1);
  for (auto it = pending_syncs_.begin(); it != pending_syncs_.end();) {
    SyncPending& pending = it->second;
    ++pending.attempt;
    if (pending.attempt >= max_attempts) {
      // Give up: the straggler path (late algorithm messages hitting
      // decided instances at any peer) still covers the gap.
      it = pending_syncs_.erase(it);
      continue;
    }
    ++sync_retries_;
    send_sync_request(it->first, pending);
    ++it;
  }
  if (!pending_syncs_.empty()) {
    sync_retry_timer_.schedule(kSyncRetryInterval,
                               [this]() { on_sync_retry_tick(); });
  }
}

void ConsensusBase::broadcast_decide(const Key& key, const Bytes& value) {
  BufWriter w(value.size() + 24);
  w.put_varint(key.stream);
  w.put_varint(key.instance);
  w.put_blob(value);
  rbcast_.call([this, bytes = w.take_payload()](RbcastApi& rbcast) mutable {
    rbcast.rbcast(decide_channel_, std::move(bytes));
  });
}

void ConsensusBase::send_peer(NodeId dst, Payload data) {
  rp2p_.call([this, dst, data = std::move(data)](Rp2pApi& rp2p) mutable {
    rp2p.rp2p_send(dst, peer_channel_, std::move(data));
  });
}

void ConsensusBase::send_all(Payload data) {
  const auto n = static_cast<NodeId>(env().world_size());
  rp2p_.call([this, n, data = std::move(data)](Rp2pApi& rp2p) {
    for (NodeId dst = 0; dst < n; ++dst) {
      rp2p.rp2p_send(dst, peer_channel_, data);
    }
  });
}

void ConsensusBase::maybe_catch_up_straggler(NodeId from, const Key& key) {
  if (from == env().node_id()) return;
  auto it = max_decided_.find(key.stream);
  // Margin of two: messages about the frontier instance are ordinary racing
  // stragglers of the current round; messages at least two instances behind
  // a decided frontier can only come from a peer that lost the decisions.
  if (it == max_decided_.end() || it->second < key.instance + 2) return;
  // A peer flushing a backlog of late messages gets one resend, not one per
  // message: skip when an earlier resend already covered this instance
  // range up to the current frontier.
  auto [mark, inserted] =
      resent_.try_emplace({from, key.stream},
                          ResendMark{key.instance, it->second});
  if (!inserted) {
    if (mark->second.from <= key.instance &&
        mark->second.through >= it->second) {
      return;
    }
    mark->second.from = std::min(mark->second.from, key.instance);
    mark->second.through = it->second;
  }
  resend_decided(from, key.stream, key.instance);
}

void ConsensusBase::resend_decided(NodeId dst, StreamId stream,
                                   InstanceId from_instance) {
  std::size_t resent = 0;
  for (auto it = decided_.lower_bound(Key{stream, from_instance});
       it != decided_.end() && it->first.stream == stream; ++it) {
    BufWriter w(it->second.size() + 24);
    w.put_u8(kSyncDecide);
    w.put_varint(it->first.stream);
    w.put_varint(it->first.instance);
    w.put_blob(it->second);
    rp2p_.call([this, dst, bytes = w.take_payload()](Rp2pApi& rp2p) mutable {
      rp2p.rp2p_send(dst, sync_channel_, std::move(bytes));
    });
    ++resent;
  }
  if (resent != 0) {
    DPU_LOG(kInfo, "consensus") << "s" << env().node_id() << " resent "
                                << resent << " decision(s) of stream "
                                << stream << " to straggler s" << dst;
  }
}

void ConsensusBase::on_decide_message(NodeId origin, const Payload& data) {
  (void)origin;
  Key key{};
  Bytes value;
  try {
    BufReader r(data);
    key.stream = r.get_varint();
    key.instance = r.get_varint();
    value = r.get_blob();
    r.expect_done();
  } catch (const CodecError& e) {
    DPU_LOG(kWarn, "consensus") << "s" << env().node_id()
                                << " malformed decide: " << e.what();
    return;
  }
  ingest_decide(key, value);
}

void ConsensusBase::on_sync_message(NodeId from, const Payload& data) {
  try {
    BufReader r(data);
    const auto type = static_cast<SyncMsg>(r.get_u8());
    if (type == kSyncRequest) {
      const StreamId stream = r.get_varint();
      const InstanceId from_instance = r.get_varint();
      r.expect_done();
      resend_decided(from, stream, from_instance);
      return;
    }
    if (type != kSyncDecide) throw CodecError("unknown sync message type");
    Key key{};
    key.stream = r.get_varint();
    key.instance = r.get_varint();
    Bytes value = r.get_blob();
    r.expect_done();
    ingest_decide(key, value);
  } catch (const CodecError& e) {
    DPU_LOG(kWarn, "consensus") << "s" << env().node_id()
                                << " malformed sync message from s" << from
                                << ": " << e.what();
  }
}

void ConsensusBase::ingest_decide(const Key& key, const Bytes& value) {
  if (!decided_.emplace(key, value).second) return;  // duplicate decide
  // Progress on the stream answers (or obsoletes) a pending sync request.
  pending_syncs_.erase(key.stream);
  auto [it, inserted] = max_decided_.emplace(key.stream, key.instance);
  if (!inserted && it->second < key.instance) it->second = key.instance;
  algo_on_decided(key);
  deliver_decision(key, value);
}

void ConsensusBase::deliver_decision(const Key& key, const Bytes& value) {
  auto it = streams_.find(key.stream);
  if (it == streams_.end()) {
    pending_decisions_[key.stream].emplace_back(key.instance, value);
    return;
  }
  ++decisions_delivered_;
  it->second(key.instance, value);
}

}  // namespace dpu

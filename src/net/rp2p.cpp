#include "net/rp2p.hpp"

#include "util/log.hpp"

namespace dpu {

Rp2pModule* Rp2pModule::create(Stack& stack, const std::string& service,
                               Config config) {
  auto* m = stack.emplace_module<Rp2pModule>(stack, service, config);
  stack.bind<Rp2pApi>(service, m, m);
  return m;
}

void Rp2pModule::register_protocol(ProtocolLibrary& library, Config config) {
  library.register_protocol(ProtocolInfo{
      .protocol = kProtocolName,
      .default_service = kRp2pService,
      .requires_services = {kUdpService},
      .factory = [config](Stack& stack, const std::string& provide_as,
                          const ModuleParams&) -> Module* {
        return create(stack, provide_as, config);
      }});
}

Rp2pModule::Rp2pModule(Stack& stack, std::string instance_name, Config config)
    : Module(stack, std::move(instance_name)),
      config_(config),
      udp_(stack.require<UdpApi>(kUdpService)),
      fd_(stack.require<FdApi>(kFdService)),
      ack_timer_(stack.host()),
      nack_timer_(stack.host()),
      batch_timer_(stack.host()),
      idle_seal_(stack.host()),
      retransmit_timer_(stack.host()) {}

void Rp2pModule::start() {
  seq_base_ = incarnation_seq_base(env().incarnation());
  out_.resize(env().world_size());
  for (PeerOut& peer : out_) peer.next_seq = seq_base_ + 1;
  in_.resize(env().world_size());
  udp_.call([this](UdpApi& udp) {
    udp.udp_bind_port(kRp2pPort, [this](NodeId src, const Payload& data) {
      on_datagram(src, data);
    });
  });
  on_retransmit_tick();  // arms the periodic retransmission timer
}

void Rp2pModule::stop() {
  // Seal parked batches first (udp is still bound here): a message accepted
  // by rp2p_send must have been transmitted at least once.
  flush_batches();
  retransmit_timer_.cancel();
  ack_timer_.cancel();
  nack_timer_.cancel();
  batch_timer_.cancel();
  idle_seal_.cancel();
  nack_queue_.clear();
  udp_.call([](UdpApi& udp) { udp.udp_release_port(kRp2pPort); });
  channels_.clear();
  pending_channel_.clear();
  ack_queue_.clear();
  for (PeerIn& peer : in_) peer.ack_due = false;
}

void Rp2pModule::rp2p_send(NodeId dst, ChannelId channel, Payload payload) {
  UdpApi* udp = udp_.try_get();
  if (udp == nullptr) {
    // udp momentarily unbound (e.g. a transport replacement window): queue
    // the whole send on the service's blocked-call queue; it re-runs — and
    // then takes the bound fast path — when a provider binds.
    udp_.call([this, dst, channel,
               payload = std::move(payload)](UdpApi&) mutable {
      rp2p_send(dst, channel, std::move(payload));
    });
    return;
  }
  if (dst >= out_.size()) {
    const std::size_t old_size = out_.size();
    out_.resize(dst + 1);
    for (std::size_t i = old_size; i < out_.size(); ++i) {
      out_[i].next_seq = seq_base_ + 1;
    }
  }
  PeerOut& peer = out_[dst];
  ++messages_sent_;
  note_burst(peer);
  // Park the message (no copy — the Payload moves into the batch) and seal
  // when the byte budget fills, at the idle point or at the flush window.
  // The sealed datagram gets the sequence number, so reliability stays
  // per-datagram and a retransmission resends the whole batch once.
  const std::size_t wire = batch_message_wire_size(payload.size());
  if (!peer.pending.empty() &&
      peer.pending_bytes + wire > config_.batch_max_bytes) {
    flush_batch(dst, peer);  // would overflow: seal what is parked first
  }
  peer.pending.push_back(BatchMessage{channel, std::move(payload)});
  peer.pending_bytes += wire;
  if (peer.pending_bytes >= config_.batch_max_bytes ||
      config_.batch_flush_ns <= 0) {
    flush_batch(dst, peer);  // budget full (or an oversized single): go now
  } else {
    note_batch_due(dst, peer);
  }
}

void Rp2pModule::note_burst(PeerOut& peer) {
  if (peer.burst_epoch == idle_epoch_) return;  // same burst
  peer.burst_epoch = idle_epoch_;
  const TimePoint now = env().now();
  if (peer.last_burst >= 0) {
    peer.burst_gap += (now - peer.last_burst - peer.burst_gap) / 8;
  }
  peer.last_burst = now;
}

void Rp2pModule::note_batch_due(NodeId dst, PeerOut& peer) {
  if (!peer.batch_queued) {
    peer.batch_queued = true;
    batch_queue_.push_back(dst);
  }
  if (!batch_timer_.pending()) {
    batch_timer_.schedule(config_.batch_flush_ns,
                          [this]() { flush_batches(); });
  }
  if (!idle_seal_.pending()) {
    idle_seal_.schedule_idle([this]() { seal_sparse_batches(); });
  }
}

void Rp2pModule::seal_sparse_batches() {
  ++idle_epoch_;  // the next send on any link opens a new burst
  std::vector<NodeId> due;
  due.swap(batch_queue_);
  for (const NodeId dst : due) {
    PeerOut& peer = out_[dst];
    if (peer.burst_gap < config_.batch_flush_ns) {
      batch_queue_.push_back(dst);  // dense: company is likely; keep waiting
      continue;
    }
    peer.batch_queued = false;
    flush_batch(dst, peer);
  }
  // The window bounds the oldest parked message; with none left, the next
  // parked message opens a fresh one.
  if (batch_queue_.empty()) batch_timer_.cancel();
}

void Rp2pModule::flush_batches() {
  // Swap out: handlers running under deliver() during a self-send flush (or
  // a blocked-call replay) may park new batches while we iterate.
  std::vector<NodeId> due;
  due.swap(batch_queue_);
  for (const NodeId dst : due) {
    PeerOut& peer = out_[dst];
    peer.batch_queued = false;
    flush_batch(dst, peer);
  }
}

void Rp2pModule::flush_batch(NodeId dst, PeerOut& peer) {
  if (peer.pending.empty()) return;  // already sealed by a size flush
  UdpApi* udp = udp_.try_get();
  if (udp == nullptr) {
    // Transport replacement window: keep the batch parked and re-flush via
    // the blocked-call queue the moment a provider binds.
    if (!peer.batch_queued) {
      peer.batch_queued = true;
      batch_queue_.push_back(dst);
    }
    udp_.call([this](UdpApi&) { flush_batches(); });
    return;
  }
  const std::uint64_t seq = peer.next_seq++;
  BufWriter w = udp->udp_frame(kRp2pPort, peer.pending_bytes + 16);
  w.put_u8(kBatch);
  w.put_varint(seq);
  encode_batch_frame(w, peer.pending);
  peer.pending.clear();
  peer.pending_bytes = 0;
  ++data_datagrams_;
  auto [it, inserted] = peer.unacked.emplace(seq, OutPacket{w.take_payload()});
  assert(inserted);
  (void)inserted;
  transmit(dst, it->second);
}

void Rp2pModule::rp2p_bind_channel(ChannelId channel,
                                   DatagramHandler handler) {
  channels_.bind(channel, std::move(handler));
  // Release deliveries that arrived before this protocol instance existed.
  auto it = pending_channel_.find(channel);
  if (it == pending_channel_.end()) return;
  auto queued = std::move(it->second);
  pending_channel_.erase(it);
  DPU_LOG(kDebug, "rp2p") << "s" << env().node_id() << " channel " << channel
                          << " bound; releasing " << queued.size()
                          << " buffered message(s)";
  // Routed through deliver(), which re-fetches the handler per message: a
  // released delivery may rebind or release the channel, and remaining
  // messages then reach the new handler or go back to the pending buffer.
  for (auto& [src, payload] : queued) {
    deliver(src, channel, payload);
  }
}

void Rp2pModule::rp2p_release_channel(ChannelId channel) {
  channels_.release(channel);
}

std::size_t Rp2pModule::unacked_total() const {
  std::size_t n = 0;
  for (const PeerOut& peer : out_) {
    n += peer.unacked.size();
    // A parked batch is a datagram-to-be: quiescence probes must not call
    // the link drained while messages wait out the flush window.
    if (!peer.pending.empty()) ++n;
  }
  return n;
}

std::size_t Rp2pModule::unacked_excluding(
    const std::set<NodeId>& excluded) const {
  std::size_t n = 0;
  for (NodeId dst = 0; dst < out_.size(); ++dst) {
    if (excluded.count(dst) != 0) continue;
    n += out_[dst].unacked.size();
    if (!out_[dst].pending.empty()) ++n;
  }
  return n;
}

Duration Rp2pModule::backoff_after(std::uint32_t attempts) const {
  Duration b = config_.retransmit_interval;
  for (std::uint32_t i = 0;
       i < attempts && b < config_.max_retransmit_backoff; ++i) {
    b *= 2;
  }
  return std::min(b, config_.max_retransmit_backoff);
}

void Rp2pModule::transmit(NodeId dst, OutPacket& pkt) {
  // Attempts/backoff advance only when a frame actually goes out; if udp
  // is momentarily unbound the retransmit tick simply retries later,
  // without accruing phantom backoff against a peer that never saw a send.
  UdpApi* udp = udp_.try_get();
  if (udp == nullptr) return;
  pkt.next_due = env().now() + backoff_after(pkt.attempts);
  ++pkt.attempts;
  // Direct dispatch on the pre-built frame; charge the same service-hop
  // cost a udp_.call() would have.
  stack().charge_hop();
  udp->udp_send_frame(dst, pkt.frame);
}

void Rp2pModule::note_ack_due(NodeId src, PeerIn& peer) {
  if (!peer.ack_due) {
    peer.ack_due = true;
    ack_queue_.push_back(src);
  }
  if (config_.ack_delay <= 0) {
    flush_acks();  // coalescing disabled: ack immediately
    return;
  }
  if (!ack_timer_.pending()) {
    // Delayed ack: every delivery inside the window (and, on a saturated
    // stack, everything processed before the deferred timer runs) folds
    // into one cumulative ack per peer.
    ack_timer_.schedule(config_.ack_delay, [this]() { flush_acks(); });
  }
}

void Rp2pModule::flush_acks() {
  for (const NodeId src : ack_queue_) {
    PeerIn& peer = in_[src];
    if (!peer.ack_due) continue;
    peer.ack_due = false;
    ++acks_sent_;
    udp_.call([src, next = peer.next_expected](UdpApi& udp) {
      BufWriter w = udp.udp_frame(kRp2pPort, 10);
      w.put_u8(kAck);
      w.put_varint(next);
      udp.udp_send_frame(src, w.take_payload());
    });
  }
  ack_queue_.clear();
}

void Rp2pModule::note_gap(NodeId src, PeerIn& peer) {
  if (!config_.nack || peer.nack_pending) return;
  peer.nack_pending = true;
  nack_queue_.push_back(src);
  if (!nack_timer_.pending()) {
    nack_timer_.schedule(config_.nack_delay, [this]() { flush_nacks(); });
  }
}

void Rp2pModule::flush_nacks() {
  // Swap out: a still-open hole re-queues itself below, and in-order
  // deliveries triggered by the NACKed retransmission may queue new gaps.
  std::vector<NodeId> due;
  due.swap(nack_queue_);
  const TimePoint now = env().now();
  for (const NodeId src : due) {
    PeerIn& peer = in_[src];
    peer.nack_pending = false;
    if (peer.reorder.empty()) continue;  // hole closed by in-flight packets
    const std::uint64_t gap_from = peer.next_expected;
    const std::uint64_t gap_to = peer.reorder.begin()->first;
    if (gap_to <= gap_from) continue;  // defensive
    // Debounce per gap front: relays and duplicates re-detect the same gap
    // many times within one round trip.
    if (peer.last_nacked == gap_from && peer.last_nack_time >= 0 &&
        now - peer.last_nack_time < config_.nack_min_interval) {
      // Re-check later: the front may still be lost (NACK or retransmit
      // dropped); the retransmission timer remains the backstop.
      note_gap(src, peer);
      continue;
    }
    peer.last_nacked = gap_from;
    peer.last_nack_time = now;
    ++nacks_sent_;
    udp_.call([src, gap_from, gap_to](UdpApi& udp) {
      BufWriter w = udp.udp_frame(kRp2pPort, 20);
      w.put_u8(kNack);
      w.put_varint(gap_from);
      w.put_varint(gap_to);
      udp.udp_send_frame(src, w.take_payload());
    });
  }
  if (!nack_queue_.empty() && !nack_timer_.pending()) {
    nack_timer_.schedule(config_.nack_delay, [this]() { flush_nacks(); });
  }
}

void Rp2pModule::on_nack(NodeId src, std::uint64_t from, std::uint64_t to) {
  if (src >= out_.size() || to <= from) return;
  PeerOut& peer = out_[src];
  // Retransmit exactly the reported hole, now: the receiver knows which
  // packets it is missing, so no timer guesswork and no backoff wait.  The
  // range is bounded by the receiver's reorder gap, so a forged/garbled
  // range cannot trigger more sends than there are unacked packets.
  for (auto it = peer.unacked.lower_bound(from);
       it != peer.unacked.end() && it->first < to; ++it) {
    ++retransmissions_;
    ++fast_retransmits_;
    transmit(src, it->second);
  }
}

void Rp2pModule::deliver(NodeId src, ChannelId channel,
                         const Payload& payload) {
  if (const auto handler = channels_.find(channel)) {
    ++delivered_;
    (*handler)(src, payload);
    return;
  }
  auto& queue = pending_channel_[channel];
  if (queue.size() >= config_.max_pending_per_channel) {
    DPU_LOG(kWarn, "rp2p") << "s" << env().node_id()
                           << " pending buffer overflow on channel "
                           << channel << "; dropping";
    return;
  }
  queue.emplace_back(src, payload);
}

void Rp2pModule::deliver_batch(NodeId src, const Payload& body) {
  try {
    decode_batch_frame(body, batch_scratch_);
  } catch (const CodecError& e) {
    // Unreachable for frames accepted by on_datagram (validated eagerly);
    // kept as a guard so a logic slip degrades to a dropped frame.
    DPU_LOG(kWarn, "rp2p") << "s" << env().node_id()
                           << " malformed batch from s" << src << ": "
                           << e.what();
    return;
  }
  deliver_decoded(src);
}

void Rp2pModule::deliver_decoded(NodeId src) {
  // Swap the scratch out for the duration of the delivery loop: a handler
  // may re-enter this module (bind a channel and drain its pending queue,
  // send messages, ...) and must not clobber the list being delivered.
  std::vector<BatchMessage> messages;
  messages.swap(batch_scratch_);
  for (const BatchMessage& m : messages) {
    deliver(src, m.channel, m.payload);
  }
  messages.clear();
  batch_scratch_.swap(messages);
}

void Rp2pModule::on_datagram(NodeId src, const Payload& data) {
  try {
    BufReader r(data);
    const auto type = static_cast<MsgType>(r.get_u8());
    if (type == kAck) {
      const std::uint64_t cumulative = r.get_varint();
      r.expect_done();
      if (src >= out_.size()) return;
      PeerOut& peer = out_[src];
      peer.unacked.erase(peer.unacked.begin(),
                         peer.unacked.lower_bound(cumulative));
      return;
    }
    if (type == kNack) {
      const std::uint64_t from = r.get_varint();
      const std::uint64_t to = r.get_varint();
      r.expect_done();
      on_nack(src, from, to);
      return;
    }
    if (type != kBatch) throw CodecError("unknown rp2p message type");
    const std::uint64_t seq = r.get_varint();
    // Batch body = everything after the seq, as a zero-copy slice.  Decode
    // it eagerly (before the seq is consumed): a malformed batch is dropped
    // like any other garbled datagram, and the normal loss machinery — NACK
    // plus retransmission of the cached frame — can still repair the stream
    // with an intact copy.  An in-order batch is delivered from this decode.
    Payload body = data.slice(data.size() - r.remaining());
    decode_batch_frame(body, batch_scratch_);

    if (src >= in_.size()) in_.resize(src + 1);
    const std::uint64_t epoch = seq_epoch(seq);
    const std::uint64_t tracked = seq_epoch(in_[src].next_expected);
    if (epoch < tracked) return;  // frame from a dead incarnation: discard
    if (epoch > tracked) adopt_peer_epoch(src, epoch);
    PeerIn& peer = in_[src];
    if (seq < peer.next_expected) {
      // Duplicate of an already-delivered packet: our ack was lost; re-ack.
      note_ack_due(src, peer);
      return;
    }
    if (seq > peer.next_expected) {
      // Out of order: hold for reassembly (duplicates overwrite harmlessly)
      // and queue a delayed gap check so the sender fast-retransmits real
      // losses instead of waiting out its backed-off timer.  The gap is in
      // datagram sequence numbers, so a missing batch is one hole and its
      // fast retransmission is one datagram — never per-message duplicates.
      peer.reorder.emplace(seq, std::move(body));
      note_gap(src, peer);
      note_ack_due(src, peer);
      return;
    }
    // In-order: deliver, then drain the reorder buffer.
    ++peer.next_expected;
    deliver_decoded(src);
    while (!peer.reorder.empty() &&
           peer.reorder.begin()->first == peer.next_expected) {
      auto node = peer.reorder.extract(peer.reorder.begin());
      ++peer.next_expected;
      deliver_batch(src, node.mapped());
    }
    note_ack_due(src, peer);
  } catch (const CodecError& e) {
    DPU_LOG(kWarn, "rp2p") << "s" << env().node_id()
                           << " malformed packet from s" << src << ": "
                           << e.what();
  }
}

void Rp2pModule::rp2p_note_peer_epoch(NodeId peer, std::uint64_t epoch) {
  // Out-of-band restart notice (facade state transfer delivers it at the
  // totally-ordered refresh-switch point).  Same state reset as observing a
  // new-epoch datagram from the peer; stale notices (an epoch we already
  // track or passed) are ignored so replayed markers cannot regress a link.
  if (peer >= in_.size()) in_.resize(peer + 1);
  if (epoch <= seq_epoch(in_[peer].next_expected)) return;
  ++epoch_notes_;
  adopt_peer_epoch(peer, epoch);
}

void Rp2pModule::adopt_peer_epoch(NodeId src, std::uint64_t epoch) {
  DPU_LOG(kInfo, "rp2p") << "s" << env().node_id() << " peer s" << src
                         << " entered stream epoch " << epoch
                         << " (restart observed); resetting link state";
  // Receive side: the old incarnation's stream is dead — anything parked in
  // its reorder buffer can never complete.
  PeerIn& in = in_[src];
  in.reorder.clear();
  in.next_expected = (epoch << kIncarnationSeqShift) + 1;
  in.last_nacked = 0;
  in.last_nack_time = -1;
  // Send side: packets addressed to the dead incarnation are abandoned (a
  // restarted receiver is a fresh endpoint; reliability is owed to the new
  // incarnation only — upper layers re-converge via consensus catch-up).
  // Our own stream jumps to the observed epoch so the restarted peer's
  // fresh receive state accepts it as in-order from the start.
  if (src < out_.size()) {
    PeerOut& out = out_[src];
    if (seq_epoch(out.next_seq) < epoch) {
      out.unacked.clear();
      // Parked batch messages were owed to the dead incarnation too.
      out.pending.clear();
      out.pending_bytes = 0;
      out.next_seq = (epoch << kIncarnationSeqShift) + 1;
    }
  }
}

void Rp2pModule::on_retransmit_tick() {
  const TimePoint now = env().now();
  const FdApi* fd = config_.respect_fd ? fd_.try_get() : nullptr;
  for (NodeId dst = 0; dst < out_.size(); ++dst) {
    PeerOut& peer = out_[dst];
    if (peer.unacked.empty()) continue;
    if (fd != nullptr && fd->fd_suspects(dst)) {
      // Suspected peer: stop pushing packets at it.  If the suspicion was
      // false the FD will rescind it and the stream resumes; if the peer
      // really crashed this is what keeps a crash from attracting an
      // unbounded retransmission storm for the whole drain window.
      ++suspected_skips_;
      continue;
    }
    for (auto& [seq, pkt] : peer.unacked) {
      if (pkt.next_due > now) continue;  // backoff not expired
      ++retransmissions_;
      transmit(dst, pkt);
    }
  }
  retransmit_timer_.schedule(config_.retransmit_interval,
                             [this]() { on_retransmit_tick(); });
}

}  // namespace dpu

#include "consensus/ct_consensus.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace dpu {

CtConsensusModule* CtConsensusModule::create(Stack& stack,
                                             const std::string& service,
                                             Config config,
                                             const std::string& instance_name) {
  const std::string instance = instance_name.empty() ? service : instance_name;
  auto* m = stack.emplace_module<CtConsensusModule>(stack, instance, config);
  stack.bind<ConsensusApi>(service, m, m);
  return m;
}

void CtConsensusModule::register_protocol(ProtocolLibrary& library,
                                          Config config) {
  library.register_protocol(ProtocolInfo{
      .protocol = kProtocolName,
      .default_service = kConsensusService,
      .requires_services = {kRp2pService, kRbcastService, kFdService},
      .factory = [config](Stack& stack, const std::string& provide_as,
                          const ModuleParams& params) -> Module* {
        return create(stack, provide_as, config, params.get("instance"));
      }});
}

CtConsensusModule::CtConsensusModule(Stack& stack, std::string instance_name,
                                     Config config)
    : ConsensusBase(stack, std::move(instance_name)), config_(config) {}

void CtConsensusModule::start() {
  ConsensusBase::start();
  stack().listen<FdListener>(kFdService, this, this);
}

void CtConsensusModule::stop() {
  stack().unlisten<FdListener>(kFdService, this);
  for (auto& [key, s] : instances_) cancel_round_timer(s);
  instances_.clear();
  ConsensusBase::stop();
}

// ---------------------------------------------------------------------------
// Wire format: u8 type | varint stream | varint instance | varint round |
//              [varint ts] [blob value]   (fields by type)
// ---------------------------------------------------------------------------

Payload CtConsensusModule::encode_typed(MsgType type, const Key& key,
                                       std::uint64_t round, std::uint64_t ts,
                                       const Bytes* value) {
  BufWriter w((value != nullptr ? value->size() : 0) + 32);
  w.put_u8(type);
  w.put_varint(key.stream);
  w.put_varint(key.instance);
  w.put_varint(round);
  if (type == kEstimate) w.put_varint(ts);
  if (type == kEstimate || type == kPropose) {
    assert(value != nullptr);
    w.put_blob(*value);
  }
  return w.take_payload();
}

void CtConsensusModule::on_peer_message(NodeId from,
                                          const Payload& data) {
  try {
    BufReader r(data);
    const auto type = static_cast<MsgType>(r.get_u8());
    Key key{};
    key.stream = r.get_varint();
    key.instance = r.get_varint();
    const std::uint64_t round = r.get_varint();
    if (is_decided(key)) {
      // Settled.  Racing stragglers of the current round learn via the
      // DECIDE broadcast; a sender far behind the frontier lost it and gets
      // the decisions resent (crash-recovery / partition-rejoin catch-up).
      maybe_catch_up_straggler(from, key);
      return;
    }
    switch (type) {
      case kEstimate: {
        const std::uint64_t ts = r.get_varint();
        Bytes value = r.get_blob();
        r.expect_done();
        handle_estimate(from, key, round, ts, std::move(value));
        break;
      }
      case kPropose: {
        Bytes value = r.get_blob();
        r.expect_done();
        handle_proposal(key, round, std::move(value));
        break;
      }
      case kAck:
        r.expect_done();
        handle_reply(from, key, round, /*ack=*/true);
        break;
      case kNack:
        r.expect_done();
        handle_reply(from, key, round, /*ack=*/false);
        break;
      case kAbort:
        r.expect_done();
        handle_abort(key, round);
        break;
      default:
        throw CodecError("unknown ct message type");
    }
  } catch (const CodecError& e) {
    DPU_LOG(kWarn, "ct") << "s" << env().node_id()
                         << " malformed message from s" << from << ": "
                         << e.what();
  }
}

// ---------------------------------------------------------------------------
// Participant side
// ---------------------------------------------------------------------------

void CtConsensusModule::algo_propose(const Key& key, const Bytes& value) {
  Inst& s = inst(key);
  if (s.started) return;  // duplicate propose
  s.started = true;
  if (!s.has_estimate) {
    s.estimate = value;
    s.has_estimate = true;
    s.ts = 0;
  }
  if (!s.entered) {
    enter_round(key, s);
  } else if (coord_of(s.round) == env().node_id()) {
    // We joined the instance passively (adopted a proposal) before proposing
    // locally; now that we have started we may act as round coordinator.
    maybe_coordinate(key, s, s.round);
  }
}

void CtConsensusModule::enter_round(const Key& key, Inst& s) {
  s.entered = true;
  s.awaiting_proposal = true;
  ++rounds_started_;
  arm_round_timer(key, s);
  const NodeId c = coord_of(s.round);
  const bool skip_phase1 = s.round == 0 && config_.skip_phase1_round0;
  if (!skip_phase1 && s.has_estimate) {
    send_peer(c, encode_typed(kEstimate, key, s.round, s.ts, &s.estimate));
  }
  if (c == env().node_id()) maybe_coordinate(key, s, s.round);

  // A proposal for this round may have arrived while we were behind.
  auto it = s.early_proposals.find(s.round);
  if (it != s.early_proposals.end()) {
    Bytes v = std::move(it->second);
    s.early_proposals.erase(it);
    handle_proposal(key, s.round, std::move(v));
    return;
  }
  // The coordinator may already be suspected.
  FdApi* fd = fd_.try_get();
  if (fd != nullptr && c != env().node_id() && fd->fd_suspects(c)) {
    on_coordinator_unreachable(key, s);
  }
}

void CtConsensusModule::advance_round(const Key& key, Inst& s,
                                      std::uint64_t to_round) {
  assert(to_round > s.round || (to_round == s.round && !s.entered));
  s.round = to_round;
  enter_round(key, s);
}

void CtConsensusModule::handle_proposal(const Key& key, std::uint64_t round,
                                        Bytes value) {
  Inst& s = inst(key);
  if (round < s.round) return;  // stale round
  if (round > s.round) {
    // We are behind: the system reached round `round`, so rounds below it
    // cannot decide at us anymore — jump forward and process the proposal.
    cancel_round_timer(s);
    s.early_proposals[round] = std::move(value);
    advance_round(key, s, round);
    return;
  }
  if (!s.entered) {
    // Passive participant (no local propose yet): join directly at the
    // proposal's round and process it from the early-proposal buffer.
    s.early_proposals[round] = std::move(value);
    s.round = round;
    enter_round(key, s);
    return;
  }
  if (!s.awaiting_proposal) return;  // already acked or nacked this round
  // Phase 3: adopt and ack.
  s.estimate = std::move(value);
  s.has_estimate = true;
  s.ts = round;
  s.awaiting_proposal = false;
  send_peer(coord_of(round), encode_typed(kAck, key, round, 0, nullptr));
  // Stay in this round awaiting DECIDE / ABORT / suspicion / timeout.
}

void CtConsensusModule::on_coordinator_unreachable(const Key& key, Inst& s) {
  if (s.awaiting_proposal) {
    send_peer(coord_of(s.round),
              encode_typed(kNack, key, s.round, 0, nullptr));
    s.awaiting_proposal = false;
  }
  cancel_round_timer(s);
  advance_round(key, s, s.round + 1);
}

void CtConsensusModule::handle_abort(const Key& key, std::uint64_t round) {
  Inst& s = inst(key);
  if (round < s.round) return;
  cancel_round_timer(s);
  const std::uint64_t target = round + 1;
  s.awaiting_proposal = false;
  advance_round(key, s, target);
}

void CtConsensusModule::on_suspect(NodeId node) {
  // Fast path round advance: every instance currently waiting on `node` as
  // its round coordinator moves on.  Iterate over keys defensively — the
  // handlers mutate instance state but never erase entries.
  for (auto& [key, s] : instances_) {
    if (is_decided(key)) continue;
    if (!s.entered) continue;
    if (coord_of(s.round) != node) continue;
    on_coordinator_unreachable(key, s);
  }
}

void CtConsensusModule::arm_round_timer(const Key& key, Inst& s) {
  cancel_round_timer(s);
  const int shift = static_cast<int>(std::min<std::uint64_t>(s.round, 6));
  const Duration timeout =
      std::min(config_.round_timeout << shift, config_.round_timeout_max);
  s.round_timer = env().set_timer(timeout, [this, key]() {
    auto it = instances_.find(key);
    if (it == instances_.end() || is_decided(key)) return;
    Inst& state = it->second;
    state.round_timer = kNoTimer;
    // Timeout backstop: treat like a suspicion of the round coordinator.
    DPU_LOG(kDebug, "ct") << "s" << env().node_id() << " round timeout"
                          << " stream=" << key.stream
                          << " inst=" << key.instance
                          << " round=" << state.round;
    on_coordinator_unreachable(key, state);
  });
}

void CtConsensusModule::cancel_round_timer(Inst& s) {
  if (s.round_timer != kNoTimer) {
    env().cancel_timer(s.round_timer);
    s.round_timer = kNoTimer;
  }
}

// ---------------------------------------------------------------------------
// Coordinator side
// ---------------------------------------------------------------------------

void CtConsensusModule::handle_estimate(NodeId from, const Key& key,
                                        std::uint64_t round, std::uint64_t ts,
                                        Bytes value) {
  Inst& s = inst(key);
  CoordRound& cr = s.coord[round];
  cr.estimates[from] = {ts, std::move(value)};
  maybe_coordinate(key, s, round);
}

void CtConsensusModule::maybe_coordinate(const Key& key, Inst& s,
                                         std::uint64_t round) {
  if (coord_of(round) != env().node_id()) return;
  CoordRound& cr = s.coord[round];
  if (cr.proposed || cr.closed) return;

  if (round == 0 && config_.skip_phase1_round0) {
    // Round-0 optimization: all timestamps are 0, any proposer's own
    // estimate is a legal pick — but only once we have one.
    if (!s.started || !s.has_estimate) return;
    cr.proposal = s.estimate;
  } else {
    // Include our own estimate alongside received ones.
    if (s.has_estimate && s.entered && s.round == round) {
      cr.estimates[env().node_id()] = {s.ts, s.estimate};
    }
    if (cr.estimates.size() < majority()) return;
    // Phase 2: pick an estimate with maximal timestamp.
    const std::pair<std::uint64_t, Bytes>* best = nullptr;
    for (const auto& [node, entry] : cr.estimates) {
      if (best == nullptr || entry.first > best->first) best = &entry;
    }
    cr.proposal = best->second;
  }
  cr.proposed = true;
  send_all(encode_typed(kPropose, key, round, 0, &cr.proposal));
}

void CtConsensusModule::handle_reply(NodeId from, const Key& key,
                                     std::uint64_t round, bool ack) {
  Inst& s = inst(key);
  CoordRound& cr = s.coord[round];
  if (cr.closed || !cr.proposed) return;
  if (ack) {
    cr.acks.insert(from);
  } else {
    cr.nacks.insert(from);
  }
  if (cr.acks.size() >= majority()) {
    // Phase 4: decide.
    cr.closed = true;
    broadcast_decide(key, cr.proposal);
    return;
  }
  if (!cr.nacks.empty() && cr.acks.size() + cr.nacks.size() >= majority()) {
    // The round can no longer produce a timely decision; release waiting
    // participants (see header: liveness addition to the textbook protocol).
    cr.closed = true;
    ++rounds_aborted_;
    send_all(encode_typed(kAbort, key, round, 0, nullptr));
  }
}

void CtConsensusModule::algo_on_decided(const Key& key) {
  auto it = instances_.find(key);
  if (it == instances_.end()) return;
  cancel_round_timer(it->second);
  instances_.erase(it);
}

}  // namespace dpu

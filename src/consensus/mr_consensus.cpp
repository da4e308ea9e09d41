#include "consensus/mr_consensus.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace dpu {

MrConsensusModule* MrConsensusModule::create(Stack& stack,
                                             const std::string& service,
                                             Config config,
                                             const std::string& instance_name) {
  const std::string instance = instance_name.empty() ? service : instance_name;
  auto* m = stack.emplace_module<MrConsensusModule>(stack, instance, config);
  stack.bind<ConsensusApi>(service, m, m);
  return m;
}

void MrConsensusModule::register_protocol(ProtocolLibrary& library,
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

MrConsensusModule::MrConsensusModule(Stack& stack, std::string instance_name,
                                     Config config)
    : ConsensusBase(stack, std::move(instance_name)), config_(config) {}

void MrConsensusModule::start() {
  ConsensusBase::start();
  stack().listen<FdListener>(kFdService, this, this);
}

void MrConsensusModule::stop() {
  stack().unlisten<FdListener>(kFdService, this);
  for (auto& [key, s] : instances_) cancel_round_timer(s);
  instances_.clear();
  ConsensusBase::stop();
}

// Wire: u8 type | varint stream | varint instance | varint round |
//       u8 has_value [blob value]
void MrConsensusModule::broadcast_typed(MsgType type, const Key& key,
                                        std::uint64_t round,
                                        const std::optional<Bytes>& value) {
  BufWriter w((value ? value->size() : 0) + 32);
  w.put_u8(type);
  w.put_varint(key.stream);
  w.put_varint(key.instance);
  w.put_varint(round);
  w.put_bool(value.has_value());
  if (value) w.put_blob(*value);
  send_all(w.take_payload());
}

void MrConsensusModule::on_peer_message(NodeId from,
                                          const Payload& data) {
  try {
    BufReader r(data);
    const auto type = static_cast<MsgType>(r.get_u8());
    Key key{};
    key.stream = r.get_varint();
    key.instance = r.get_varint();
    const std::uint64_t round = r.get_varint();
    std::optional<Bytes> value;
    if (r.get_bool()) value = r.get_blob();
    r.expect_done();
    if (is_decided(key)) {
      // Settled; resend decisions to senders far behind the frontier (see
      // ConsensusBase::maybe_catch_up_straggler).
      maybe_catch_up_straggler(from, key);
      return;
    }
    switch (type) {
      case kEst:
        if (!value) throw CodecError("EST without value");
        handle_est(key, round, std::move(*value));
        break;
      case kVote:
        handle_vote(from, key, round, std::move(value));
        break;
      default:
        throw CodecError("unknown mr message type");
    }
  } catch (const CodecError& e) {
    DPU_LOG(kWarn, "mr") << "s" << env().node_id()
                         << " malformed message from s" << from << ": "
                         << e.what();
  }
}

void MrConsensusModule::algo_propose(const Key& key, const Bytes& value) {
  Inst& s = inst(key);
  if (s.started) return;
  s.started = true;
  if (!s.has_estimate) {
    s.estimate = value;
    s.has_estimate = true;
  }
  if (!s.entered) {
    enter_round(key, s);
  } else {
    // We were participating passively; now that we hold an estimate we can
    // coordinate the current round if it is ours.
    maybe_send_est(key, s);
  }
}

void MrConsensusModule::enter_round(const Key& key, Inst& s) {
  s.entered = true;
  arm_round_timer(key, s);
  maybe_send_est(key, s);

  RoundState& rs = s.rounds[s.round];
  // An EST may have arrived before we entered this round.
  if (!rs.voted && rs.est) {
    cast_vote(key, s, *rs.est);
  } else if (!rs.voted) {
    FdApi* fd = fd_.try_get();
    const NodeId c = coord_of(s.round);
    if (fd != nullptr && c != env().node_id() && fd->fd_suspects(c)) {
      cast_vote(key, s, std::nullopt);
    }
  }
  // Votes may have accumulated while we were in earlier rounds.
  maybe_complete_round(key, s);
}

void MrConsensusModule::maybe_send_est(const Key& key, Inst& s) {
  if (coord_of(s.round) != env().node_id()) return;
  if (!s.started || !s.has_estimate) return;
  RoundState& rs = s.rounds[s.round];
  if (rs.est_sent) return;
  rs.est_sent = true;
  broadcast_typed(kEst, key, s.round, s.estimate);
}

void MrConsensusModule::cast_vote(const Key& key, Inst& s,
                                  std::optional<Bytes> value) {
  RoundState& rs = s.rounds[s.round];
  if (rs.voted) return;
  rs.voted = true;
  broadcast_typed(kVote, key, s.round, value);
}

void MrConsensusModule::handle_est(const Key& key, std::uint64_t round,
                                   Bytes value) {
  Inst& s = inst(key);
  RoundState& rs = s.rounds[round];
  rs.est = std::move(value);
  if (!s.entered) {
    // Passive participant drawn in by instance traffic: join at round 0 and
    // let stored ESTs/votes replay it forward.
    enter_round(key, s);
    return;
  }
  if (round == s.round && !rs.voted) cast_vote(key, s, *rs.est);
}

void MrConsensusModule::handle_vote(NodeId from, const Key& key,
                                    std::uint64_t round,
                                    std::optional<Bytes> value) {
  Inst& s = inst(key);
  RoundState& rs = s.rounds[round];
  rs.votes.emplace(from, std::move(value));
  if (!s.entered) {
    enter_round(key, s);
    return;
  }
  if (round == s.round) maybe_complete_round(key, s);
}

void MrConsensusModule::maybe_complete_round(const Key& key, Inst& s) {
  RoundState& rs = s.rounds[s.round];
  if (rs.completed || !s.entered) return;
  if (!rs.voted) return;  // must contribute before counting (n-f collection)
  if (rs.votes.size() < majority()) return;
  rs.completed = true;
  ++rounds_completed_;

  // Evaluate exactly the votes present at completion time.
  const Bytes* v = nullptr;
  std::size_t value_votes = 0;
  for (const auto& [node, vote] : rs.votes) {
    if (vote) {
      v = &*vote;  // all non-⊥ votes of a round carry the coordinator value
      ++value_votes;
    }
  }
  if (v != nullptr) {
    s.estimate = *v;
    s.has_estimate = true;
    if (value_votes == rs.votes.size()) {
      // Unanimous majority: decide.
      broadcast_decide(key, s.estimate);
      return;  // instance state is torn down on DECIDE delivery
    }
  }
  cancel_round_timer(s);
  ++s.round;
  enter_round(key, s);
}

void MrConsensusModule::on_suspect(NodeId node) {
  for (auto& [key, s] : instances_) {
    if (is_decided(key) || !s.entered) continue;
    if (coord_of(s.round) != node) continue;
    RoundState& rs = s.rounds[s.round];
    if (!rs.voted) cast_vote(key, s, std::nullopt);
  }
}

void MrConsensusModule::arm_round_timer(const Key& key, Inst& s) {
  cancel_round_timer(s);
  const int shift = static_cast<int>(std::min<std::uint64_t>(s.round, 6));
  const Duration timeout =
      std::min(config_.round_timeout << shift, config_.round_timeout_max);
  s.round_timer = env().set_timer(timeout, [this, key]() {
    auto it = instances_.find(key);
    if (it == instances_.end() || is_decided(key)) return;
    Inst& state = it->second;
    state.round_timer = kNoTimer;
    RoundState& rs = state.rounds[state.round];
    if (!rs.voted) {
      // Give up on the coordinator for this round.
      cast_vote(key, state, std::nullopt);
      maybe_complete_round(key, state);
    }
    // Keep waiting for the majority of votes (guaranteed from correct
    // stacks); re-arm so a quiet network is re-checked.
    if (!rs.completed) arm_round_timer(key, state);
  });
}

void MrConsensusModule::cancel_round_timer(Inst& s) {
  if (s.round_timer != kNoTimer) {
    env().cancel_timer(s.round_timer);
    s.round_timer = kNoTimer;
  }
}

void MrConsensusModule::algo_on_decided(const Key& key) {
  auto it = instances_.find(key);
  if (it == instances_.end()) return;
  cancel_round_timer(it->second);
  instances_.erase(it);
}

}  // namespace dpu

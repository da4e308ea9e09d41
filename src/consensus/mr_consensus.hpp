// MR — a Mostéfaoui–Raynal-style <>S consensus (the alternate provider of
// the "consensus" service; used by the consensus-replacement extension,
// DESIGN.md experiment E1).
//
// Round structure (round r, coordinator c = r mod n):
//   Phase A  c broadcasts its estimate EST(r, v).
//   Phase B  every participant broadcasts a VOTE(r, x) where x = v if it
//            received EST, or ⊥ if its failure detector suspects c (or the
//            round timer fires).  Each participant collects a majority of
//            votes for round r, then:
//              - all collected votes equal v  → decide v (reliable-broadcast
//                DECIDE) and adopt v,
//              - at least one vote equals v   → adopt v, next round,
//              - all ⊥                        → keep estimate, next round.
//
// Safety sketch: all non-⊥ votes of round r carry the same value (the
// coordinator's), and any two majorities intersect; so if some stack decides
// v in round r, every stack completing round r sees at least one v-vote and
// adopts v — from round r+1 on, only v can be proposed or decided.
// Unlike CT, a stack must *complete* every round (collect a majority of
// votes); rounds are never skipped.
#pragma once

#include <map>
#include <optional>

#include "consensus/consensus.hpp"

namespace dpu {

struct MrConsensusConfig {
  /// Delay before a participant gives up on the coordinator's EST and votes
  /// ⊥ (on top of the FD fast path).
  Duration round_timeout = 500 * kMillisecond;
  Duration round_timeout_max = 4 * kSecond;
};

class MrConsensusModule final : public ConsensusBase, public FdListener {
 public:
  using Config = MrConsensusConfig;

  static constexpr char kProtocolName[] = "consensus.mr";

  static MrConsensusModule* create(Stack& stack,
                                   const std::string& service = kConsensusService,
                                   Config config = Config{},
                                   const std::string& instance_name = "");

  /// Registers "consensus.mr": requires rp2p + rbcast + fd; ModuleParams:
  /// "instance".
  static void register_protocol(ProtocolLibrary& library,
                                Config config = Config{});

  MrConsensusModule(Stack& stack, std::string instance_name, Config config);

  void start() override;
  void stop() override;

  // FdListener
  void on_suspect(NodeId node) override;
  void on_trust(NodeId /*node*/) override {}

  [[nodiscard]] std::uint64_t rounds_completed() const {
    return rounds_completed_;
  }

 protected:
  void algo_propose(const Key& key, const Bytes& value) override;
  void algo_on_decided(const Key& key) override;
  void on_peer_message(NodeId from, const Payload& data) override;

 private:
  enum MsgType : std::uint8_t { kEst = 0, kVote = 1 };

  struct RoundState {
    /// Votes received for this round; nullopt encodes ⊥.
    std::map<NodeId, std::optional<Bytes>> votes;
    std::optional<Bytes> est;  // coordinator estimate, if received
    bool voted = false;
    bool est_sent = false;   // coordinator only
    bool completed = false;  // majority votes processed
  };

  struct Inst {
    bool started = false;
    bool has_estimate = false;
    Bytes estimate;
    std::uint64_t round = 0;
    bool entered = false;
    std::map<std::uint64_t, RoundState> rounds;
    TimerId round_timer = kNoTimer;
  };

  [[nodiscard]] NodeId coord_of(std::uint64_t round) const {
    return static_cast<NodeId>(round % env().world_size());
  }

  Inst& inst(const Key& key) { return instances_[key]; }

  void enter_round(const Key& key, Inst& s);
  void maybe_send_est(const Key& key, Inst& s);
  void cast_vote(const Key& key, Inst& s, std::optional<Bytes> value);
  void maybe_complete_round(const Key& key, Inst& s);
  void handle_est(const Key& key, std::uint64_t round, Bytes value);
  void handle_vote(NodeId from, const Key& key, std::uint64_t round,
                   std::optional<Bytes> value);
  void arm_round_timer(const Key& key, Inst& s);
  void cancel_round_timer(Inst& s);

  /// Sends one algorithm message to every stack (one rp2p crossing).
  void broadcast_typed(MsgType type, const Key& key, std::uint64_t round,
                       const std::optional<Bytes>& value);

  Config config_;
  std::map<Key, Inst> instances_;
  std::uint64_t rounds_completed_ = 0;
};

}  // namespace dpu

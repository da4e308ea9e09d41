// CT — Chandra–Toueg <>S consensus with rotating coordinator (paper
// Figure 4: "the CT module provides a distributed consensus service using
// the Chandra-Toueg <>S consensus algorithm based on a rotating
// coordinator").
//
// Round structure (round r, coordinator c = r mod n):
//   Phase 1  every participant sends its (ts, estimate) to c
//            (skipped in round 0: all timestamps are 0, so c may use its own
//            estimate — the standard optimization, making the failure-free
//            decision latency 3 one-way hops: PROPOSE, ACK, DECIDE).
//   Phase 2  c picks, among a majority of estimates, one with maximal ts and
//            PROPOSEs it to all.
//   Phase 3  a participant that receives the proposal adopts it
//            (estimate := v, ts := r) and ACKs; a participant whose failure
//            detector suspects c NACKs and advances to round r+1.
//   Phase 4  c decides (reliable-broadcasts DECIDE) upon a majority of ACKs;
//            upon a majority of replies containing a NACK it ABORTs the
//            round so waiting participants advance.
//
// Deviations from the textbook algorithm, both standard in practical
// implementations (cf. Urbán's evaluation methodology [19]):
//  * after ACKing, a participant stays in round r until DECIDE, ABORT,
//    suspicion of c, or a round timeout — instead of free-running through
//    rounds ahead of the decision;
//  * a per-round timeout (doubling, capped) backs up the failure detector,
//    making every round close at every correct stack.
// Safety is untouched (the ts-locking argument is unchanged); both changes
// only affect when rounds advance.
#pragma once

#include <map>

#include "consensus/consensus.hpp"

namespace dpu {

struct CtConsensusConfig {
  Duration round_timeout = 500 * kMillisecond;
  Duration round_timeout_max = 4 * kSecond;
  bool skip_phase1_round0 = true;
};

class CtConsensusModule final : public ConsensusBase, public FdListener {
 public:
  using Config = CtConsensusConfig;

  static constexpr char kProtocolName[] = "consensus.ct";

  static CtConsensusModule* create(Stack& stack,
                                   const std::string& service = kConsensusService,
                                   Config config = Config{},
                                   const std::string& instance_name = "");

  /// Registers "consensus.ct": requires rp2p + rbcast + fd; ModuleParams:
  /// "instance".
  static void register_protocol(ProtocolLibrary& library,
                                Config config = Config{});

  CtConsensusModule(Stack& stack, std::string instance_name, Config config);

  void start() override;
  void stop() override;

  // FdListener (round-advance fast path)
  void on_suspect(NodeId node) override;
  void on_trust(NodeId /*node*/) override {}

  [[nodiscard]] std::uint64_t rounds_started() const { return rounds_started_; }
  [[nodiscard]] std::uint64_t rounds_aborted() const { return rounds_aborted_; }

 protected:
  void algo_propose(const Key& key, const Bytes& value) override;
  void algo_on_decided(const Key& key) override;
  void on_peer_message(NodeId from, const Payload& data) override;

 private:
  enum MsgType : std::uint8_t {
    kEstimate = 0,
    kPropose = 1,
    kAck = 2,
    kNack = 3,
    kAbort = 4,
  };

  /// Coordinator-side state of one round.
  struct CoordRound {
    std::map<NodeId, std::pair<std::uint64_t, Bytes>> estimates;
    bool proposed = false;
    Bytes proposal;
    std::set<NodeId> acks;
    std::set<NodeId> nacks;
    bool closed = false;  // decided or aborted
  };

  /// Participant + coordinator state of one instance.
  struct Inst {
    bool started = false;       // local propose() happened
    bool has_estimate = false;
    Bytes estimate;
    std::uint64_t ts = 0;       // round of last estimate adoption
    std::uint64_t round = 0;
    bool awaiting_proposal = false;  // phase 3 (vs waiting for decide)
    bool entered = false;            // enter_round ran for `round`
    std::map<std::uint64_t, CoordRound> coord;       // per-round coord state
    std::map<std::uint64_t, Bytes> early_proposals;  // proposals for future rounds
    TimerId round_timer = kNoTimer;
  };

  [[nodiscard]] NodeId coord_of(std::uint64_t round) const {
    return static_cast<NodeId>(round % env().world_size());
  }

  Inst& inst(const Key& key) { return instances_[key]; }

  void enter_round(const Key& key, Inst& s);
  void advance_round(const Key& key, Inst& s, std::uint64_t to_round);
  void maybe_coordinate(const Key& key, Inst& s, std::uint64_t round);
  void handle_estimate(NodeId from, const Key& key, std::uint64_t round,
                       std::uint64_t ts, Bytes value);
  void handle_proposal(const Key& key, std::uint64_t round, Bytes value);
  void handle_reply(NodeId from, const Key& key, std::uint64_t round, bool ack);
  void handle_abort(const Key& key, std::uint64_t round);
  void on_coordinator_unreachable(const Key& key, Inst& s);
  void arm_round_timer(const Key& key, Inst& s);
  void cancel_round_timer(Inst& s);

  [[nodiscard]] static Payload encode_typed(MsgType type, const Key& key,
                                            std::uint64_t round,
                                            std::uint64_t ts,
                                            const Bytes* value);

  Config config_;
  std::map<Key, Inst> instances_;
  std::uint64_t rounds_started_ = 0;
  std::uint64_t rounds_aborted_ = 0;
};

}  // namespace dpu

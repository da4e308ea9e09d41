// Consensus service interface and the shared machinery of its providers.
//
// The consensus service is multi-stream and multi-instance:
//  * a *stream* isolates one client protocol instance (each dynamically
//    created ABcast module derives a fresh stream id from its instance
//    name, so two ABcast versions coexisting during a replacement never
//    collide in instance numbering);
//  * an *instance* is one consensus execution; clients use them sequentially
//    (instance k+1 proposed only after k decided), which the replacement
//    algorithms rely on.
//
// Decisions are disseminated with reliable broadcast, so a decision reached
// anywhere reaches every correct stack, including stacks that never proposed
// (uniform agreement of the service).  Decisions for streams with no
// registered handler are buffered and released when the handler binds —
// the same late-module mechanism as RP2P pending channels.
#pragma once

#include <map>
#include <vector>

#include "core/module.hpp"
#include "core/stack.hpp"
#include "fd/fd.hpp"
#include "net/services.hpp"

namespace dpu {

inline constexpr char kConsensusService[] = "consensus";

using StreamId = std::uint64_t;
using InstanceId = std::uint64_t;
using DecisionHandler =
    std::function<void(InstanceId instance, const Bytes& value)>;

/// Call interface of the consensus service.
///
/// Properties (assuming a majority of stacks stay correct):
///  * Validity — a decided value was proposed by some stack.
///  * Uniform agreement — no two stacks decide differently for the same
///    (stream, instance).
///  * Uniform integrity — at most one decision per (stream, instance).
///  * Termination — if a correct stack proposes, every correct stack
///    eventually decides (given the <>S failure-detector behaviour).
struct ConsensusApi {
  virtual ~ConsensusApi() = default;
  virtual void propose(StreamId stream, InstanceId instance,
                       const Bytes& value) = 0;
  virtual void consensus_bind_stream(StreamId stream,
                                     DecisionHandler handler) = 0;
  virtual void consensus_release_stream(StreamId stream) = 0;

  /// Straggler catch-up (crash-recovery support): asks the peers to resend
  /// every decision of `stream` with instance >= `from_instance` that they
  /// have settled.  Clients call this when they observe a decision gap (a
  /// decided instance far ahead of the next one they can apply) — which,
  /// with decisions disseminated by fire-once reliable broadcast, happens
  /// exactly when the client missed decisions it can never receive again:
  /// after recovering from a crash, or after rejoining from a partition so
  /// long that peers already garbage-collected the retransmission state.
  /// Resent decisions arrive through the normal decision path (exactly-once
  /// per instance still holds).
  virtual void consensus_sync(StreamId stream, InstanceId from_instance) = 0;
};

/// Shared plumbing of consensus providers: stream handler registry, decided
/// cache, decision dissemination (via rbcast) and exactly-once delivery.
/// Subclasses implement the per-instance agreement algorithm.
class ConsensusBase : public Module, public ConsensusApi {
 public:
  ConsensusBase(Stack& stack, std::string instance_name);

  void start() override;
  void stop() override;

  // ConsensusApi
  void propose(StreamId stream, InstanceId instance,
               const Bytes& value) final;
  void consensus_bind_stream(StreamId stream, DecisionHandler handler) final;
  void consensus_release_stream(StreamId stream) final;
  void consensus_sync(StreamId stream, InstanceId from_instance) final;

  [[nodiscard]] std::uint64_t decisions_delivered() const {
    return decisions_delivered_;
  }
  /// consensus_sync requests re-sent to a rotated peer after the previous
  /// target went unanswered.
  [[nodiscard]] std::uint64_t sync_retries() const { return sync_retries_; }

  /// Unanswered-sync retry cadence; each retry rotates to the next
  /// fd-trusted peer (the one targeted peer can crash before responding).
  static constexpr Duration kSyncRetryInterval = 250 * kMillisecond;
  /// Rounds through the candidate list before giving up (the straggler path
  /// still covers a gap that outlives every retry).
  static constexpr std::uint32_t kSyncRetryRounds = 3;

 protected:
  struct Key {
    StreamId stream;
    InstanceId instance;
    friend auto operator<=>(const Key&, const Key&) = default;
  };

  /// Subclass algorithm entry: run consensus for `key` with initial value
  /// `value`.  Called at most once per key, never after a decision.
  virtual void algo_propose(const Key& key, const Bytes& value) = 0;

  /// Subclass cleanup hook, called once when `key` reaches a decision.
  virtual void algo_on_decided(const Key& key) = 0;

  /// Subclass call: a coordinator concluded `value` for `key`.  Disseminates
  /// via reliable broadcast; every stack (self included) learns the decision
  /// through on_decide_message.
  void broadcast_decide(const Key& key, const Bytes& value);

  [[nodiscard]] bool is_decided(const Key& key) const {
    return decided_.count(key) != 0;
  }

  /// Subclasses call this when an algorithm message arrives for an
  /// already-decided key.  If the sender is talking about an instance at
  /// least two behind the stream's decided frontier, it can only be a
  /// straggler that missed the (fire-once) DECIDE broadcasts — a recovered
  /// stack replaying from instance 1, or a peer returning from a long
  /// partition — so this stack resends, point-to-point, every decision it
  /// holds for the stream from that instance on.  The margin keeps the
  /// steady state silent: late ACKs/votes for the *just*-decided instance
  /// (which race the DECIDE on every consensus round) never trigger it.
  void maybe_catch_up_straggler(NodeId from, const Key& key);

  [[nodiscard]] std::size_t majority() const {
    return env().world_size() / 2 + 1;
  }

  /// Peer channel for algorithm messages, unique per module instance.
  [[nodiscard]] ChannelId peer_channel() const { return peer_channel_; }

  /// Subclass receive hook for algorithm messages on peer_channel().
  virtual void on_peer_message(NodeId from, const Payload& data) = 0;

  /// Sends an algorithm message to one stack (self included; self-sends go
  /// through the same transport path).
  void send_peer(NodeId dst, Payload data);
  /// Sends one algorithm message to every stack, self included, in one rp2p
  /// service crossing; all destinations share the one buffer.
  void send_all(Payload data);

  ServiceRef<Rp2pApi> rp2p_;
  ServiceRef<RbcastApi> rbcast_;
  ServiceRef<FdApi> fd_;

 private:
  void on_decide_message(NodeId origin, const Payload& data);
  void on_sync_message(NodeId from, const Payload& data);
  /// Shared ingress of decisions, whether broadcast (decide channel) or
  /// resent point-to-point (sync channel): exactly-once, then deliver.
  void ingest_decide(const Key& key, const Bytes& value);
  void deliver_decision(const Key& key, const Bytes& value);
  void resend_decided(NodeId dst, StreamId stream, InstanceId from_instance);

  /// An unanswered consensus_sync, retried against rotating trusted peers
  /// until any decision of its stream arrives (progress) or the attempt
  /// budget runs out.
  struct SyncPending {
    InstanceId from_instance = 0;
    std::uint32_t attempt = 0;
  };
  void send_sync_request(StreamId stream, const SyncPending& pending);
  [[nodiscard]] NodeId pick_sync_target(std::uint32_t attempt) const;
  void on_sync_retry_tick();

  ChannelId peer_channel_;
  ChannelId decide_channel_;
  /// Point-to-point catch-up channel (sync requests + resent decisions).
  ChannelId sync_channel_;
  std::map<StreamId, DecisionHandler> streams_;
  std::map<Key, Bytes> decided_;
  /// Highest decided instance per stream — the frontier that tells a late
  /// algorithm message from a genuine straggler.
  std::map<StreamId, InstanceId> max_decided_;
  /// Resend dedup: a straggler returning from a partition flushes *many*
  /// late messages at once (1+ per instance and round it worked through
  /// alone), and without this each of them would trigger a full-history
  /// resend.  One resend per (peer, stream) covers everything up to the
  /// frontier; another is only owed after the frontier advances or the
  /// peer asks about an even older instance.
  struct ResendMark {
    InstanceId from = 0;
    InstanceId through = 0;
  };
  std::map<std::pair<NodeId, StreamId>, ResendMark> resent_;
  std::map<StreamId, std::vector<std::pair<InstanceId, Bytes>>>
      pending_decisions_;
  std::map<StreamId, SyncPending> pending_syncs_;
  TimerSlot sync_retry_timer_;
  std::uint64_t sync_retries_ = 0;
  std::uint64_t decisions_delivered_ = 0;
};

}  // namespace dpu

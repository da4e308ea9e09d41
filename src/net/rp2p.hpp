// RP2P — reliable FIFO point-to-point channels over UDP (paper Figure 4:
// "the RP2P module implements reliable point-to-point communication").
//
// Classic positive-ack protocol: per-destination sequence numbers, cumulative
// acknowledgements, periodic retransmission, receive-side reordering buffer
// and duplicate suppression.  FIFO order holds per (src,dst) pair across all
// channels; channels only demultiplex payloads to client modules.
//
// Hot-path behaviour (engine perf work, see bench_engine_throughput):
//
//  * The full DATA frame is serialized once per (packet, destination) and
//    cached as a shared Payload, so retransmissions re-send the same buffer
//    instead of re-encoding it.
//  * Sends are batched (ROADMAP 2(a)): messages to the same destination
//    pack into one datagram under a byte budget.  A batch is sealed when
//    the budget fills, at the stack's next idle point if its link is
//    sparse, or when the flush window expires (see batch_flush_ns).  The
//    *datagram* is the sequencing unit — one seq, one ack, one NACK hole,
//    one retransmission per batch — so datagram, syscall and engine-event
//    counts stop scaling with message count.  See net/batch.hpp for the
//    shared frame codec.
//  * Cumulative acks are coalesced: deliveries mark the peer ack-due and a
//    delayed-ack timer flushes one cumulative ack per dirty peer per
//    window, instead of one ack datagram per in-order delivery.
//  * Retransmissions back off exponentially per packet (capped), and peers
//    currently suspected by the failure detector stop attracting
//    retransmissions entirely until trusted again — so a crashed stack
//    costs a bounded number of packets instead of a retransmission storm
//    for the whole drain window.
#pragma once

#include <deque>
#include <map>
#include <set>
#include <unordered_map>

#include "core/module.hpp"
#include "core/stack.hpp"
#include "fd/fd.hpp"
#include "net/batch.hpp"
#include "net/services.hpp"

namespace dpu {

struct Rp2pConfig {
  Duration retransmit_interval = 20 * kMillisecond;
  /// Delayed-ack window: cumulative acks flush at most this long after the
  /// delivery that made them due, so every packet delivered inside the
  /// window folds into one ack per peer.  Must stay well below the
  /// retransmit interval or delayed acks would masquerade as losses.
  /// <= 0 disables coalescing: one ack datagram per received DATA packet
  /// (the pre-coalescing behaviour; benches use it for apples-to-apples
  /// engine comparisons).
  Duration ack_delay = 1 * kMillisecond;
  /// Retransmission k of a packet waits retransmit_interval * 2^k, capped
  /// here.  Bounds the per-packet send rate into black holes (partitions,
  /// not-yet-suspected crashes) while keeping first recovery fast.
  Duration max_retransmit_backoff = 640 * kMillisecond;
  /// NACK / fast retransmit: when the receive side detects a reorder gap (a
  /// sequence beyond next_expected arrives), it reports the missing range to
  /// the sender, which retransmits those packets immediately instead of
  /// waiting out the (exponentially backed-off) retransmission timer.  This
  /// claws back the loss-recovery latency that delayed acks + backoff cost,
  /// without giving up ack coalescing.
  bool nack = true;
  /// Grace delay between detecting a gap and reporting it: benign network
  /// reordering (in-flight packets with jittered latency) closes holes
  /// within the jitter bound, so a NACK goes out only for holes that
  /// persist — real losses.  Must exceed the network's reorder skew and
  /// stay well below retransmit_interval.
  Duration nack_delay = 2 * kMillisecond;
  /// Debounce: the same gap front is re-NACKed at most once per interval
  /// (relays/duplicates would otherwise turn one loss into a NACK burst).
  Duration nack_min_interval = 5 * kMillisecond;
  /// Consult the "fd" service when one is bound: packets to a currently
  /// suspected peer are not retransmitted until the peer is trusted again.
  /// Safe for correct peers — a false suspicion only pauses (never drops)
  /// the retransmission stream, and <>S accuracy rescinds it eventually.
  bool respect_fd = true;
  /// Max buffered deliveries for a channel nobody has bound yet.
  std::size_t max_pending_per_channel = 100'000;
  /// Byte budget for the message section of one batch frame.  A single
  /// message larger than the budget still goes out, alone, as an oversized
  /// degenerate batch (the codec cannot split messages).
  std::size_t batch_max_bytes = 1200;
  /// The longest a parked message waits before its batch is sealed.  A
  /// batch is sealed earlier — at the stack's idle point (HostEnv::
  /// set_idle_timer), once it has no other ready work — unless its link is
  /// *dense*: its smoothed gap between bursts is below this window, so
  /// company is likely and only dense links pay the window.  Pack under
  /// load, send at once when idle (Friedman & van Renesse, "Packing
  /// messages as a tool for boosting the performance of total ordering
  /// protocols", HPDC 1997).  Must stay well below ack_delay and the
  /// network RTT so batching never masquerades as loss.  <= 0 flushes
  /// every send immediately: one one-message batch datagram per send, the
  /// unbatched ablation benches compare against.
  Duration batch_flush_ns = 100 * kMicrosecond;
};

class Rp2pModule final : public Module, public Rp2pApi {
 public:
  using Config = Rp2pConfig;

  static constexpr char kProtocolName[] = "net.rp2p";

  /// Creates the module, binds it to `service`, wires it to the "udp"
  /// service.
  static Rp2pModule* create(Stack& stack,
                            const std::string& service = kRp2pService,
                            Config config = Config{});

  /// Registers "net.rp2p": requires udp.
  static void register_protocol(ProtocolLibrary& library,
                                Config config = Config{});

  Rp2pModule(Stack& stack, std::string instance_name, Config config);

  void start() override;
  void stop() override;

  // Rp2pApi
  void rp2p_send(NodeId dst, ChannelId channel, Payload payload) override;
  void rp2p_bind_channel(ChannelId channel, DatagramHandler handler) override;
  void rp2p_release_channel(ChannelId channel) override;
  void rp2p_note_peer_epoch(NodeId peer, std::uint64_t epoch) override;

  // Introspection for tests/benches.
  [[nodiscard]] std::uint64_t messages_delivered() const { return delivered_; }
  /// App messages accepted by rp2p_send (before batching).
  [[nodiscard]] std::uint64_t messages_sent() const { return messages_sent_; }
  /// DATA datagrams serialized (each carries >= 1 message; exactly 1 when
  /// batch_flush_ns <= 0).  messages_sent / data_datagrams_sent is the
  /// achieved batching factor.
  [[nodiscard]] std::uint64_t data_datagrams_sent() const {
    return data_datagrams_;
  }
  [[nodiscard]] std::uint64_t retransmissions() const {
    return retransmissions_;
  }
  [[nodiscard]] std::uint64_t acks_sent() const { return acks_sent_; }
  [[nodiscard]] std::uint64_t nacks_sent() const { return nacks_sent_; }
  /// Retransmissions triggered by received NACKs (subset of
  /// retransmissions()).
  [[nodiscard]] std::uint64_t fast_retransmits() const {
    return fast_retransmits_;
  }
  /// Retransmit-tick skips of whole peers because the FD suspected them.
  [[nodiscard]] std::uint64_t suspected_skips() const {
    return suspected_skips_;
  }
  /// Link resets triggered by out-of-band rp2p_note_peer_epoch notices
  /// (subset of all epoch adoptions).
  [[nodiscard]] std::uint64_t epoch_notes() const { return epoch_notes_; }
  [[nodiscard]] std::size_t unacked_total() const;
  /// Unacked packets, ignoring destinations in `excluded`.  A permanently
  /// crashed peer never acks (its entries are only abandoned on recovery),
  /// so quiescence probes must not count traffic addressed to it.
  [[nodiscard]] std::size_t unacked_excluding(
      const std::set<NodeId>& excluded) const;
  [[nodiscard]] std::size_t pending_channel_buffered() const {
    std::size_t n = 0;
    for (const auto& [ch, q] : pending_channel_) n += q.size();
    return n;
  }

 private:
  enum MsgType : std::uint8_t { kAck = 1, kNack = 2, kBatch = 3 };

  struct OutPacket {
    /// Full engine-level datagram (UDP header + DATA frame), serialized
    /// exactly once; every (re)transmission re-sends this shared buffer.
    Payload frame;
    TimePoint next_due = 0;   ///< earliest next (re)transmission
    std::uint32_t attempts = 0;
  };

  /// Sequence numbers carry a *stream epoch* in their high bits (see
  /// kIncarnationSeqShift): a stack's streams start at its own incarnation's
  /// epoch base, and jump forward to a peer's epoch when that peer is
  /// observed to have restarted.  Epochs only grow; FIFO/exactly-once hold
  /// within an epoch, and an epoch jump is the crash-recovery reset — the
  /// receiver discards the dead incarnation's state, the sender discards
  /// packets addressed to the dead incarnation.  No wire-format change:
  /// epochs ride inside the existing varint sequence numbers.
  struct PeerOut {
    std::uint64_t next_seq = 1;  // re-based onto the epoch in start()
    std::map<std::uint64_t, OutPacket> unacked;  // seq -> packet
    /// Messages parked for the next batch datagram (send order), their
    /// accumulated wire size, and whether this peer is in batch_queue_.
    /// No sequence number is assigned until the batch flushes.
    std::vector<BatchMessage> pending;
    std::size_t pending_bytes = 0;
    bool batch_queued = false;
    /// Link density: an EWMA (weight 1/8, RFC 6298's SRTT gain) of the
    /// gap between bursts — a burst being the first message sent on this
    /// link since the previous idle point (idle_epoch_).  Per burst, not
    /// per message: one burst's messages land microseconds apart and would
    /// make every link look dense.  Links start sparse (1 s, far above any
    /// window), so boot traffic is sealed at once.
    Duration burst_gap = kSecond;
    TimePoint last_burst = -1;
    std::uint64_t burst_epoch = 0;
  };

  struct PeerIn {
    std::uint64_t next_expected = 1;  // its epoch = the peer's stream epoch
    bool ack_due = false;
    /// Out-of-order batch bodies by sequence, decoded only when they
    /// become deliverable.
    std::map<std::uint64_t, Payload> reorder;
    /// NACK state: whether a gap check is queued, the gap front last
    /// reported, and when.
    bool nack_pending = false;
    std::uint64_t last_nacked = 0;
    TimePoint last_nack_time = -1;
  };

  void on_datagram(NodeId src, const Payload& data);
  /// Handles a DATA frame whose sequence belongs to a newer epoch than the
  /// (src) streams we track: the peer restarted (or learned of our own
  /// restart).  Resets receive state to the new epoch and abandons packets
  /// addressed to the peer's dead incarnation.
  void adopt_peer_epoch(NodeId src, std::uint64_t epoch);
  void transmit(NodeId dst, OutPacket& pkt);
  [[nodiscard]] Duration backoff_after(std::uint32_t attempts) const;
  void note_ack_due(NodeId src, PeerIn& peer);
  void flush_acks();
  /// Queues a delayed gap check for `src` (sends nothing yet: benign
  /// reordering closes most holes within the jitter bound).
  void note_gap(NodeId src, PeerIn& peer);
  /// Runs the queued gap checks; reports each still-open hole
  /// [next_expected, first-buffered) to its sender, debounced per front.
  void flush_nacks();
  /// Sender side of a NACK: immediately retransmits the unacked packets of
  /// [from, to).
  void on_nack(NodeId src, std::uint64_t from, std::uint64_t to);
  void deliver(NodeId src, ChannelId channel, const Payload& payload);
  /// Delivers one in-order batch: decodes its body into batch_scratch_ and
  /// delivers it.
  void deliver_batch(NodeId src, const Payload& body);
  /// Delivers the batch decoded into batch_scratch_, in pack order.
  void deliver_decoded(NodeId src);
  /// Samples the burst gap of `peer` if this send opens a new burst.
  void note_burst(PeerOut& peer);
  /// Queues `dst` for sealing: arms the idle seal and the flush window.
  void note_batch_due(NodeId dst, PeerOut& peer);
  /// Idle point: seals the parked batches of every queued sparse link;
  /// dense links wait for the flush window.
  void seal_sparse_batches();
  /// Flush window: seals the parked batches of every queued destination.
  void flush_batches();
  /// Seals `peer`'s parked batch into one DATA datagram and transmits it.
  void flush_batch(NodeId dst, PeerOut& peer);
  void on_retransmit_tick();

  Config config_;
  ServiceRef<UdpApi> udp_;
  ServiceRef<FdApi> fd_;  ///< unbound in worlds without a failure detector
  /// Epoch base of this stack's outgoing streams ((incarnation << 48); new
  /// peers start at base+1).  Fixed at start() from HostEnv::incarnation.
  std::uint64_t seq_base_ = 0;
  /// Peer state, densely indexed by node id: O(1) lookup on every datagram
  /// and a deterministic iteration order for the retransmit scan.
  std::vector<PeerOut> out_;
  std::vector<PeerIn> in_;
  /// Bound channels (reference-stable dispatch; see HandlerTable).
  HandlerTable<ChannelId, DatagramHandler> channels_;
  /// Deliveries waiting for a channel handler (protocol instance not yet
  /// created on this stack, DESIGN.md §3 / weak protocol-operationability).
  std::unordered_map<ChannelId, std::deque<std::pair<NodeId, Payload>>>
      pending_channel_;
  /// Peers with a coalesced cumulative ack outstanding, in mark order (a
  /// vector, not map iteration, so ack emission order is deterministic
  /// across standard libraries).
  std::vector<NodeId> ack_queue_;
  /// Peers with a queued gap check, in detection order (deterministic).
  std::vector<NodeId> nack_queue_;
  /// Peers with a parked batch awaiting a seal, in first-message order
  /// (deterministic flush order, like ack_queue_).
  std::vector<NodeId> batch_queue_;
  /// Idle points seen so far (starts at 1 so a fresh link's first send
  /// opens a burst).
  std::uint64_t idle_epoch_ = 1;
  /// Decode scratch reused across batch deliveries: it holds the last
  /// decoded batch (swapped out during the delivery loop so re-entrant
  /// handlers cannot alias it).
  std::vector<BatchMessage> batch_scratch_;
  TimerSlot ack_timer_;
  TimerSlot nack_timer_;
  TimerSlot batch_timer_;
  TimerSlot idle_seal_;
  TimerSlot retransmit_timer_;
  std::uint64_t delivered_ = 0;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t data_datagrams_ = 0;
  std::uint64_t retransmissions_ = 0;
  std::uint64_t acks_sent_ = 0;
  std::uint64_t nacks_sent_ = 0;
  std::uint64_t fast_retransmits_ = 0;
  std::uint64_t suspected_skips_ = 0;
  std::uint64_t epoch_notes_ = 0;
};

}  // namespace dpu

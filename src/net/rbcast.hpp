// RBcast — eager reliable broadcast over RP2P.
//
// Algorithm (classic eager/"Lamport" reliable broadcast): the origin sends
// (origin, seq, payload) to every stack including itself; on the *first*
// receipt of a given (origin, seq), a stack relays the message to all other
// stacks and delivers it.  The relay guarantees: if any stack delivers m,
// every correct stack eventually delivers m, even if the origin crashed
// mid-broadcast — the agreement property consensus (DECIDE dissemination)
// and the ABcast protocols build on.
#pragma once

#include <deque>
#include <unordered_map>

#include "core/module.hpp"
#include "core/stack.hpp"
#include "net/msg_dedup.hpp"
#include "net/services.hpp"

namespace dpu {

struct RbcastConfig {
  /// Relay on first receipt.  Disabling reduces the message complexity
  /// from O(n^2) to O(n) but forfeits agreement when the origin crashes
  /// mid-broadcast; the ablation bench measures the difference, and the
  /// "rbcast.norelay" library exposes it as a switchable protocol variant.
  bool relay = true;
  std::size_t max_pending_per_channel = 100'000;
  /// RP2P channel this instance sends and receives on.  The default is the
  /// singleton substrate channel; dynamically created instances (replacement
  /// versions) derive a channel from their cross-stack-identical instance
  /// name so two coexisting versions never share one.
  ChannelId rp2p_channel = kRbcastChannel;
};

class RbcastModule final : public Module, public RbcastApi {
 public:
  using Config = RbcastConfig;

  static constexpr char kProtocolName[] = "rbcast.eager";
  static constexpr char kProtocolNameNoRelay[] = "rbcast.norelay";

  /// `instance_name` defaults to the service name; dynamic instances pass
  /// their cross-stack-identical versioned name for trace correlation.
  static RbcastModule* create(Stack& stack,
                              const std::string& service = kRbcastService,
                              Config config = Config{},
                              const std::string& instance_name = "");

  /// Registers "rbcast.eager" (relay-on-first-receipt) and "rbcast.norelay"
  /// (O(n) messages, no crash agreement): both require rp2p.  Dynamic
  /// instances take their rp2p channel from the "instance" param.
  static void register_protocol(ProtocolLibrary& library,
                                Config config = Config{});

  RbcastModule(Stack& stack, std::string instance_name, Config config);

  void start() override;
  void stop() override;

  // RbcastApi
  void rbcast(ChannelId channel, Payload payload) override;
  void rbcast_bind_channel(ChannelId channel, BroadcastHandler handler) override;
  void rbcast_release_channel(ChannelId channel) override;

  [[nodiscard]] std::uint64_t broadcasts_sent() const { return sent_; }
  [[nodiscard]] std::uint64_t deliveries() const { return delivered_; }
  [[nodiscard]] std::uint64_t relays() const { return relays_; }

 private:
  void on_message(NodeId from, const Payload& data);
  void deliver(ChannelId channel, NodeId origin, const Payload& payload);

  Config config_;
  ServiceRef<Rp2pApi> rp2p_;
  std::uint64_t next_seq_ = 1;  ///< re-based onto the incarnation in start()
  /// First-receipt filter over (origin, seq), across incarnations: late
  /// relays of a dead incarnation's messages must still dedup *and still
  /// deliver* — agreement holds for a message delivered somewhere even if
  /// its origin restarted before every stack saw it.
  MsgDedup seen_;
  /// Bound channels (reference-stable dispatch; see HandlerTable).
  HandlerTable<ChannelId, BroadcastHandler> channels_;
  std::unordered_map<ChannelId, std::deque<std::pair<NodeId, Payload>>>
      pending_channel_;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t relays_ = 0;
};

}  // namespace dpu

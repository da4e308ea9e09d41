// CT-ABcast — atomic broadcast by reduction to consensus (Chandra–Toueg).
//
// This is the paper's ABcast module (Figure 4): "The ABcast module
// implements atomic broadcast ...; the module requires the consensus
// service."
//
// Algorithm:
//  1. abcast(m): assign m the unique id (self, seq), reliable-broadcast it
//     on this instance's data channel.
//  2. Every stack keeps `pending` = received-but-undelivered messages.  When
//     pending is non-empty and the previous instance is settled, it proposes
//     (batched) pending messages for the next consensus instance k.
//  3. The decision of instance k is a batch proposed by some stack; every
//     stack delivers the batch's messages (skipping already-delivered ones)
//     in the batch's canonical order.  The pair (instance, position) is the
//     uniform total order.
//  4. Messages of m not covered by the decided batch stay pending and are
//     re-proposed for k+1.
//
// Decisions can arrive out of instance order (decide dissemination is
// unordered reliable broadcast), so they are buffered and applied strictly
// in instance order.
#pragma once

#include <map>

#include "consensus/consensus.hpp"
#include "abcast/abcast.hpp"
#include "core/module.hpp"
#include "core/stack.hpp"
#include "net/msg_dedup.hpp"
#include "net/services.hpp"

namespace dpu {

struct CtAbcastConfig {
  /// Max messages folded into one consensus proposal.
  std::size_t batch_max = 128;
};

class CtAbcastModule final : public Module, public AbcastApi {
 public:
  using Config = CtAbcastConfig;

  static constexpr char kProtocolName[] = "abcast.ct";

  /// Creates the module, binds it to `service`.  `instance_name` must be
  /// identical across stacks and unique per protocol incarnation (wire
  /// channels and the consensus stream derive from it); it defaults to the
  /// service name for statically composed stacks.
  static CtAbcastModule* create(Stack& stack,
                                const std::string& service = kAbcastService,
                                Config config = Config{},
                                const std::string& instance_name = "");

  /// Registers "abcast.ct" in the library: requires consensus + rbcast;
  /// recognized ModuleParams: "batch_max", "instance".
  static void register_protocol(ProtocolLibrary& library,
                                Config config = Config{});

  CtAbcastModule(Stack& stack, std::string instance_name, std::string service,
                 Config config);

  void start() override;
  void stop() override;

  // AbcastApi
  void abcast(Payload payload) override;

  [[nodiscard]] std::uint64_t deliveries() const { return deliveries_; }
  [[nodiscard]] std::uint64_t instances_settled() const { return next_apply_ - 1; }
  [[nodiscard]] std::size_t pending_count() const { return pending_.size(); }
  /// Retained state of the delivered-id filter (ahead-runs; 0 while every
  /// origin's messages settle in id order).
  [[nodiscard]] std::size_t delivered_entries() const {
    return delivered_.entries();
  }

 private:
  void on_data(NodeId origin, const Payload& data);
  void on_decision(InstanceId instance, const Bytes& batch);
  void apply_batch(const Bytes& batch);
  void try_start_instance();

  Config config_;
  ServiceRef<ConsensusApi> consensus_;
  ServiceRef<RbcastApi> rbcast_;
  UpcallRef<AbcastListener> up_;
  StreamId stream_;
  ChannelId data_channel_;

  std::uint64_t next_local_seq_ = 1;  // re-based onto the incarnation
  InstanceId last_sync_requested_ = 0;  // gap catch-up dedup
  std::map<MsgId, Bytes> pending_;  // ordered => canonical batch order
  /// Ids already delivered (integrity: once only).  Ids are contiguous per
  /// origin from the incarnation base, so this stays O(1) in steady state.
  MsgDedup delivered_;
  InstanceId next_apply_ = 1;        // next decision to apply
  bool proposed_current_ = false;    // proposed instance next_apply_ already
  std::map<InstanceId, Bytes> decision_buffer_;
  std::uint64_t deliveries_ = 0;
};

}  // namespace dpu

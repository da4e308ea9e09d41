// Repl-RBcast — dynamic replacement of the *reliable broadcast* protocol,
// instantiating the shared replacement substrate (repl/facade.hpp) for a
// service without a total order.
//
// Structure is the paper's facade/inner pattern (Figure 3): this module
// provides the facade "rbcast" service that consensus, Repl-Consensus and
// the ABcast protocols call, and requires the inner "rbcast.inner" service
// the real protocol binds to.  Inner modules are unaware of replacement;
// only the rbcast *specification* (validity, uniform agreement, integrity —
// no ordering) is assumed.
//
// Two deliberate deviations from Algorithm 1, both consequences of rbcast
// having no total order:
//
//  * No consistent switch point.  The change message is reliably broadcast
//    through the inner protocol (the Algorithm-1 stance: coordinate through
//    the protocol being replaced), so every correct stack eventually
//    switches exactly once — but at its own point of its own delivery
//    sequence.  rbcast's specification orders nothing, so no client can
//    observe the skew.
//  * Dedup instead of stale-discard.  Line 18's "discard stale versions" is
//    sound only under total order (stale here = stale everywhere).  Here a
//    version-v copy may legitimately deliver at stack A before A switches
//    while B discards it after switching — if B dropped it and the origin
//    (which already delivered it locally) never reissued, B would violate
//    agreement.  The facade therefore accepts any version's copy and
//    deduplicates by message id across versions (MsgDedup);
//    reissue of the undelivered set (line 16) still bounds the switch's
//    delivery latency.
//
// Discipline (documented requirement, like Repl-Consensus's): one rbcast
// replacement in flight at a time.  Concurrent change requests from
// different stacks have no order to serialize them; the facade drops a
// change whose version does not match its current one and logs it.
//
// Recovery and late join ride the substrate's state-transfer machinery in
// kMetadata mode: a recovering stack obtains the current (protocol, version)
// from a peer, which coordinates a refresh switch (kNewProtocolSync) through
// the inner rbcast so every stack re-enters a fresh instance and notes the
// recovered stack's incarnation epoch to rp2p at its own switch point.  No
// delivered history is transferred — rbcast orders nothing and owes none;
// upper layers (consensus, abcast) recover their state through their own
// catch-up protocols.
#pragma once

#include <string>
#include <unordered_map>

#include "core/module.hpp"
#include "core/stack.hpp"
#include "net/msg_dedup.hpp"
#include "net/services.hpp"
#include "repl/facade.hpp"
#include "repl/update.hpp"

namespace dpu {

/// The service name the replacement module re-binds the real rbcast provider
/// to (cf. kAbcastInnerService).
inline constexpr char kRbcastInnerService[] = "rbcast.inner";

struct ReplRbcastConfig {
  std::string facade_service = kRbcastService;
  std::string inner_service = kRbcastInnerService;
  /// Protocol (library name, e.g. "rbcast.eager") installed at start.
  std::string initial_protocol = "rbcast.eager";
  ModuleParams initial_params;
  /// If > 0, destroy a replaced module this long after the switch.
  Duration retire_after = 0;
};

class ReplRbcastModule final : public ReplacementFacadeBase, public RbcastApi {
 public:
  using Config = ReplRbcastConfig;

  static ReplRbcastModule* create(Stack& stack, Config config = Config{});

  ReplRbcastModule(Stack& stack, std::string instance_name, Config config);

  void start() override;
  void stop() override;

  // ---- Facade RbcastApi ---------------------------------------------------
  void rbcast(ChannelId channel, Payload payload) override;
  void rbcast_bind_channel(ChannelId channel, BroadcastHandler handler) override;
  void rbcast_release_channel(ChannelId channel) override;

  // request_update (ReplacementFacadeBase) switches the inner rbcast
  // protocol globally: every correct stack performs the switch exactly once
  // (reliable broadcast), each at its own point of its unordered delivery
  // sequence.
  [[nodiscard]] const char* update_mechanism_name() const override {
    return "repl-rbcast";
  }

  /// Cross-version duplicates suppressed (the unordered analogue of the
  /// stale counter; also surfaced as stale_discarded()).
  [[nodiscard]] std::uint64_t duplicates_discarded() const {
    return stale_discarded_;
  }
  /// Change messages dropped for violating the one-switch-at-a-time
  /// discipline.
  [[nodiscard]] std::uint64_t changes_dropped() const {
    return changes_dropped_;
  }
  /// Retained dedup state (interval runs across all origins/epochs) — the
  /// memory bound under sustained churn, surfaced as a scenario counter.
  [[nodiscard]] std::size_t dedup_entries() const { return dedup_.entries(); }

  static constexpr char kTraceChangeRequested[] = "replr-change-requested";
  static constexpr char kTraceSwitchDone[] = "replr-switch-done";

 protected:
  // ---- ReplacementFacadeBase hooks ----------------------------------------
  void send_inner_change(Payload wrapped) override;
  void send_inner_data(Payload wrapped, std::uint64_t ctx) override;
  void on_inner_installed(Module* created, std::uint64_t sn) override;
  void on_inner_retired(Module* retired) override;
  [[nodiscard]] const char* change_requested_marker() const override {
    return kTraceChangeRequested;
  }
  [[nodiscard]] const char* switch_done_marker() const override {
    return kTraceSwitchDone;
  }

 private:
  void on_inner_message(ChannelId channel, NodeId from, const Payload& data);
  void on_switch_message(NodeId from, const Payload& data);
  /// Intercepts `channel` on inner version `api` (wrapped traffic of one
  /// client channel).
  void bind_interceptor(RbcastApi& api, ChannelId channel);

  ServiceRef<RbcastApi> inner_;
  /// Coordination channel of the change messages (derived from the
  /// cross-stack-identical instance name).
  ChannelId switch_channel_;
  /// Every live inner version, oldest first: client channels are intercepted
  /// on all of them, so late cross-version copies (and old versions' pending
  /// buffers) still reach the facade.  Retirement removes entries.
  struct InnerVersion {
    Module* module = nullptr;
    RbcastApi* api = nullptr;
  };
  std::vector<InnerVersion> versions_;
  /// Client handlers (reference-stable dispatch; see HandlerTable).
  HandlerTable<ChannelId, BroadcastHandler> channels_;
  /// Cross-version dedup.  Keeps the newest kMaxOldEpochs archived windows
  /// per origin: a copy several restarts stale is suppressed, the
  /// no-duplicates side.
  MsgDedup dedup_;
  static constexpr std::size_t kMaxOldEpochs = 4;
  std::uint64_t changes_dropped_ = 0;
};

}  // namespace dpu

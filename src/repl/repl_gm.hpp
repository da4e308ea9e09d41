// Repl-GM — dynamic replacement of the *group membership* protocol,
// instantiating the shared replacement substrate (repl/facade.hpp) for a
// dependent, stateful layer (ROADMAP: "GM-layer replacement through the same
// facade/inner pattern").
//
// Structure is the paper's facade/inner pattern: this module provides the
// facade "gm" service applications call, and the real GM protocol binds to a
// *versioned* inner slot ("gm.inner#<sn>") that only the facade knows.  The
// inner GM modules are unaware of replacement; only the membership
// *specification* — every stack installs the same sequence of views — is
// assumed.
//
// Coordination rides the totally-ordered channel GM itself depends on (the
// topic mux over abcast, paper Figure 4): the change message is published on
// the facade's own topic, so every stack performs the switch at the same
// point of the total order relative to every membership op — the Algorithm-1
// property, obtained from the layer *below* the replaced one because GM's
// own interface (join/leave/exclude) cannot carry an opaque change message.
//
// State continuity.  A fresh inner GM instance boots with the full static
// world as its view.  At the switch point every stack holds the identical
// current view V (total order), so each stack deterministically re-excludes
// the non-members of V through the new instance; the n-fold duplicate
// excludes are no-ops by GM's own idempotence rule ("no-op operations do not
// create a view"), so all stacks still install the same view sequence.
// Membership ops that were published under the old version but ordered
// *after* the switch land in the (unbound, still live) old instance on every
// stack uniformly — the GM analogue of Algorithm 1's line-18 stale discard;
// unlike abcast messages they are not reissued, because GM's specification
// owes clients view consistency, not op delivery.
//
// The facade renumbers view ids monotonically across versions, so clients
// observe one continuous view history.
#pragma once

#include <string>

#include "app/topics.hpp"
#include "core/module.hpp"
#include "core/stack.hpp"
#include "gm/gm.hpp"
#include "repl/facade.hpp"
#include "repl/update.hpp"

namespace dpu {

/// Versioned inner slots are "<prefix>#<sn>" (cf. kAbcastInnerService).
inline constexpr char kGmInnerService[] = "gm.inner";

struct ReplGmConfig {
  std::string facade_service = kGmService;
  std::string inner_service = kGmInnerService;
  /// Protocol (library name, e.g. "gm.abcast") installed at start.
  std::string initial_protocol = "gm.abcast";
  ModuleParams initial_params;
  /// If > 0, destroy a replaced module this long after the switch.
  Duration retire_after = 0;
};

class ReplGmModule final : public ReplacementFacadeBase,
                           public GmApi,
                           public GmListener {
 public:
  using Config = ReplGmConfig;

  static ReplGmModule* create(Stack& stack, Config config = Config{});

  ReplGmModule(Stack& stack, std::string instance_name, Config config);

  void start() override;
  void stop() override;

  // ---- Facade GmApi -------------------------------------------------------
  void gm_join(NodeId node) override;
  void gm_leave(NodeId node) override;
  void gm_exclude(NodeId node) override;
  [[nodiscard]] const View& gm_view() const override { return view_; }

  // ---- Inner-version GmListener (views of the current version) ------------
  void on_view(const View& view) override;

  [[nodiscard]] const char* update_mechanism_name() const override {
    return "repl-gm";
  }

  /// Facade-renumbered view history across all versions, in order.
  [[nodiscard]] const std::vector<View>& history() const { return history_; }

  static constexpr char kTraceChangeRequested[] = "replg-change-requested";
  static constexpr char kTraceSwitchDone[] = "replg-switch-done";

 protected:
  // ---- ReplacementFacadeBase hooks ----------------------------------------
  void send_inner_change(Payload wrapped) override;
  void send_inner_data(Payload wrapped, std::uint64_t ctx) override;
  void on_inner_installed(Module* created, std::uint64_t sn) override;
  [[nodiscard]] const char* change_requested_marker() const override {
    return kTraceChangeRequested;
  }
  [[nodiscard]] const char* switch_done_marker() const override {
    return kTraceSwitchDone;
  }

 private:
  void on_change_message(NodeId from, const Bytes& payload);
  template <class Fn>
  void call_inner(Fn&& fn);

  ServiceRef<TopicsApi> topics_;
  UpcallRef<GmListener> up_;
  /// Control topic of the change messages (identical across stacks).
  std::string switch_topic_;
  /// Inner slot the facade currently listens on ("" before version 0).
  std::string listening_on_;
  /// Facade view: inner views renumbered monotonically across versions.
  View view_;
  std::vector<View> history_;
};

}  // namespace dpu

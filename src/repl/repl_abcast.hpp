// Repl-ABcast — the paper's replacement module for atomic broadcast
// (Section 4 structure, Section 5 Algorithm 1).
//
// Structure (Figure 3): this module provides the *facade* abcast service
// that applications and dependent protocols (e.g. GM) call, and requires the
// *inner* abcast service that the real protocol binds to.  It intercepts
// both directions:
//   * calls     — facade abcast()  -> wrap -> inner abcast()
//   * responses — inner adeliver_batch() -> filter/unwrap -> facade
//                 adeliver_batch(), one upcall per run of fresh messages
// The inner protocol modules are completely unaware that replacement exists;
// only the abcast *specification* (§5.1) is assumed — the paper's modularity
// claim versus Maestro and Graceful Adaptation.
//
// The wrap/filter/unwrap plumbing, undelivered tracking, switch sequencing
// and version accounting live in the shared replacement substrate
// (repl/facade.hpp, ReplacementFacadeBase); this class supplies only the
// abcast-specific parts of Algorithm 1 (code of stack i):
//   1-4   state:            base (undelivered set, seq_number, cur module)
//   5-6   changeABcast(p):  request_update()  -> inner ABcast(newABcast,sn,p)
//   7-9   rABcast(m):       abcast(m)         -> undelivered += m;
//                                                inner ABcast(nil,sn,m)
//   10-16 Adeliver(newABcast,sn,prot):
//                            adeliver(tag=kNewProtocol): perform_switch —
//                            unbind old; create_module(prot) (recursively
//                            creating providers for missing services,
//                            lines 22-28 live in Stack::create_module);
//                            bind new; re-ABcast all undelivered
//   17-21 Adeliver(nil,sn,m):
//                            adeliver(tag=kNil): discard if sn stale;
//                            undelivered -= m; facade rAdeliver(m)
//
// The stale-discard of line 18 is sound *because* abcast is totally ordered:
// every stack switches at the same point of the delivery order, so a message
// that is stale here is stale everywhere, and its origin re-issues it under
// the new version (line 16).  Facades over unordered services (repl_rbcast)
// must deduplicate by message id instead.
//
// The old module stays in the stack after unbinding (it may still deliver
// responses, which line 18 discards); `retire_after` optionally destroys it
// once it can no longer matter — an extension over the paper, off by
// default.
#pragma once

#include <string>

#include "abcast/abcast.hpp"
#include "core/module.hpp"
#include "core/stack.hpp"
#include "repl/facade.hpp"
#include "repl/update.hpp"

namespace dpu {

struct ReplAbcastConfig {
  /// Service name applications call (paper: the interface r-p).
  std::string facade_service = kAbcastService;
  /// Service name the real protocol binds to (paper: p).
  std::string inner_service = kAbcastInnerService;
  /// Protocol (library name, e.g. "abcast.ct") installed at start.
  std::string initial_protocol = "abcast.ct";
  ModuleParams initial_params;
  /// If > 0, destroy a replaced module this long after the switch
  /// (extension; 0 keeps old modules in the stack forever, like the paper).
  Duration retire_after = 0;
};

class ReplAbcastModule final : public ReplacementFacadeBase,
                               public AbcastApi,
                               public AbcastListener {
 public:
  using Config = ReplAbcastConfig;

  static ReplAbcastModule* create(Stack& stack, Config config = Config{});

  ReplAbcastModule(Stack& stack, std::string instance_name, Config config);

  void start() override;
  void stop() override;

  // ---- Facade AbcastApi (Algorithm 1 lines 7-9: rABcast) ----
  void abcast(Payload payload) override;

  // ---- Inner-service listener (Algorithm 1 lines 10-21: Adeliver) ----
  /// Runs lines 10-21 per message.  Each maximal run of fresh data messages
  /// goes up to the clients in one upcall; a change message first flushes
  /// the run before it, then switches.
  void adeliver_batch(std::span<const AbcastDelivery> run) override;
  /// A one-element batch.
  void adeliver(NodeId sender, const Bytes& inner_payload) override;

  // ---- UpdateMechanism (repl/update.hpp) -----------------------------------
  // Algorithm 1 lines 5-6 are request_update (ReplacementFacadeBase): a
  // global, totally-ordered switch of the inner ABcast protocol.  Any stack
  // may request it; every stack performs the switch at the same point of
  // the ABcast delivery order.
  [[nodiscard]] const char* update_mechanism_name() const override {
    return "repl";
  }

  /// Trace detail strings emitted as TraceKind::kCustom markers; benches
  /// locate switch windows by scanning for these.
  static constexpr char kTraceChangeRequested[] = "repl-change-requested";
  static constexpr char kTraceSwitchDone[] = "repl-switch-done";

 protected:
  // ---- ReplacementFacadeBase hooks ----------------------------------------
  void send_inner_change(Payload wrapped) override { inner_abcast(std::move(wrapped)); }
  void send_inner_data(Payload wrapped, std::uint64_t /*ctx*/) override {
    inner_abcast(std::move(wrapped));
  }
  /// Snapshot replay (state_sync = kLog): re-delivers the peer's recorded
  /// history to this stack's clients in the original total order, so a
  /// recovered incarnation's delivery sequence audits clean from the
  /// beginning of history.
  void replay_delivered(std::span<const LogEntry> run) override;
  [[nodiscard]] const char* change_requested_marker() const override {
    return kTraceChangeRequested;
  }
  [[nodiscard]] const char* switch_done_marker() const override {
    return kTraceSwitchDone;
  }

 private:
  void inner_abcast(Payload wrapped);

  ServiceRef<AbcastApi> inner_;
  UpcallRef<AbcastListener> up_;
};

}  // namespace dpu

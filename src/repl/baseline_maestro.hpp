// Maestro-style baseline: full-stack replacement with application blocking.
//
// Models the approach of van Renesse et al.'s Maestro as §4.2 describes it:
// "Maestro supports only the replacement of complete protocol stacks ...
// The SS module is in charge to dynamically replace stacks.  Its main role
// is to (1) finalize the local old stack, and (2) coordinate the start of
// the new stack as soon as possible."
//
// Mechanics of this implementation:
//  * A switch marker is sent through the running ABcast (a totally-ordered
//    cut, standing in for Maestro's group-membership-based coordination).
//  * On delivering the marker, the stack BLOCKS the application (subsequent
//    abcast calls are queued), finalizes the old protocol layer — the
//    ABcast module *and* its consensus substrate are stopped and destroyed,
//    since Maestro cannot replace a single protocol — and rebuilds fresh
//    instances.
//  * Stacks exchange READY messages; when all stacks are ready, the
//    application is unblocked, queued calls and in-flight messages are
//    re-issued through the new stack.
//
// The measurable contrast with Repl-ABcast (paper §5.3): the application is
// blocked for the whole finalize+rebuild+barrier window, and the rebuild
// includes warm-up of the whole protocol layer.  Like Maestro itself, the
// coordination here assumes the switch window is failure-free.
#pragma once

#include <deque>
#include <map>
#include <string>

#include "abcast/abcast.hpp"
#include "core/module.hpp"
#include "core/stack.hpp"
#include "net/services.hpp"
#include "repl/update.hpp"

namespace dpu {

struct MaestroConfig {
  std::string facade_service = kAbcastService;
  std::string inner_service = kAbcastInnerService;
  std::string initial_protocol = "abcast.ct";
  /// Consensus provider rebuilt together with the ABcast layer.
  std::string consensus_protocol = "consensus.ct";
  ModuleParams initial_params;
};

class MaestroSwitchModule final : public Module,
                                  public AbcastApi,
                                  public AbcastListener,
                                  public UpdateMechanism {
 public:
  using Config = MaestroConfig;

  static MaestroSwitchModule* create(Stack& stack, Config config = Config{});

  MaestroSwitchModule(Stack& stack, std::string instance_name, Config config);

  void start() override;
  void stop() override;

  // Facade AbcastApi: forwards, or queues while the stack is switching.
  void abcast(Payload payload) override;

  // Inner listener.
  void adeliver(NodeId sender, const Bytes& inner_payload) override;

  // ---- UpdateMechanism (repl/update.hpp) -----------------------------------
  [[nodiscard]] const std::string& update_service() const override {
    return config_.facade_service;
  }
  [[nodiscard]] const char* update_mechanism_name() const override {
    return "maestro";
  }
  /// Requests a full-stack switch to `protocol` (totally ordered cut).
  /// Throws std::logic_error for a protocol the library does not know.
  void request_update(const std::string& protocol,
                      const ModuleParams& params) override;
  [[nodiscard]] UpdateStatus update_status() const override {
    return UpdateStatus{cur_protocol_, version_};
  }

  [[nodiscard]] bool blocked() const { return blocked_; }
  [[nodiscard]] std::uint64_t switches_completed() const {
    return switches_completed_;
  }
  /// Cumulative wall/virtual time the application spent blocked.
  [[nodiscard]] Duration total_blocked_time() const {
    return total_blocked_time_;
  }
  [[nodiscard]] std::uint64_t calls_queued_while_blocked() const {
    return calls_queued_;
  }

  static constexpr char kTraceBlocked[] = "maestro-app-blocked";
  static constexpr char kTraceUnblocked[] = "maestro-app-unblocked";

 private:
  enum Tag : std::uint8_t { kNil = 0, kSwitchMarker = 1 };

  void inner_abcast_wrapped(const MsgId& id, const Payload& payload);
  void perform_local_switch(const std::string& protocol,
                            const ModuleParams& params);
  void on_ready(NodeId from, const Payload& data);
  void maybe_unblock();

  Config config_;
  ServiceRef<AbcastApi> inner_;
  ServiceRef<Rp2pApi> rp2p_;
  UpcallRef<AbcastListener> up_;
  UpdateManagerModule* manager_ = nullptr;  // null when composed standalone
  ChannelId ready_channel_;

  std::uint64_t version_ = 0;  // sn: stamps messages; ++ at each stack switch
  std::uint64_t next_local_ = 1;
  std::map<MsgId, Payload> undelivered_;
  std::string cur_protocol_;

  bool blocked_ = false;
  TimePoint blocked_since_ = 0;
  Duration total_blocked_time_ = 0;
  std::deque<Payload> queued_while_blocked_;
  std::set<NodeId> ready_from_;
  std::uint64_t calls_queued_ = 0;
  std::uint64_t switches_completed_ = 0;
};

}  // namespace dpu

// Graceful-Adaptation-style baseline: coordinated AAC switch with barrier
// rounds (Chen/Hiltunen/Schlichting, as §4.2 describes it).
//
// Roles: the stack that initiates the switch acts as the *component
// adaptor* (CA); every stack hosts the old and (during a switch) the new
// *adaptation-aware component* (AAC) — here: two ABcast protocol instances
// bound to versioned internal services.
//
// Switch procedure (following the paper's three steps, plus the ordered
// flush that makes the cut consistent):
//   1. CA sends PREPARE to all stacks; each creates the new AAC and replies
//      PREPARED.                                 (barrier round 1)
//   2. CA sends DEACTIVATE; each stack stops feeding the old AAC (new
//      application calls are queued), waits until its own in-flight
//      messages have been delivered, replies DRAINED.   (barrier round 2)
//   3. CA broadcasts an ACTIVATE marker through the *old* AAC; its totally
//      ordered delivery is the activation point: every stack unqueues into
//      the new AAC.
//
// Measured contrasts with Repl-ABcast (paper §5.3):
//  * barrier synchronization (two control rounds + drain wait) stretches
//    the switch duration; application calls queue during phases 2-3;
//  * the restriction that "each AAC in a module m can only use the services
//    required by m": a switch target requiring an unbound service is
//    rejected (no recursive creation — Repl's flexibility advantage).
#pragma once

#include <deque>
#include <map>
#include <set>
#include <string>

#include "abcast/abcast.hpp"
#include "core/module.hpp"
#include "core/stack.hpp"
#include "net/services.hpp"
#include "repl/update.hpp"

namespace dpu {

struct GracefulConfig {
  std::string facade_service = kAbcastService;
  /// Prefix of the versioned internal AAC services ("<prefix>#<version>").
  std::string aac_service_prefix = "abcast.aac";
  std::string initial_protocol = "abcast.ct";
  ModuleParams initial_params;
};

class GracefulSwitchModule final : public Module,
                                   public AbcastApi,
                                   public AbcastListener,
                                   public UpdateMechanism {
 public:
  using Config = GracefulConfig;

  static GracefulSwitchModule* create(Stack& stack, Config config = Config{});

  GracefulSwitchModule(Stack& stack, std::string instance_name, Config config);

  void start() override;
  void stop() override;

  // Facade AbcastApi.
  void abcast(Payload payload) override;

  // Listener on the versioned AAC services.
  void adeliver(NodeId sender, const Bytes& inner_payload) override;

  // ---- UpdateMechanism (repl/update.hpp) -----------------------------------
  [[nodiscard]] const std::string& update_service() const override {
    return config_.facade_service;
  }
  [[nodiscard]] const char* update_mechanism_name() const override {
    return "graceful";
  }
  /// Initiates the coordinated adaptation (this stack becomes the CA).
  /// Throws std::logic_error if `protocol` requires a service that is not
  /// bound — the Graceful Adaptation restriction.
  void request_update(const std::string& protocol,
                      const ModuleParams& params) override;
  /// The *activated* AAC, not the prepared one: until barrier round 3 the
  /// application still runs on the old protocol.
  [[nodiscard]] UpdateStatus update_status() const override {
    return UpdateStatus{active_protocol_, version_};
  }

  [[nodiscard]] std::uint64_t switches_completed() const {
    return switches_completed_;
  }
  [[nodiscard]] std::uint64_t calls_queued_during_switch() const {
    return calls_queued_;
  }
  [[nodiscard]] Duration total_queueing_window() const {
    return total_queue_window_;
  }
  [[nodiscard]] std::uint64_t late_old_deliveries() const {
    return late_old_deliveries_;
  }
  [[nodiscard]] bool switching() const {
    return phase_ != Phase::kIdle || is_ca_;
  }

  static constexpr char kTraceDeactivated[] = "graceful-deactivated";
  static constexpr char kTraceActivated[] = "graceful-activated";

 private:
  enum class Phase { kIdle, kPrepared, kDraining, kAwaitingMarker };
  enum CtlType : std::uint8_t {
    kPrepare = 0,
    kPrepared = 1,
    kDeactivate = 2,
    kDrained = 3,
  };
  enum Tag : std::uint8_t { kData = 0, kActivateMarker = 1 };

  [[nodiscard]] std::string aac_service(std::uint64_t version) const {
    return config_.aac_service_prefix + "#" + std::to_string(version);
  }

  void send_ctl(NodeId dst, CtlType type, std::uint64_t switch_id,
                const std::string& protocol, const ModuleParams& params);
  void on_ctl(NodeId from, const Payload& data);
  void prepare_new_aac(std::uint64_t switch_id, const std::string& protocol,
                       const ModuleParams& params);
  void begin_drain();
  void check_drained();
  void activate();
  void forward_to_active(const Payload& payload);

  Config config_;
  ServiceRef<Rp2pApi> rp2p_;
  UpcallRef<AbcastListener> up_;
  UpdateManagerModule* manager_ = nullptr;  // null when composed standalone
  ChannelId ctl_channel_;

  std::uint64_t version_ = 0;  // active AAC version
  std::uint64_t next_local_ = 1;
  std::set<MsgId> in_flight_;  // own messages not yet self-delivered
  std::string cur_protocol_;     // latest prepared AAC
  std::string active_protocol_;  // AAC the application actually runs on

  Phase phase_ = Phase::kIdle;
  std::uint64_t switch_id_ = 0;  // == version_ + 1 while switching
  bool is_ca_ = false;
  std::set<NodeId> prepared_from_;
  std::set<NodeId> drained_from_;
  std::deque<Payload> queued_calls_;
  TimePoint queue_since_ = 0;

  std::uint64_t switches_completed_ = 0;
  std::uint64_t calls_queued_ = 0;
  Duration total_queue_window_ = 0;
  std::uint64_t late_old_deliveries_ = 0;
};

}  // namespace dpu

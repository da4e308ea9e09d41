// Repl-Consensus — dynamic replacement of the *consensus* protocol.
//
// The paper announces this as future work ("We have already designed an
// algorithm to replace consensus protocols [16]"); the technical report is
// not publicly available, so this module implements a replacement algorithm
// designed here in the same spirit as Algorithm 1: coordinate the switch
// through the protocol being replaced, and let a totally-ordered point in
// its own decision sequence define the cut.
//
// Consensus is multi-stream/multi-instance (unlike the single delivery
// stream of ABcast), so the cut is per stream:
//
//  * The facade wraps every proposed value.  Once a switch to version V has
//    been announced (via reliable broadcast), every proposal that a stack
//    still routes to an older version carries a *switch vote* describing V.
//  * For each stream, the first decided instance whose (unique, agreed)
//    decided wrapper carries a vote is the stream's *boundary* b: instances
//    <= b belong to the old protocol, instances > b to the new one.  Since
//    the decision of an instance is identical everywhere, every stack
//    derives the same boundary — no extra agreement needed.
//  * A stack processes each stream's decisions in instance order, so it
//    learns boundaries deterministically; proposals it had routed to the
//    wrong side are re-submitted to the right module (the inner modules
//    deduplicate).  Decisions produced by the wrong side for an instance
//    are ignored by everyone (same rule, same data), so safety is
//    unaffected even while stacks disagree transiently about routing.
//
// Requirements documented for users (checked in tests):
//  * clients use instances of a stream sequentially (k+1 after k decided) —
//    true of CT-ABcast, the only in-tree client;
//  * one consensus switch at a time (votes target exactly version auth+1).
//
// Both old and new consensus modules keep running; idle old instances decay
// to a capped retry timer.  Like Algorithm 1, modules are unaware of the
// replacement: only the consensus *specification* is assumed.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "consensus/consensus.hpp"
#include "core/module.hpp"
#include "core/stack.hpp"
#include "repl/update.hpp"

namespace dpu {

struct ReplConsensusConfig {
  std::string facade_service = kConsensusService;
  /// Versioned inner service names: "<prefix>#<version>".
  std::string inner_prefix = "consensus.inner";
  std::string initial_protocol = "consensus.ct";
  ModuleParams initial_params;
};

class ReplConsensusModule final : public Module,
                                  public ConsensusApi,
                                  public UpdateMechanism {
 public:
  using Config = ReplConsensusConfig;

  static ReplConsensusModule* create(Stack& stack, Config config = Config{});

  ReplConsensusModule(Stack& stack, std::string instance_name, Config config);

  void start() override;
  void stop() override;

  // Facade ConsensusApi.
  void propose(StreamId stream, InstanceId instance,
               const Bytes& value) override;
  void consensus_bind_stream(StreamId stream, DecisionHandler handler) override;
  void consensus_release_stream(StreamId stream) override;
  /// Forwarded to every inner version: only the module(s) actually hosting
  /// the stream hold decisions to resend.
  void consensus_sync(StreamId stream, InstanceId from_instance) override;

  // ---- UpdateMechanism (repl/update.hpp) -----------------------------------
  [[nodiscard]] const std::string& update_service() const override {
    return config_.facade_service;
  }
  [[nodiscard]] const char* update_mechanism_name() const override {
    return "repl-consensus";
  }
  /// Requests a global switch of the consensus protocol.  Lazy per stream:
  /// each stream migrates at its next decided instance.  Throws
  /// std::logic_error for a protocol the library does not know.
  void request_update(const std::string& protocol,
                      const ModuleParams& params) override;
  /// Consensus migrates lazily per stream, so "the current version" is the
  /// slowest routed stream's authoritative version: a stack reports the new
  /// protocol only once every stream it serves has crossed its boundary.
  [[nodiscard]] UpdateStatus update_status() const override;

  [[nodiscard]] std::size_t version_count() const { return versions_.size(); }
  [[nodiscard]] const std::string& protocol_of(std::size_t version) const {
    return versions_[version].protocol;
  }
  /// Current authoritative version of a stream (0 if never seen).
  [[nodiscard]] std::uint32_t stream_version(StreamId stream) const;
  [[nodiscard]] std::uint64_t decisions_delivered() const {
    return decisions_delivered_;
  }

  // Trace markers (TraceKind::kCustom) consumed by the scenario engine's
  // switch-window extraction, mirroring ReplAbcastModule's.
  static constexpr char kTraceChangeRequested[] = "replc-change-requested";
  static constexpr char kTraceVersionCreated[] = "replc-version-created";

 private:
  struct VersionInfo {
    std::string protocol;
    ConsensusApi* api = nullptr;
  };

  struct StreamState {
    DecisionHandler handler;
    bool handler_bound = false;
    bool routed = false;  // inner-version decision routing installed
    std::uint32_t auth = 0;          // authoritative version for next_process
    InstanceId next_process = 1;     // next instance to settle
    /// Wrapped decisions per (version, instance).
    std::map<std::pair<std::uint32_t, InstanceId>, Bytes> decisions;
    /// Client values proposed but not yet settled.
    std::map<InstanceId, Bytes> outstanding;
    /// Deliveries that arrived before the handler bound.
    std::vector<std::pair<InstanceId, Bytes>> pending_out;
  };

  void on_announce(NodeId from, const Payload& data);
  void create_version(std::uint32_t version, const std::string& protocol,
                      const ModuleParams& params);
  void bind_stream_on_version(StreamId stream, std::uint32_t version);
  void submit(StreamId stream, InstanceId instance, StreamState& st);
  void on_inner_decision(std::uint32_t version, StreamId stream,
                         InstanceId instance, const Bytes& wrapped);
  void process_stream(StreamId stream, StreamState& st);
  void deliver(StreamId stream, StreamState& st, InstanceId instance,
               const Bytes& client_value);

  Config config_;
  ServiceRef<RbcastApi> rbcast_;
  UpdateManagerModule* manager_ = nullptr;  // null when composed standalone
  ChannelId announce_channel_;
  std::vector<VersionInfo> versions_;
  std::map<StreamId, StreamState> streams_;
  std::uint64_t decisions_delivered_ = 0;
};

}  // namespace dpu

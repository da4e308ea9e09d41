// Replacement substrate — the reusable facade/inner interception machinery
// behind every "repl" mechanism (paper §4 structure, §5 Algorithm 1).
//
// The paper's central claim is that dynamic update is a *structural*
// property of a service-based stack: the replacement module needs only the
// *specification* of the service it replaces.  This header makes the
// structure reusable: everything in Algorithm 1 that is not specific to
// atomic broadcast lives here, and a per-service facade module supplies only
// the service interface plumbing (how to transmit a wrapped payload through
// the inner service, and what to do when a new inner version appears).
//
// Shared pieces:
//  * `ReplacementFacadeBase` — Module + UpdateMechanism base holding the
//    Algorithm-1 state (seqNumber, the undelivered set, the current inner
//    module), the wrap/filter/unwrap wire format (byte-identical to the
//    pre-extraction Repl-ABcast format), the switch sequencing of lines
//    10-16 (unbind -> create_module -> bind -> reissue), version accounting,
//    trace markers, UpdateApi registration, and the state-transfer substrate
//    (a bounded replay log plus a snapshot protocol that lets a recovering
//    or late-joining stack obtain version metadata and delivered history
//    from a peer — see the "State-transfer machinery" section below).
//
// Three facades instantiate the substrate: `ReplAbcastModule`
// (repl/repl_abcast.hpp, Algorithm 1 verbatim), `ReplRbcastModule`
// (repl/repl_rbcast.hpp, reliable broadcast) and `ReplGmModule`
// (repl/repl_gm.hpp, group membership).  `ReplConsensusModule` keeps its own
// machinery: consensus is multi-stream and migrates lazily per stream, a
// different algorithm (see repl/repl_consensus.hpp).
#pragma once

#include <deque>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/module.hpp"
#include "core/stack.hpp"
#include "fd/fd.hpp"
#include "net/services.hpp"
#include "repl/update.hpp"
#include "util/ids.hpp"

namespace dpu {

/// Encodes ModuleParams into a change message so every stack creates the new
/// protocol with identical parameters.
void encode_module_params(BufWriter& w, const ModuleParams& params);
[[nodiscard]] ModuleParams decode_module_params(BufReader& r);

/// Base of the per-service replacement facades: Algorithm 1's state and
/// switch sequencing, generic over the intercepted service.
///
/// A facade module provides the *facade* service that applications and
/// dependent protocols call, and requires the *inner* service that the real
/// protocol binds to; inner protocol modules are completely unaware that
/// replacement exists.  Subclasses implement the service-interface plumbing
/// (the pure virtuals below); everything else — wrapping, the undelivered
/// set, the totally-or-reliably-coordinated switch, reissue, version
/// accounting, UpdateApi registration, retirement — is shared.
class ReplacementFacadeBase : public Module, public UpdateMechanism {
 public:
  struct FacadeConfig {
    /// Service name applications call (paper: the interface r-p).
    std::string facade_service;
    /// Service name (or, with `versioned_inner`, the name prefix) the real
    /// protocol binds to (paper: p).
    std::string inner_service;
    /// When true, each version binds a fresh "<inner_service>#<sn>" slot
    /// instead of rebinding one fixed slot.  Facades whose response
    /// interface carries no version information (GM views) use this to
    /// listen to exactly the current version's upcalls.
    bool versioned_inner = false;
    /// Protocol (library name) installed at start.
    std::string initial_protocol;
    ModuleParams initial_params;
    /// If > 0, destroy a replaced module this long after the switch
    /// (extension; 0 keeps old modules in the stack forever, like the
    /// paper).
    Duration retire_after = 0;

    /// What a state_request from a recovering or late-joining peer is
    /// answered with (the per-service state-transfer contract).
    enum class StateSync : std::uint8_t {
      /// No state channel.  Recovery relies on the transport below the
      /// facade replaying history *through* it (gm over a replayed abcast
      /// re-performs every switch organically).
      kNone,
      /// Version metadata only (sn, protocol, params): services that owe no
      /// delivered history — rbcast orders nothing and upper layers recover
      /// what they need through their own catch-up.
      kMetadata,
      /// Metadata plus the delivered-history replay log: totally ordered
      /// services whose audit contract makes a recovered stack re-deliver
      /// the full history (abcast).
      kLog,
    };
    StateSync state_sync = StateSync::kNone;
    /// Requester-side retry: rotate to the next fd-trusted responder if a
    /// requested snapshot has not completed within this window.
    Duration sync_retry = 150 * kMillisecond;
    /// Replay-log bound (kLog): entries beyond the cap are trimmed oldest
    /// first; snapshots carry the trimmed count so a requester knows its
    /// replay is partial (surfaced as the log_trimmed() counter).
    std::size_t replay_log_cap = std::size_t{1} << 20;
  };

  // ---- UpdateMechanism (repl/update.hpp) ----------------------------------
  [[nodiscard]] const std::string& update_service() const override {
    return fcfg_.facade_service;
  }
  void request_update(const std::string& protocol,
                      const ModuleParams& params) override {
    request_change(protocol, params);
  }
  [[nodiscard]] UpdateStatus update_status() const override {
    return UpdateStatus{cur_protocol_, seq_number_};
  }

  // ---- Wire format --------------------------------------------------------
  // Byte-identical to the pre-extraction Repl-ABcast format (public so tests
  // can pin it and facades' free helpers can parse it):
  //   data:   u8 kNil             | varint sn | MsgId | blob payload
  //   change: u8 kNewProtocol     | varint sn | string protocol | params
  //   sync:   u8 kNewProtocolSync | varint sn | string protocol | params
  //           | u32 responder | varint n | n x (u32 node, varint epoch)
  // kNewProtocolSync is a *refresh* switch: the current protocol
  // re-instantiated at the next version number, coordinated through the
  // replaced service exactly like a real change, so a recovering or
  // late-joining stack can enter at a clean instance boundary instead of
  // joining a protocol instance mid-stream.  It additionally carries the
  // requesters' incarnation epochs; every stack notes them to rp2p at its
  // switch point, which makes the switch the epoch-sync barrier for the
  // recovered stack's links (Rp2pApi::rp2p_note_peer_epoch).
  enum Tag : std::uint8_t { kNil = 0, kNewProtocol = 1, kNewProtocolSync = 2 };

  struct Unwrapped {
    Tag tag = kNil;
    std::uint64_t sn = 0;
    // tag == kNil:
    MsgId id;
    Bytes payload;
    // tag == kNewProtocol / kNewProtocolSync:
    std::string protocol;
    ModuleParams params;
    // tag == kNewProtocolSync:
    NodeId responder = kNoNode;
    std::vector<std::pair<NodeId, std::uint64_t>> sync_epochs;
  };

  /// Data wrapper parse result of the zero-copy variant: `payload` is a
  /// slice of the wire buffer, not a copy.
  struct UnwrappedData {
    std::uint64_t sn = 0;
    MsgId id;
    Payload payload;
  };

  [[nodiscard]] static Payload wrap_data(std::uint64_t sn, const MsgId& id,
                                         const Payload& payload);
  /// Parses either message kind; throws CodecError on malformed input.
  [[nodiscard]] static Unwrapped unwrap(const Bytes& wire);
  [[nodiscard]] static Unwrapped unwrap(const Payload& wire);
  /// Parses a data message without copying the payload (a slice of `wire`);
  /// throws CodecError on malformed input or a change-message tag.
  [[nodiscard]] static UnwrappedData unwrap_data(const Payload& wire);

  // ---- Introspection ------------------------------------------------------
  [[nodiscard]] std::uint64_t seq_number() const { return seq_number_; }
  [[nodiscard]] const std::string& current_protocol() const {
    return cur_protocol_;
  }
  [[nodiscard]] std::size_t undelivered_count() const {
    return undelivered_.size();
  }
  [[nodiscard]] std::uint64_t switches_completed() const {
    return switches_completed_;
  }
  [[nodiscard]] std::uint64_t stale_discarded() const {
    return stale_discarded_;
  }
  [[nodiscard]] std::uint64_t reissued_total() const { return reissued_total_; }

  // ---- State-transfer introspection ---------------------------------------
  /// True while this stack waits for a snapshot from a responder.
  [[nodiscard]] bool state_syncing() const { return syncing_; }
  [[nodiscard]] std::uint64_t snapshots_served() const {
    return snapshots_served_;
  }
  [[nodiscard]] std::uint64_t sync_retries() const { return sync_retries_; }
  /// Refresh switches performed (kNewProtocolSync; not counted in
  /// switches_completed()).
  [[nodiscard]] std::uint64_t refresh_switches() const {
    return refresh_switches_;
  }
  /// Refresh switches discarded because another switch was ordered between
  /// their launch and their delivery (see perform_switch_from).
  [[nodiscard]] std::uint64_t stale_syncs_dropped() const {
    return stale_syncs_dropped_;
  }
  [[nodiscard]] std::size_t replay_log_size() const {
    return replay_log_.size();
  }
  [[nodiscard]] std::uint64_t log_trimmed() const { return log_trimmed_; }
  /// Data entries this stack re-delivered from a received snapshot.
  [[nodiscard]] std::uint64_t replayed_from_snapshot() const {
    return replayed_from_snapshot_;
  }

  /// Trace marker emitted when a snapshot finalizes
  /// ("state-sync-done:<protocol>:sn=<n>:replayed=<k>").
  static constexpr char kTraceStateSyncDone[] = "state-sync-done";

 protected:
  ReplacementFacadeBase(Stack& stack, std::string instance_name,
                        FacadeConfig config);

  /// Change message under the current version number (Algorithm 1 line 6).
  [[nodiscard]] Payload wrap_change(const std::string& protocol,
                                    const ModuleParams& params) const;

  // ---- Algorithm 1 operations ---------------------------------------------

  /// Registers with the stack's update manager (when present) and installs
  /// the initial protocol as version 0.  Call from the subclass's start().
  void facade_start();
  /// Unregisters and cancels retirement timers.  Call from stop().
  void facade_stop();

  /// Fresh globally-unique id for a facade message of this stack (line 8's
  /// id; the counter is continuous across switches and starts at the
  /// incarnation's epoch base).
  [[nodiscard]] MsgId next_msg_id() { return MsgId{env().node_id(), next_local_++}; }

  /// Lines 8 / 19-20: the undelivered set of this stack's own messages.
  /// `ctx` is facade-defined per-message context carried to send_inner_data
  /// on reissue (the rbcast facade stores the client channel; abcast passes
  /// 0).
  void track_undelivered(const MsgId& id, Payload payload, std::uint64_t ctx);
  /// Removes `id` from the undelivered set; returns whether it was tracked.
  bool settle_undelivered(const MsgId& id);

  /// Lines 5-6: validates `protocol` against the registry, emits the
  /// change-requested marker and transmits the change message through the
  /// current inner version.  Any stack may call this; when/where the switch
  /// happens is the coordination contract of the facade (total order for
  /// abcast/gm, reliable delivery for rbcast).
  void request_change(const std::string& protocol, const ModuleParams& params);

  /// Lines 10-16: performs the switch on this stack — bump seqNumber, unbind
  /// the old inner module (it stays in the stack and may still respond),
  /// create_module the new protocol (recursively creating providers for
  /// missing services, lines 22-28 live in Stack::create_module), let the
  /// subclass re-attach (on_inner_installed), then re-issue every
  /// undelivered message through the new version.
  void perform_switch(const std::string& protocol, const ModuleParams& params);

  // ---- State transfer (recovery / late join) ------------------------------

  /// Routes a parsed change message to the right switch flavour:
  /// kNewProtocol -> perform_switch; kNewProtocolSync -> refresh switch
  /// (epoch notes, no done-marker/update-outcome, snapshot send when this
  /// stack is the responder).  Facade delivery paths call this for any
  /// non-kNil tag.
  void perform_switch_from(const Unwrapped& u);

  /// Appends one facade-level data delivery to the replay log (kLog mode;
  /// no-op otherwise).  Call at the delivery point, before notifying the
  /// client, so snapshot order equals delivery order.  `payload` is the
  /// unwrapped inner blob (a slice of the wire buffer).
  void log_delivered(const MsgId& id, const Payload& payload);

  /// One replay-log entry: a facade-level data delivery or a switch.
  enum LogKind : std::uint8_t { kLogData = 0, kLogSwitch = 1 };
  struct LogEntry {
    std::uint8_t kind = kLogData;
    MsgId id;         // kLogData
    Payload payload;  // kLogData: the inner blob (slice of the wire buffer)
    std::uint64_t sn = 0;   // kLogSwitch
    std::string protocol;   // kLogSwitch
  };

  /// Replays snapshot data entries to the client during sync finalize, in
  /// snapshot (= original delivery) order: `run` is a maximal run of
  /// kLogData entries between two switch entries, replayed in one call.
  /// kLog facades override; default no-op.
  virtual void replay_delivered(std::span<const LogEntry> run);
  /// Called after a snapshot finalizes, right before the undelivered set is
  /// reissued under the synced version.  Default no-op.
  virtual void on_state_sync_complete();

  /// Inner slot name of version `sn` ("<inner_service>" fixed, or
  /// "<inner_service>#<sn>" when versioned).
  [[nodiscard]] std::string inner_service_name(std::uint64_t sn) const;
  /// Current version's inner slot name.
  [[nodiscard]] std::string inner_service_name() const {
    return inner_service_name(seq_number_);
  }
  /// Cross-stack-identical instance name of version `sn` of `protocol`.
  [[nodiscard]] std::string versioned_instance(const std::string& protocol,
                                               std::uint64_t sn) const;

  // ---- Service-specific plumbing (subclass hooks) -------------------------

  /// Transmits a change message through the current inner version (line 6).
  virtual void send_inner_change(Payload wrapped) = 0;
  /// Transmits a data message through the current inner version (lines 9 and
  /// 16); `ctx` is whatever track_undelivered stored for this message.
  virtual void send_inner_data(Payload wrapped, std::uint64_t ctx) = 0;
  /// Called after a new inner version is created and bound, before the
  /// undelivered set is reissued through it — re-attach listeners/channels
  /// here.  `sn` is the new version, 0 for the initial installation.
  virtual void on_inner_installed(Module* created, std::uint64_t sn);
  /// Called right before a replaced inner module is destroyed (the
  /// retire_after extension) — drop any direct references to it here.
  virtual void on_inner_retired(Module* retired);
  /// TraceKind::kCustom detail prefixes ("<marker>:<protocol>" on request,
  /// "<marker>:<protocol>:sn=<n>" on completion); benches and the scenario
  /// engine locate switch windows by scanning for these.
  [[nodiscard]] virtual const char* change_requested_marker() const = 0;
  [[nodiscard]] virtual const char* switch_done_marker() const = 0;

  // ---- Shared state (subclass-visible) ------------------------------------
  FacadeConfig fcfg_;
  UpdateManagerModule* manager_ = nullptr;  // null when composed standalone

  std::uint64_t seq_number_ = 0;  // Algorithm 1 line 4
  std::string cur_protocol_;
  /// Parameters the current version was created with (sans the generated
  /// "instance" key); refresh switches and snapshots re-send them.
  ModuleParams cur_params_;
  Module* cur_module_ = nullptr;

  std::uint64_t switches_completed_ = 0;
  std::uint64_t stale_discarded_ = 0;
  std::uint64_t reissued_total_ = 0;

 private:
  struct UndeliveredEntry {
    Payload payload;
    std::uint64_t ctx = 0;
  };

  // ---- State-transfer machinery -------------------------------------------
  // A recovering or late-joining stack (incarnation > 0) does not install
  // version 0: it asks an fd-trusted peer for the facade's state over a
  // dedicated rp2p channel ("<instance>/state").  The responder coordinates
  // a *refresh* switch (kNewProtocolSync) through the replaced service — the
  // switch point is totally ordered (abcast) or reliably delivered (rbcast),
  // every stack notes the requester's incarnation epoch to rp2p there, and
  // the responder snapshots its replay log as of right before its own switch
  // (the cut).  The requester installs the snapshot (replay + metadata),
  // creates the post-switch inner instance — whose traffic rp2p buffered for
  // it — and reissues its undelivered set.  Exactly-once falls out of the
  // cut: snapshot entries are pre-switch history, the fresh instance carries
  // everything after.
  //
  // State channel wire:
  //   request: u8 kStateRequest | varint incarnation
  //   decline: u8 kStateDecline
  //   header:  u8 kStateHeader  | varint sn | string protocol | params
  //            | varint entry_count | varint trimmed
  //   chunk:   u8 kStateChunk   | varint n | n x entry
  //   cancel:  u8 kStateCancel  | varint incarnation
  //   entry:   u8 kLogData   | MsgId | blob
  //          | u8 kLogSwitch | varint sn | string protocol
  enum StateTag : std::uint8_t {
    kStateRequest = 0,
    kStateDecline = 1,
    kStateHeader = 2,
    kStateChunk = 3,
    kStateCancel = 4,
  };
  struct StateRequest {
    NodeId node = kNoNode;
    std::uint64_t epoch = 0;
  };

  /// Shared implementation of real and refresh switches; `sync` is non-null
  /// for a refresh switch (the parsed kNewProtocolSync message).
  void perform_switch_impl(const std::string& protocol,
                           const ModuleParams& params, const Unwrapped* sync);

  void on_state_datagram(NodeId src, const Payload& wire);
  /// Requester: (re-)sends the state request to the next candidate and arms
  /// the retry timer.  `rotate` advances past the current responder first.
  void send_state_request(bool rotate);
  [[nodiscard]] NodeId pick_responder() const;
  void handle_state_request(NodeId src, std::uint64_t epoch);
  /// Responder: a requester finalized elsewhere — forget its outstanding
  /// requests (up to the given epoch) so no further refresh is launched for
  /// them.
  void handle_state_cancel(NodeId src, std::uint64_t epoch);
  void handle_state_header(NodeId src, BufReader& r);
  void handle_state_chunk(NodeId src, BufReader& r);
  /// Requester: all snapshot entries arrived — install metadata, replay,
  /// create the inner instance, reissue undelivered.
  void finalize_state_sync();
  /// Responder: coordinates one refresh switch covering every pending
  /// request (at most one in flight; re-launched when more arrive).
  void launch_refresh_switch();
  /// Responder: sends header + chunked entries [0, cut) to `dst`.
  void send_snapshot(NodeId dst, std::size_t cut);
  /// Appends to the replay log, trimming to replay_log_cap (kLog only).
  void push_log(LogEntry e);
  [[nodiscard]] Payload wrap_change_sync() const;
  static void encode_log_entry(BufWriter& w, const LogEntry& e);
  [[nodiscard]] static LogEntry decode_log_entry(BufReader& r);

  std::uint64_t next_local_ = 1;  // id generator for this stack's messages
  /// Algorithm 1 line 2: this stack's messages not yet delivered back to it.
  std::map<MsgId, UndeliveredEntry> undelivered_;
  std::vector<std::unique_ptr<TimerSlot>> retire_timers_;

  // State-transfer state (inert when state_sync == kNone).
  ServiceRef<Rp2pApi> rp2p_;
  ServiceRef<FdApi> fd_;
  ChannelId state_channel_ = 0;
  bool state_channel_bound_ = false;
  std::deque<LogEntry> replay_log_;
  std::uint64_t log_trimmed_ = 0;

  // Requester side.
  bool syncing_ = false;
  std::uint32_t sync_attempt_ = 0;  // rotates the responder candidate
  NodeId sync_responder_ = kNoNode;
  /// Who the accepted snapshot header came from.  Any peer we asked may
  /// answer — a late answer from a previous responder is still the earliest
  /// refresh switch launched for us, and joining at the earliest one means
  /// we create every inner instance the group binds from there on.
  NodeId sync_source_ = kNoNode;
  std::unique_ptr<TimerSlot> sync_timer_;
  bool sync_header_seen_ = false;
  std::size_t sync_progress_mark_ = 0;  // stall detection between retries
  std::uint64_t sync_expected_ = 0;
  std::uint64_t sync_sn_ = 0;
  std::string sync_protocol_;
  ModuleParams sync_params_;
  std::uint64_t sync_trimmed_ = 0;
  std::vector<LogEntry> sync_entries_;

  /// Changes requested while syncing, transmitted once the sync finalizes.
  std::vector<std::pair<std::string, ModuleParams>> deferred_changes_;

  // Responder side.
  std::vector<StateRequest> pending_requests_;
  std::vector<StateRequest> inflight_requests_;
  bool refresh_inflight_ = false;

  std::uint64_t snapshots_served_ = 0;
  std::uint64_t sync_retries_ = 0;
  std::uint64_t refresh_switches_ = 0;
  std::uint64_t stale_syncs_dropped_ = 0;
  std::uint64_t replayed_from_snapshot_ = 0;
};

}  // namespace dpu

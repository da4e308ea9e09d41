#include "repl/repl_abcast.hpp"

#include "util/log.hpp"

namespace dpu {

namespace {

ReplacementFacadeBase::FacadeConfig to_facade_config(
    const ReplAbcastConfig& config) {
  ReplacementFacadeBase::FacadeConfig f;
  f.facade_service = config.facade_service;
  f.inner_service = config.inner_service;
  f.initial_protocol = config.initial_protocol;
  f.initial_params = config.initial_params;
  f.retire_after = config.retire_after;
  // Abcast owes a recovered stack the full delivered history: the total
  // order makes every stack's log identical, so any peer's replay log is
  // authoritative.
  f.state_sync = ReplacementFacadeBase::FacadeConfig::StateSync::kLog;
  return f;
}

}  // namespace

ReplAbcastModule* ReplAbcastModule::create(Stack& stack, Config config) {
  auto* m = stack.emplace_module<ReplAbcastModule>(
      stack, "repl-" + config.facade_service, config);
  stack.bind<AbcastApi>(config.facade_service, m, m);
  return m;
}

ReplAbcastModule::ReplAbcastModule(Stack& stack, std::string instance_name,
                                   Config config)
    : ReplacementFacadeBase(stack, std::move(instance_name),
                            to_facade_config(config)),
      inner_(stack.require<AbcastApi>(fcfg_.inner_service)),
      up_(stack.upcalls<AbcastListener>(fcfg_.facade_service)) {}

void ReplAbcastModule::start() {
  // Intercept responses of whichever module is bound to the inner service.
  stack().listen<AbcastListener>(fcfg_.inner_service, this, this);
  facade_start();
}

void ReplAbcastModule::stop() {
  facade_stop();
  stack().unlisten<AbcastListener>(fcfg_.inner_service, this);
}

// ---------------------------------------------------------------------------
// Algorithm 1 lines 7-9: rABcast(m)
// ---------------------------------------------------------------------------

void ReplAbcastModule::abcast(Payload payload) {
  const MsgId id = next_msg_id();
  if (state_syncing()) {
    // No installed version to send under yet: track only.  The sync
    // finalize reissues the whole undelivered set wrapped with the synced
    // version number — sending now would queue a stale-sn wrapper on the
    // unbound inner slot.
    track_undelivered(id, std::move(payload), 0);
    return;
  }
  Payload wrapped = wrap_data(seq_number_, id, payload);
  track_undelivered(id, std::move(payload), 0);  // line 8 (shares the buffer)
  inner_abcast(std::move(wrapped));  // line 9: ABcast(nil, seqNumber, m)
}

void ReplAbcastModule::inner_abcast(Payload wrapped) {
  inner_.call([wrapped = std::move(wrapped)](AbcastApi& api) mutable {
    api.abcast(std::move(wrapped));
  });
}

// ---------------------------------------------------------------------------
// Algorithm 1 lines 10-21: Adeliver
// ---------------------------------------------------------------------------

void ReplAbcastModule::adeliver_batch(std::span<const AbcastDelivery> run) {
  // Fresh data messages not yet handed to the clients (line 21).
  std::vector<std::pair<NodeId, Bytes>> fresh;
  for (const AbcastDelivery& d : run) {
    try {
      Unwrapped m = unwrap(d.payload);

      if (m.tag != kNil) {
        // Lines 10-16 (kNewProtocol), or a refresh switch coordinated for a
        // recovering peer (kNewProtocolSync).  Note: Algorithm 1
        // deliberately has no sn test here — change messages are processed
        // in delivery order wherever they come from, which keeps
        // concurrent/chained replacements consistent (every stack sees them
        // in the same total order).  The clients get everything delivered
        // before the change first.
        adeliver_run(up_, fresh);
        fresh.clear();
        perform_switch_from(m);
        continue;
      }

      // Lines 17-21.
      if (m.sn != seq_number_) {
        // Line 18: a message issued under an older protocol version; its
        // origin re-issues it under the new version (line 16), so dropping
        // it here preserves validity while preventing duplicate delivery.
        ++stale_discarded_;
        continue;
      }
      if (m.id.origin == env().node_id()) {
        settle_undelivered(m.id);  // lines 19-20
      }
      // Record before notifying, so a snapshot replays in delivery order.
      log_delivered(m.id, Payload::copy_of(
                              {m.payload.data(), m.payload.size()}));
      fresh.emplace_back(m.id.origin, std::move(m.payload));
    } catch (const CodecError& e) {
      // Inner abcast is reliable: malformed wrappers indicate a bug, not
      // loss.
      DPU_LOG(kError, "repl") << "s" << env().node_id()
                              << " malformed wrapped message: " << e.what();
    }
  }
  adeliver_run(up_, fresh);  // line 21: rAdeliver(m)
}

void ReplAbcastModule::adeliver(NodeId sender, const Bytes& inner_payload) {
  const AbcastDelivery one{sender, inner_payload};
  adeliver_batch({&one, 1});
}

void ReplAbcastModule::replay_delivered(std::span<const LogEntry> run) {
  std::vector<std::pair<NodeId, Bytes>> history;
  history.reserve(run.size());
  for (const LogEntry& e : run) {
    history.emplace_back(e.id.origin, e.payload.to_bytes());
  }
  adeliver_run(up_, history);
}

}  // namespace dpu

// Shared rig for dynamic-protocol-update tests: full Figure-4 substrate,
// a protocol library with every ABcast/consensus provider registered, the
// Repl-ABcast module on each stack, the ABcast audit, and a trace recorder
// for the generic DPU properties.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "abcast/audit.hpp"
#include "abcast/ct_abcast.hpp"
#include "abcast/seq_abcast.hpp"
#include "abcast/token_abcast.hpp"
#include "common/consensus_rig.hpp"
#include "common/test_world.hpp"
#include "consensus/ct_consensus.hpp"
#include "consensus/mr_consensus.hpp"
#include "core/properties.hpp"
#include "repl/repl_abcast.hpp"

namespace dpu::testing {

/// Builds a library with every protocol this repo ships.
inline ProtocolLibrary make_full_library() {
  ProtocolLibrary lib;
  UdpModule::register_protocol(lib);
  Rp2pModule::Config rc;
  rc.retransmit_interval = 5 * kMillisecond;
  Rp2pModule::register_protocol(lib, rc);
  RbcastModule::register_protocol(lib);
  FdModule::register_protocol(lib, ConsensusRig::FastFd());
  CtConsensusModule::register_protocol(lib);
  MrConsensusModule::register_protocol(lib);
  CtAbcastModule::register_protocol(lib);
  SeqAbcastModule::register_protocol(lib);
  TokenAbcastModule::register_protocol(lib);
  lib.declare_replaceable(kAbcastService);
  lib.declare_replaceable(kConsensusService);
  lib.declare_replaceable(kRbcastService);
  return lib;
}

struct ReplRig {
  explicit ReplRig(SimConfig config,
                   const std::string& initial_protocol = "abcast.ct",
                   bool with_consensus = true,
                   Duration retire_after = 0)
      : library(make_full_library()),
        world(config, &library, &trace) {
    Rp2pModule::Config rc;
    rc.retransmit_interval = 5 * kMillisecond;
    handles = install_substrate(world, true, true, true,
                                ConsensusRig::FastFd(), rc);
    for (NodeId i = 0; i < world.size(); ++i) {
      Stack& stack = world.stack(i);
      if (with_consensus) CtConsensusModule::create(stack);
      ReplAbcastModule::Config cfg;
      cfg.initial_protocol = initial_protocol;
      cfg.retire_after = retire_after;
      repl.push_back(ReplAbcastModule::create(stack, cfg));
      listeners.push_back(std::make_unique<AbcastAudit::Listener>(audit, i));
      stack.listen<AbcastListener>(kAbcastService, listeners.back().get(),
                                   nullptr);
      stack.start_all();
    }
  }

  /// Application send through the facade.
  void send_at(TimePoint t, NodeId node, const std::string& tag) {
    world.at_node(t, node, [this, node, tag]() {
      if (world.crashed(node)) return;
      const Bytes payload = to_bytes(tag);
      audit.record_sent(node, payload);
      repl[node]->abcast(payload);
    });
  }

  /// Requests a protocol switch from `node` at time `t`.
  void switch_at(TimePoint t, NodeId node, const std::string& protocol,
                 const ModuleParams& params = ModuleParams()) {
    world.at_node(t, node, [this, node, protocol, params]() {
      if (world.crashed(node)) return;
      repl[node]->request_update(protocol, params);
    });
  }

  /// Collected generic-property checks (paper §3) over the recorded trace.
  void expect_generic_properties_ok() {
    auto events = trace.events();
    auto swf = check_weak_stack_well_formedness(events);
    EXPECT_TRUE(swf.ok) << swf.summary();
    auto op = check_protocol_operationability(events, world.size(),
                                              world.crashed_set());
    EXPECT_TRUE(op.ok) << op.summary();
    for (NodeId i = 0; i < world.size(); ++i) {
      if (!world.crashed(i)) {
        EXPECT_EQ(world.stack(i).pending_call_count(), 0u) << "stack " << i;
      }
    }
  }

  ProtocolLibrary library;
  TraceRecorder trace;
  SimWorld world;
  std::vector<SubstrateHandles> handles;
  std::vector<ReplAbcastModule*> repl;
  std::vector<std::unique_ptr<AbcastAudit::Listener>> listeners;
  AbcastAudit audit;
};

}  // namespace dpu::testing

// Repl-RBcast — the replacement substrate instantiated for reliable
// broadcast: transparency at steady state, hot swap under load with
// exactly-once delivery across versions, UpdateApi integration, and the
// one-switch-at-a-time discipline.
#include "repl/repl_rbcast.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/repl_rig.hpp"
#include "repl/update.hpp"

namespace dpu {
namespace {

constexpr ChannelId kAppChannel = 0xA11CE;

/// n stacks: transport substrate + UpdateManager + the rbcast facade; a
/// per-stack delivery log on one client channel.
struct RbcastRig {
  explicit RbcastRig(std::size_t n, std::uint64_t seed,
                     const std::string& initial = "rbcast.eager")
      : library(testing::make_full_library()),
        world(SimConfig{.num_stacks = n, .seed = seed}, &library) {
    delivered.resize(n);
    for (NodeId i = 0; i < n; ++i) {
      Stack& stack = world.stack(i);
      UdpModule::create(stack);
      Rp2pModule::Config rc;
      rc.retransmit_interval = 5 * kMillisecond;
      Rp2pModule::create(stack, kRp2pService, rc);
      update.push_back(UpdateManagerModule::create(stack));
      ReplRbcastModule::Config cfg;
      cfg.initial_protocol = initial;
      facades.push_back(ReplRbcastModule::create(stack, cfg));
      facades.back()->rbcast_bind_channel(
          kAppChannel, [this, i](NodeId origin, const Payload& payload) {
            ++delivered[i][to_string(payload) + "@" + std::to_string(origin)];
          });
      stack.start_all();
    }
  }

  void bcast_at(TimePoint t, NodeId node, const std::string& tag) {
    world.at_node(t, node, [this, node, tag]() {
      facades[node]->rbcast(kAppChannel, Payload(to_bytes(tag)));
    });
  }

  /// Every stack delivered every sent tag exactly once.
  void expect_exactly_once(const std::vector<std::string>& keys) {
    for (NodeId i = 0; i < world.size(); ++i) {
      EXPECT_EQ(delivered[i].size(), keys.size()) << "stack " << i;
      for (const std::string& key : keys) {
        EXPECT_EQ(delivered[i][key], 1u) << "stack " << i << " key " << key;
      }
    }
  }

  ProtocolLibrary library;
  SimWorld world;
  std::vector<UpdateManagerModule*> update;
  std::vector<ReplRbcastModule*> facades;
  std::vector<std::map<std::string, std::uint64_t>> delivered;
};

TEST(ReplRbcast, TransparentAtSteadyState) {
  RbcastRig rig(3, 21);
  std::vector<std::string> keys;
  for (int k = 0; k < 12; ++k) {
    const NodeId origin = static_cast<NodeId>(k % 3);
    const std::string tag = "m" + std::to_string(k);
    rig.bcast_at((50 + k * 40) * kMillisecond, origin, tag);
    keys.push_back(tag + "@" + std::to_string(origin));
  }
  rig.world.run_for(10 * kSecond);
  rig.expect_exactly_once(keys);
  for (auto* f : rig.facades) {
    EXPECT_EQ(f->current_protocol(), "rbcast.eager");
    EXPECT_EQ(f->seq_number(), 0u);
    EXPECT_EQ(f->undelivered_count(), 0u);
  }
}

TEST(ReplRbcast, HotSwapUnderLoadDeliversExactlyOnce) {
  RbcastRig rig(3, 22);
  rig.world.set_loss(0.10, 0.0);  // loss + retransmission across the switch
  std::vector<std::string> keys;
  for (int k = 0; k < 60; ++k) {
    const NodeId origin = static_cast<NodeId>(k % 3);
    const std::string tag = "m" + std::to_string(k);
    rig.bcast_at((50 + k * 25) * kMillisecond, origin, tag);
    keys.push_back(tag + "@" + std::to_string(origin));
  }
  // The switch lands mid-stream, straight through the UpdateApi.
  rig.world.at_node(800 * kMillisecond, 0, [&]() {
    rig.update[0]->request_update(kRbcastService, "rbcast.norelay");
  });
  rig.world.run_for(30 * kSecond);

  rig.expect_exactly_once(keys);
  for (NodeId i = 0; i < 3; ++i) {
    EXPECT_EQ(rig.facades[i]->current_protocol(), "rbcast.norelay")
        << "stack " << i;
    EXPECT_EQ(rig.facades[i]->switches_completed(), 1u) << "stack " << i;
    EXPECT_EQ(rig.facades[i]->undelivered_count(), 0u) << "stack " << i;
    const UpdateStatus s = rig.update[i]->current_version(kRbcastService);
    EXPECT_EQ(s.protocol, "rbcast.norelay");
    EXPECT_EQ(s.version, 1u);
  }
}

TEST(ReplRbcast, ChannelsBoundAfterSwitchStillWork) {
  RbcastRig rig(3, 23);
  rig.world.at_node(200 * kMillisecond, 1, [&]() {
    rig.facades[1]->request_update("rbcast.norelay", {});
  });
  // A channel bound only after the switch completed (on every version that
  // is still alive) must receive traffic sent through the new version.
  constexpr ChannelId kLate = 0xBEEF;
  std::vector<std::uint64_t> late(3, 0);
  rig.world.at(kSecond, [&]() {
    for (NodeId i = 0; i < 3; ++i) {
      rig.facades[i]->rbcast_bind_channel(
          kLate, [&late, i](NodeId, const Payload&) { ++late[i]; });
    }
  });
  rig.world.at_node(1500 * kMillisecond, 2, [&]() {
    rig.facades[2]->rbcast(kLate, Payload(to_bytes("late")));
  });
  rig.world.run_for(10 * kSecond);
  for (NodeId i = 0; i < 3; ++i) EXPECT_EQ(late[i], 1u) << "stack " << i;
}

TEST(ReplRbcast, ConcurrentChangesCollapseToOneSwitch) {
  RbcastRig rig(3, 24);
  // Two stacks request the same target at the same instant: each stack
  // performs the first change it receives and drops the second (stale sn) —
  // the documented one-switch-at-a-time discipline.
  rig.world.at_node(500 * kMillisecond, 0, [&]() {
    rig.facades[0]->request_update("rbcast.norelay", {});
  });
  rig.world.at_node(500 * kMillisecond, 1, [&]() {
    rig.facades[1]->request_update("rbcast.norelay", {});
  });
  rig.world.run_for(10 * kSecond);
  std::uint64_t dropped = 0;
  for (NodeId i = 0; i < 3; ++i) {
    EXPECT_EQ(rig.facades[i]->switches_completed(), 1u) << "stack " << i;
    EXPECT_EQ(rig.facades[i]->current_protocol(), "rbcast.norelay");
    dropped += rig.facades[i]->changes_dropped();
  }
  EXPECT_GE(dropped, 1u);
}

TEST(ReplRbcast, RegistryRejectsWrongServiceLibraries) {
  RbcastRig rig(1, 25);
  EXPECT_THROW(rig.update[0]->request_update(kRbcastService, "abcast.ct"),
               std::invalid_argument);
  EXPECT_THROW(rig.update[0]->request_update(kRbcastService, "rbcast.nope"),
               std::invalid_argument);
  EXPECT_EQ(rig.update[0]->current_version(kRbcastService).protocol,
            "rbcast.eager");
}

TEST(ReplRbcast, WholeStackRidesTheFacadeAcrossASwitch) {
  // The real composition: consensus + CT-ABcast broadcast through the
  // facade, which is hot-swapped mid-run — the layers above keep the four
  // ABcast properties without knowing anything changed underneath them.
  ProtocolLibrary library = testing::make_full_library();
  SimWorld world(SimConfig{.num_stacks = 3, .seed = 26}, &library);
  AbcastAudit audit;
  std::vector<std::unique_ptr<AbcastAudit::Listener>> listeners;
  std::vector<UpdateManagerModule*> update;
  std::vector<AbcastApi*> abcast;
  for (NodeId i = 0; i < 3; ++i) {
    Stack& stack = world.stack(i);
    UdpModule::create(stack);
    Rp2pModule::Config rc;
    rc.retransmit_interval = 5 * kMillisecond;
    Rp2pModule::create(stack, kRp2pService, rc);
    FdModule::create(stack, kFdService, testing::ConsensusRig::FastFd());
    update.push_back(UpdateManagerModule::create(stack));
    ReplRbcastModule::create(stack, ReplRbcastModule::Config{});
    CtConsensusModule::create(stack);
    CtAbcastModule::create(stack, kAbcastService);
    listeners.push_back(std::make_unique<AbcastAudit::Listener>(audit, i));
    stack.listen<AbcastListener>(kAbcastService, listeners.back().get(),
                                 nullptr);
    stack.start_all();
    abcast.push_back(stack.slot(kAbcastService).try_get<AbcastApi>());
    ASSERT_NE(abcast.back(), nullptr);
  }

  for (int k = 0; k < 40; ++k) {
    const NodeId origin = static_cast<NodeId>(k % 3);
    world.at_node((50 + k * 30) * kMillisecond, origin, [&, origin, k]() {
      const Bytes payload = to_bytes("app-" + std::to_string(k));
      audit.record_sent(origin, payload);
      abcast[origin]->abcast(Payload(payload));
    });
  }
  world.at_node(700 * kMillisecond, 0, [&]() {
    update[0]->request_update(kRbcastService, "rbcast.norelay");
  });
  world.run_for(30 * kSecond);

  for (NodeId i = 0; i < 3; ++i) {
    EXPECT_EQ(update[i]->current_version(kRbcastService).protocol,
              "rbcast.norelay")
        << "stack " << i;
  }
  auto report = audit.check(3);
  EXPECT_TRUE(report.ok) << report.summary();
  for (NodeId i = 0; i < 3; ++i) {
    EXPECT_EQ(audit.deliveries_at(i), 40u) << "stack " << i;  // all 40 msgs
  }
}

}  // namespace
}  // namespace dpu

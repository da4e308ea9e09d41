// Tests for the consensus-replacement extension: the consensus service is
// switched between the CT and MR providers while clients keep proposing.
// Safety requirements: per-(stream,instance) agreement/integrity across the
// switch, consistent per-stream boundaries, and an unmodified CT-ABcast
// keeps total order while its consensus substrate is swapped underneath it.
#include "repl/repl_consensus.hpp"

#include <gtest/gtest.h>

#include "abcast/audit.hpp"
#include "abcast/ct_abcast.hpp"
#include "common/repl_rig.hpp"

namespace dpu {
namespace {

using testing::make_full_library;

struct Rig {
  explicit Rig(SimConfig config)
      : library(make_full_library()), world(config, &library) {
    Rp2pModule::Config rc;
    rc.retransmit_interval = 5 * kMillisecond;
    handles = testing::install_substrate(world, true, true, true,
                                         testing::ConsensusRig::FastFd(), rc);
    decisions.resize(world.size());
    for (NodeId i = 0; i < world.size(); ++i) {
      facade.push_back(ReplConsensusModule::create(world.stack(i)));
      world.stack(i).start_all();
      facade[i]->consensus_bind_stream(
          1, [this, i](InstanceId instance, const Bytes& value) {
            decisions[i][instance].push_back(to_string(value));
          });
    }
  }

  void propose(NodeId node, InstanceId instance, const std::string& value) {
    world.at_node(world.now(), node, [this, node, instance, value]() {
      facade[node]->propose(1, instance, to_bytes(value));
    });
  }

  /// Agreement + integrity + validity for one instance.
  std::string check_instance(InstanceId instance,
                             const std::set<std::string>& proposed) {
    std::string value;
    for (NodeId i = 0; i < world.size(); ++i) {
      if (world.crashed(i)) continue;
      auto it = decisions[i].find(instance);
      EXPECT_TRUE(it != decisions[i].end())
          << "stack " << i << " missing instance " << instance;
      if (it == decisions[i].end()) continue;
      EXPECT_EQ(it->second.size(), 1u)
          << "stack " << i << " instance " << instance;
      if (value.empty()) value = it->second[0];
      EXPECT_EQ(it->second[0], value) << "stack " << i;
    }
    EXPECT_TRUE(proposed.count(value) != 0) << "'" << value << "' not proposed";
    return value;
  }

  ProtocolLibrary library;
  SimWorld world;
  std::vector<testing::SubstrateHandles> handles;
  std::vector<ReplConsensusModule*> facade;
  std::vector<std::map<InstanceId, std::vector<std::string>>> decisions;
};

TEST(ReplConsensus, DecidesNormallyWithoutSwitch) {
  Rig rig(SimConfig{.num_stacks = 3, .seed = 1});
  for (InstanceId k = 1; k <= 10; ++k) {
    for (NodeId i = 0; i < 3; ++i) {
      rig.propose(i, k, "k" + std::to_string(k) + "n" + std::to_string(i));
    }
    rig.world.run_for(100 * kMillisecond);
  }
  rig.world.run_for(kSecond);
  for (InstanceId k = 1; k <= 10; ++k) {
    std::set<std::string> proposed;
    for (NodeId i = 0; i < 3; ++i) {
      proposed.insert("k" + std::to_string(k) + "n" + std::to_string(i));
    }
    rig.check_instance(k, proposed);
  }
  EXPECT_EQ(rig.facade[0]->version_count(), 1u);
}

TEST(ReplConsensus, SwitchCtToMrMidStream) {
  Rig rig(SimConfig{.num_stacks = 3, .seed = 2});
  for (InstanceId k = 1; k <= 20; ++k) {
    for (NodeId i = 0; i < 3; ++i) {
      rig.propose(i, k, "k" + std::to_string(k) + "n" + std::to_string(i));
    }
    if (k == 8) {
      rig.world.at_node(rig.world.now(), 0, [&]() {
        rig.facade[0]->request_update("consensus.mr", {});
      });
    }
    rig.world.run_for(150 * kMillisecond);
  }
  rig.world.run_for(5 * kSecond);

  for (InstanceId k = 1; k <= 20; ++k) {
    std::set<std::string> proposed;
    for (NodeId i = 0; i < 3; ++i) {
      proposed.insert("k" + std::to_string(k) + "n" + std::to_string(i));
    }
    rig.check_instance(k, proposed);
  }
  // Every stack migrated the stream to the MR version at the same boundary.
  for (NodeId i = 0; i < 3; ++i) {
    EXPECT_EQ(rig.facade[i]->version_count(), 2u) << "stack " << i;
    EXPECT_EQ(rig.facade[i]->stream_version(1), 1u) << "stack " << i;
    EXPECT_EQ(rig.facade[i]->protocol_of(1), "consensus.mr");
  }
}

TEST(ReplConsensus, ChainedSwitchesCtMrCt) {
  Rig rig(SimConfig{.num_stacks = 3, .seed = 3});
  for (InstanceId k = 1; k <= 30; ++k) {
    for (NodeId i = 0; i < 3; ++i) {
      rig.propose(i, k, "k" + std::to_string(k) + "n" + std::to_string(i));
    }
    if (k == 8) {
      rig.world.at_node(rig.world.now(), 1, [&]() {
        rig.facade[1]->request_update("consensus.mr", {});
      });
    }
    rig.world.run_for(200 * kMillisecond);
    if (k == 20) {
      // Second switch only after the first completed on the stream.
      rig.world.at_node(rig.world.now(), 2, [&]() {
        rig.facade[2]->request_update("consensus.ct", {});
      });
    }
  }
  rig.world.run_for(5 * kSecond);

  for (InstanceId k = 1; k <= 30; ++k) {
    std::set<std::string> proposed;
    for (NodeId i = 0; i < 3; ++i) {
      proposed.insert("k" + std::to_string(k) + "n" + std::to_string(i));
    }
    rig.check_instance(k, proposed);
  }
  for (NodeId i = 0; i < 3; ++i) {
    EXPECT_EQ(rig.facade[i]->version_count(), 3u);
    EXPECT_EQ(rig.facade[i]->stream_version(1), 2u);
  }
}

TEST(ReplConsensus, IdleStreamMigratesLazilyOnNextProposal) {
  Rig rig(SimConfig{.num_stacks = 3, .seed = 4});
  for (NodeId i = 0; i < 3; ++i) rig.propose(i, 1, "pre" + std::to_string(i));
  rig.world.run_for(kSecond);
  // Switch while the stream is idle.
  rig.world.at_node(rig.world.now(), 0, [&]() {
    rig.facade[0]->request_update("consensus.mr", {});
  });
  rig.world.run_for(kSecond);
  EXPECT_EQ(rig.facade[1]->stream_version(1), 0u);  // not yet migrated

  // Next proposal carries the vote; the stream crosses its boundary.
  for (NodeId i = 0; i < 3; ++i) rig.propose(i, 2, "post" + std::to_string(i));
  rig.world.run_for(3 * kSecond);
  rig.check_instance(2, {"post0", "post1", "post2"});
  for (NodeId i = 0; i < 3; ++i) {
    EXPECT_EQ(rig.facade[i]->stream_version(1), 1u) << "stack " << i;
  }
  // Instances after the boundary run on MR.
  for (NodeId i = 0; i < 3; ++i) rig.propose(i, 3, "mr" + std::to_string(i));
  rig.world.run_for(3 * kSecond);
  rig.check_instance(3, {"mr0", "mr1", "mr2"});
}

TEST(ReplConsensus, UnknownProtocolRejected) {
  Rig rig(SimConfig{.num_stacks = 3, .seed = 5});
  rig.world.run_for(10 * kMillisecond);
  EXPECT_THROW(rig.facade[0]->request_update("consensus.bogus", {}),
               std::logic_error);
}

TEST(ReplConsensus, AbcastSurvivesConsensusSwitchUnderLoad) {
  // The integration that matters: an unmodified CT-ABcast runs on the
  // consensus facade while CT is live-replaced by MR underneath it.  Total
  // order must hold across the whole run.
  ProtocolLibrary library = make_full_library();
  SimConfig config{.num_stacks = 3, .seed = 6};
  SimWorld world(config, &library);
  Rp2pModule::Config rc;
  rc.retransmit_interval = 5 * kMillisecond;
  testing::install_substrate(world, true, true, true,
                             testing::ConsensusRig::FastFd(), rc);
  std::vector<ReplConsensusModule*> facade;
  AbcastAudit audit;
  std::vector<std::unique_ptr<AbcastAudit::Listener>> listeners;
  for (NodeId i = 0; i < 3; ++i) {
    Stack& stack = world.stack(i);
    facade.push_back(ReplConsensusModule::create(stack));
    CtAbcastModule::create(stack);  // binds "abcast", requires "consensus"
    listeners.push_back(std::make_unique<AbcastAudit::Listener>(audit, i));
    stack.listen<AbcastListener>(kAbcastService, listeners.back().get(),
                                 nullptr);
    stack.start_all();
  }
  for (NodeId i = 0; i < 3; ++i) {
    for (int k = 0; k < 60; ++k) {
      world.at_node((10 + k * 25) * kMillisecond, i, [&world, &audit, i, k]() {
        const Bytes payload =
            to_bytes("n" + std::to_string(i) + "-" + std::to_string(k));
        audit.record_sent(i, payload);
        world.stack(i).require<AbcastApi>(kAbcastService)
            .call([payload](AbcastApi& api) { api.abcast(payload); });
      });
    }
  }
  world.at_node(700 * kMillisecond, 1, [&]() {
    facade[1]->request_update("consensus.mr", {});
  });
  world.run_for(60 * kSecond);

  auto report = audit.check(3);
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(audit.deliveries_at(0), 180u);
  for (NodeId i = 0; i < 3; ++i) {
    EXPECT_EQ(facade[i]->version_count(), 2u) << "stack " << i;
    EXPECT_GE(facade[i]->stream_version(fnv1a64(std::string(kAbcastService) +
                                                "/stream")),
              1u)
        << "stack " << i << " abcast stream did not migrate";
  }
}

}  // namespace
}  // namespace dpu

// Tests for the Chandra-Toueg consensus module: agreement, validity,
// integrity and termination under crashes, false suspicions and message
// loss.
#include "consensus/ct_consensus.hpp"

#include <gtest/gtest.h>

#include "common/consensus_rig.hpp"

namespace dpu {
namespace {

using testing::ConsensusRig;
using testing::kStream;

ConsensusRig::ProviderFactory ct_factory(
    CtConsensusConfig config = CtConsensusConfig{}) {
  return [config](Stack& stack, const std::string& service) -> ConsensusBase* {
    return CtConsensusModule::create(stack, service, config);
  };
}

TEST(CtConsensus, FailureFreeDecidesQuickly) {
  ConsensusRig rig(SimConfig{.num_stacks = 3, .seed = 1}, ct_factory());
  rig.propose(0, 1, "a");
  rig.propose(1, 1, "b");
  rig.propose(2, 1, "c");
  rig.world.run_for(200 * kMillisecond);
  const std::string v = rig.check_decided(1, {"a", "b", "c"});
  EXPECT_FALSE(v.empty());
  // With the round-0 optimization and no failures the decision needs no
  // round changes.
  for (auto* p : rig.providers) {
    EXPECT_EQ(static_cast<CtConsensusModule*>(p)->rounds_aborted(), 0u);
  }
}

TEST(CtConsensus, SevenStacksDecide) {
  ConsensusRig rig(SimConfig{.num_stacks = 7, .seed = 2}, ct_factory());
  for (NodeId i = 0; i < 7; ++i) {
    rig.propose(i, 1, "v" + std::to_string(i));
  }
  rig.world.run_for(kSecond);
  rig.check_decided(1, {"v0", "v1", "v2", "v3", "v4", "v5", "v6"});
}

TEST(CtConsensus, SequentialInstancesAllDecide) {
  ConsensusRig rig(SimConfig{.num_stacks = 3, .seed = 3}, ct_factory());
  // Drive instances 1..20 sequentially from all nodes.
  for (InstanceId k = 1; k <= 20; ++k) {
    for (NodeId i = 0; i < 3; ++i) {
      rig.propose(i, k, "k" + std::to_string(k) + "-from" + std::to_string(i));
    }
    rig.world.run_for(100 * kMillisecond);
  }
  rig.world.run_for(kSecond);
  for (InstanceId k = 1; k <= 20; ++k) {
    std::set<std::string> proposed;
    for (NodeId i = 0; i < 3; ++i) {
      proposed.insert("k" + std::to_string(k) + "-from" + std::to_string(i));
    }
    rig.check_decided(k, proposed);
  }
}

TEST(CtConsensus, StreamsAreIsolated) {
  ConsensusRig rig(SimConfig{.num_stacks = 3, .seed = 4}, ct_factory());
  std::map<InstanceId, std::string> other_stream;
  rig.providers[0]->consensus_bind_stream(
      99, [&](InstanceId k, const Bytes& v) { other_stream[k] = to_string(v); });
  rig.world.at_node(0, 0, [&]() {
    for (NodeId i = 0; i < 3; ++i) {
      rig.providers[i]->propose(kStream, 1, to_bytes("main"));
      rig.providers[i]->propose(99, 1, to_bytes("side"));
    }
  });
  rig.world.run_for(kSecond);
  EXPECT_EQ(rig.check_decided(1, {"main"}), "main");
  ASSERT_EQ(other_stream.count(1), 1u);
  EXPECT_EQ(other_stream[1], "side");
}

TEST(CtConsensus, PassiveMinorityLearnsDecision) {
  // Only a majority proposes; the remaining stack must still decide (via
  // adopted proposals / rbcast decision).
  ConsensusRig rig(SimConfig{.num_stacks = 3, .seed = 5}, ct_factory());
  rig.propose(1, 1, "b");
  rig.propose(2, 1, "c");
  rig.world.run_for(3 * kSecond);  // round 0 (coord s0, passive) may time out
  rig.check_decided(1, {"b", "c"});
}

TEST(CtConsensus, RoundZeroCoordinatorCrashStillDecides) {
  ConsensusRig rig(SimConfig{.num_stacks = 3, .seed = 6}, ct_factory());
  rig.world.at(10 * kMillisecond, [&]() { rig.world.crash(0); });
  rig.world.at(50 * kMillisecond, [&]() {
    for (NodeId i = 1; i < 3; ++i) {
      rig.providers[i]->propose(kStream, 1, to_bytes("v" + std::to_string(i)));
    }
  });
  rig.world.run_for(5 * kSecond);
  rig.check_decided(1, {"v1", "v2"});
}

TEST(CtConsensus, CoordinatorCrashMidInstanceSafe) {
  // Crash the round-0 coordinator shortly after proposals start; survivors
  // must converge on one value without duplicates.
  ConsensusRig rig(SimConfig{.num_stacks = 5, .seed = 7}, ct_factory());
  for (NodeId i = 0; i < 5; ++i) {
    rig.propose(i, 1, "v" + std::to_string(i));
  }
  rig.world.at(kMillisecond / 4, [&]() { rig.world.crash(0); });
  rig.world.run_for(5 * kSecond);
  rig.check_decided(1, {"v0", "v1", "v2", "v3", "v4"});
}

TEST(CtConsensus, LateProposerStillGetsExactlyOneDecision) {
  ConsensusRig rig(SimConfig{.num_stacks = 3, .seed = 8}, ct_factory());
  rig.propose(0, 1, "early");
  rig.propose(1, 1, "early2");
  rig.world.run_for(kSecond);  // decision settled
  rig.propose(2, 1, "late");
  rig.world.run_for(kSecond);
  const std::string v = rig.check_decided(1, {"early", "early2"});
  EXPECT_NE(v, "late");  // validity: late value cannot win a settled instance
}

TEST(CtConsensus, DecisionBufferedUntilStreamBinds) {
  ConsensusRig rig(SimConfig{.num_stacks = 3, .seed = 9}, ct_factory());
  std::map<InstanceId, std::string> late;
  rig.world.at_node(0, 0, [&]() {
    for (NodeId i = 0; i < 3; ++i) {
      rig.providers[i]->propose(7, 1, to_bytes("x"));
    }
  });
  rig.world.run_for(kSecond);
  // Stream 7 had no handler; binding now must replay the decision.
  rig.providers[0]->consensus_bind_stream(
      7, [&](InstanceId k, const Bytes& v) { late[k] = to_string(v); });
  ASSERT_EQ(late.count(1), 1u);
  EXPECT_EQ(late[1], "x");
}

// Property sweep: agreement/validity/integrity under loss + crashes across
// seeds.  Each case runs 10 sequential instances on 5 stacks with 10% loss
// and one crash mid-run.
class CtConsensusChaosTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CtConsensusChaosTest, SafeUnderLossAndCrash) {
  SimConfig config{.num_stacks = 5, .seed = GetParam()};
  config.net.drop_probability = 0.10;
  ConsensusRig rig(config, ct_factory());
  const NodeId victim = static_cast<NodeId>(GetParam() % 5);
  rig.world.at(300 * kMillisecond, [&]() { rig.world.crash(victim); });

  for (InstanceId k = 1; k <= 10; ++k) {
    for (NodeId i = 0; i < 5; ++i) {
      if (!rig.world.crashed(i)) {
        rig.propose(i, k, "k" + std::to_string(k) + "n" + std::to_string(i));
      }
    }
    rig.world.run_for(150 * kMillisecond);
  }
  rig.world.run_for(20 * kSecond);

  for (InstanceId k = 1; k <= 10; ++k) {
    std::set<std::string> proposed;
    for (NodeId i = 0; i < 5; ++i) {
      proposed.insert("k" + std::to_string(k) + "n" + std::to_string(i));
    }
    rig.check_decided(k, proposed);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CtConsensusChaosTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

TEST(CtConsensus, CoordinatorProposeToAllIsOneRp2pCrossing) {
  // rp2p parks messages until the stack's idle point (or its flush window),
  // so inside one event the stack CPU charged (hop cost per service
  // crossing) counts exactly the crossings.  Stack 0 coordinates round 0 and, skipping phase 1, sends its
  // proposal to all three stacks at once.
  constexpr Duration kHop = kMicrosecond;
  SimConfig config{.num_stacks = 3, .seed = 14};
  config.stack_cost.service_hop_cost = kHop;
  ConsensusRig rig(config, ct_factory());
  TimePoint before = -1, after = -1;
  rig.world.at_node(10 * kMillisecond, 0, [&]() {
    before = rig.world.stack(0).host().busy_now();
    rig.providers[0]->propose(kStream, 1, to_bytes("v"));
    after = rig.world.stack(0).host().busy_now();
  });
  rig.world.run_for(kSecond);
  EXPECT_EQ(after - before, kHop);
  EXPECT_EQ(rig.check_decided(1, {"v"}), "v");
}

}  // namespace
}  // namespace dpu

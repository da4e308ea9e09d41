// Tests for Algorithm 1 — the replacement of atomic broadcast.  These are
// the central tests of the reproduction: the four ABcast properties must
// hold *across* protocol switches (paper §5.2.2 proof obligations), the
// generic DPU properties of §3 must hold, and the structural claims of §4
// (application never blocked; modules unaware) must be observable.
#include "repl/repl_abcast.hpp"

#include <gtest/gtest.h>

#include "common/repl_rig.hpp"

namespace dpu {
namespace {

using testing::ReplRig;

TEST(ReplAbcast, DeliversNormallyWithoutSwitch) {
  ReplRig rig(SimConfig{.num_stacks = 3, .seed = 1});
  for (NodeId i = 0; i < 3; ++i) {
    for (int k = 0; k < 10; ++k) {
      rig.send_at(k * 10 * kMillisecond, i,
                  "n" + std::to_string(i) + "-" + std::to_string(k));
    }
  }
  rig.world.run_for(10 * kSecond);
  auto report = rig.audit.check(3);
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(rig.audit.deliveries_at(0), 30u);
  EXPECT_EQ(rig.repl[0]->seq_number(), 0u);
  EXPECT_EQ(rig.repl[0]->undelivered_count(), 0u);
}

TEST(ReplAbcast, SameProtocolSwitchUnderLoad) {
  // The paper's own experiment (§6.2): replace Chandra-Toueg ABcast by the
  // same protocol mid-run, performing all steps of the algorithm.
  ReplRig rig(SimConfig{.num_stacks = 7, .seed = 2});
  for (NodeId i = 0; i < 7; ++i) {
    for (int k = 0; k < 40; ++k) {
      rig.send_at(k * 25 * kMillisecond, i,
                  "n" + std::to_string(i) + "-" + std::to_string(k));
    }
  }
  rig.switch_at(500 * kMillisecond, 3, "abcast.ct");
  rig.world.run_for(30 * kSecond);

  auto report = rig.audit.check(7);
  EXPECT_TRUE(report.ok) << report.summary();
  for (NodeId i = 0; i < 7; ++i) {
    EXPECT_EQ(rig.audit.deliveries_at(i), 7u * 40u) << "stack " << i;
    EXPECT_EQ(rig.repl[i]->seq_number(), 1u) << "stack " << i;
    EXPECT_EQ(rig.repl[i]->switches_completed(), 1u) << "stack " << i;
    EXPECT_EQ(rig.repl[i]->undelivered_count(), 0u) << "stack " << i;
  }
  rig.expect_generic_properties_ok();
}

TEST(ReplAbcast, HeterogeneousSwitchCtToSeq) {
  ReplRig rig(SimConfig{.num_stacks = 3, .seed = 3});
  for (NodeId i = 0; i < 3; ++i) {
    for (int k = 0; k < 30; ++k) {
      rig.send_at(k * 20 * kMillisecond, i,
                  "n" + std::to_string(i) + "-" + std::to_string(k));
    }
  }
  rig.switch_at(300 * kMillisecond, 0, "abcast.seq");
  rig.world.run_for(20 * kSecond);

  auto report = rig.audit.check(3);
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(rig.audit.deliveries_at(0), 90u);
  EXPECT_EQ(rig.repl[1]->current_protocol(), "abcast.seq");
  rig.expect_generic_properties_ok();
}

TEST(ReplAbcast, SwitchToCtCreatesConsensusRecursively) {
  // Start on SEQ-ABcast with NO consensus module in any stack.  Switching
  // to CT-ABcast forces Algorithm 1 lines 25-28: the stack must find and
  // create a provider for the (unbound) consensus service.
  ReplRig rig(SimConfig{.num_stacks = 3, .seed = 4},
              /*initial_protocol=*/"abcast.seq",
              /*with_consensus=*/false);
  for (NodeId i = 0; i < 3; ++i) {
    EXPECT_FALSE(rig.world.stack(i).slot(kConsensusService).bound());
  }
  for (NodeId i = 0; i < 3; ++i) {
    for (int k = 0; k < 30; ++k) {
      rig.send_at(k * 20 * kMillisecond, i,
                  "n" + std::to_string(i) + "-" + std::to_string(k));
    }
  }
  rig.switch_at(300 * kMillisecond, 1, "abcast.ct");
  rig.world.run_for(20 * kSecond);

  auto report = rig.audit.check(3);
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(rig.audit.deliveries_at(2), 90u);
  for (NodeId i = 0; i < 3; ++i) {
    EXPECT_TRUE(rig.world.stack(i).slot(kConsensusService).bound())
        << "stack " << i << " should have created a consensus provider";
  }
  rig.expect_generic_properties_ok();
}

TEST(ReplAbcast, ChainedSwitchesAcrossAllProtocols) {
  ReplRig rig(SimConfig{.num_stacks = 3, .seed = 5});
  for (NodeId i = 0; i < 3; ++i) {
    for (int k = 0; k < 60; ++k) {
      rig.send_at(k * 25 * kMillisecond, i,
                  "n" + std::to_string(i) + "-" + std::to_string(k));
    }
  }
  rig.switch_at(300 * kMillisecond, 0, "abcast.seq");
  rig.switch_at(600 * kMillisecond, 1, "abcast.token");
  rig.switch_at(900 * kMillisecond, 2, "abcast.ct");
  rig.world.run_for(30 * kSecond);

  auto report = rig.audit.check(3);
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(rig.audit.deliveries_at(0), 180u);
  for (NodeId i = 0; i < 3; ++i) {
    EXPECT_EQ(rig.repl[i]->seq_number(), 3u);
    EXPECT_EQ(rig.repl[i]->current_protocol(), "abcast.ct");
  }
  rig.expect_generic_properties_ok();
}

TEST(ReplAbcast, ConcurrentChangeRequestsAreTotallyOrdered) {
  // Two stacks request a switch at the same instant.  Both change messages
  // are ABcast, hence totally ordered: every stack performs both switches
  // in the same order and ends at the same version.
  ReplRig rig(SimConfig{.num_stacks = 5, .seed = 6});
  for (NodeId i = 0; i < 5; ++i) {
    for (int k = 0; k < 30; ++k) {
      rig.send_at(k * 20 * kMillisecond, i,
                  "n" + std::to_string(i) + "-" + std::to_string(k));
    }
  }
  rig.switch_at(300 * kMillisecond, 0, "abcast.seq");
  rig.switch_at(300 * kMillisecond, 4, "abcast.token");
  rig.world.run_for(30 * kSecond);

  auto report = rig.audit.check(5);
  EXPECT_TRUE(report.ok) << report.summary();
  for (NodeId i = 0; i < 5; ++i) {
    EXPECT_EQ(rig.repl[i]->seq_number(), 2u) << "stack " << i;
    EXPECT_EQ(rig.repl[i]->current_protocol(), rig.repl[0]->current_protocol());
  }
  rig.expect_generic_properties_ok();
}

TEST(ReplAbcast, MessagesInFlightAtSwitchAreReissuedNotLost) {
  ReplRig rig(SimConfig{.num_stacks = 3, .seed = 7});
  // Fire a burst and request the switch immediately after: many messages
  // will be ordered after the change message and discarded as stale, so the
  // re-issue path (lines 15-16) must carry them.
  for (NodeId i = 0; i < 3; ++i) {
    for (int k = 0; k < 50; ++k) {
      rig.send_at(100 * kMillisecond, i,
                  "burst-n" + std::to_string(i) + "-" + std::to_string(k));
    }
  }
  rig.switch_at(100 * kMillisecond, 0, "abcast.ct");
  rig.world.run_for(30 * kSecond);

  auto report = rig.audit.check(3);
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(rig.audit.deliveries_at(1), 150u);
  std::uint64_t reissued = 0, stale = 0;
  for (auto* r : rig.repl) {
    reissued += r->reissued_total();
    stale += r->stale_discarded();
  }
  EXPECT_GT(reissued, 0u) << "switch under burst must exercise re-issue";
  EXPECT_GT(stale, 0u) << "switch under burst must discard stale deliveries";
  rig.expect_generic_properties_ok();
}

TEST(ReplAbcast, CrashDuringSwitchPreservesUniformProperties) {
  ReplRig rig(SimConfig{.num_stacks = 5, .seed = 8});
  for (NodeId i = 0; i < 5; ++i) {
    for (int k = 0; k < 40; ++k) {
      rig.send_at(k * 25 * kMillisecond, i,
                  "n" + std::to_string(i) + "-" + std::to_string(k));
    }
  }
  rig.switch_at(500 * kMillisecond, 1, "abcast.ct");
  // Crash a stack right in the middle of the switch window.
  rig.world.at(501 * kMillisecond, [&]() { rig.world.crash(3); });
  rig.world.run_for(40 * kSecond);

  auto report = rig.audit.check(5, {3});
  EXPECT_TRUE(report.ok) << report.summary();
  for (NodeId i = 0; i < 5; ++i) {
    if (i == 3) continue;
    EXPECT_EQ(rig.repl[i]->seq_number(), 1u) << "stack " << i;
  }
  rig.expect_generic_properties_ok();
}

TEST(ReplAbcast, SwitchInitiatorCrashRightAfterRequest) {
  // The initiator dies immediately after calling changeABcast.  Either the
  // change message was ABcast-delivered (all survivors switch) or it never
  // enters the total order (nobody switches) — never a partial switch.
  ReplRig rig(SimConfig{.num_stacks = 5, .seed = 9});
  for (NodeId i = 0; i < 5; ++i) {
    for (int k = 0; k < 30; ++k) {
      rig.send_at(k * 30 * kMillisecond, i,
                  "n" + std::to_string(i) + "-" + std::to_string(k));
    }
  }
  rig.switch_at(400 * kMillisecond, 2, "abcast.seq");
  rig.world.at(400 * kMillisecond + 150 * kMicrosecond,
               [&]() { rig.world.crash(2); });
  rig.world.run_for(40 * kSecond);

  auto report = rig.audit.check(5, {2});
  EXPECT_TRUE(report.ok) << report.summary();
  const std::uint64_t sn0 = rig.repl[0]->seq_number();
  for (NodeId i = 0; i < 5; ++i) {
    if (i == 2) continue;
    EXPECT_EQ(rig.repl[i]->seq_number(), sn0) << "stack " << i;
  }
  rig.expect_generic_properties_ok();
}

TEST(ReplAbcast, ApplicationFacadeNeverBlocks) {
  // §5.3: "the application on top of the stack is never blocked".  In model
  // terms: the facade service satisfies *strong* stack-well-formedness —
  // no application call ever finds the facade unbound, even mid-switch.
  ReplRig rig(SimConfig{.num_stacks = 3, .seed = 10});
  for (NodeId i = 0; i < 3; ++i) {
    for (int k = 0; k < 50; ++k) {
      rig.send_at(k * 10 * kMillisecond, i,
                  "n" + std::to_string(i) + "-" + std::to_string(k));
    }
  }
  rig.switch_at(250 * kMillisecond, 0, "abcast.seq");
  rig.world.run_for(20 * kSecond);

  // Filter the trace to facade-service call events only.
  int facade_queued = 0;
  for (const auto& e : rig.trace.events()) {
    if (e.kind == TraceKind::kCallQueued && e.service == kAbcastService) {
      ++facade_queued;
    }
  }
  EXPECT_EQ(facade_queued, 0)
      << "application calls must never block on the facade";
  auto report = rig.audit.check(3);
  EXPECT_TRUE(report.ok) << report.summary();
}

TEST(ReplAbcast, RetireDestroysOldModuleAfterQuiescence) {
  ReplRig rig(SimConfig{.num_stacks = 3, .seed = 11}, "abcast.ct", true,
              /*retire_after=*/2 * kSecond);
  rig.send_at(50 * kMillisecond, 0, "before");
  rig.switch_at(200 * kMillisecond, 0, "abcast.seq");
  rig.world.run_for(kSecond);
  // Old module (version 0) still present right after the switch...
  const std::string old_instance = "abcast.ct@abcast.inner#0";
  EXPECT_NE(rig.world.stack(0).find_module(old_instance), nullptr);
  rig.world.run_for(5 * kSecond);
  // ...and gone after the retirement delay.
  EXPECT_EQ(rig.world.stack(0).find_module(old_instance), nullptr);
  EXPECT_TRUE(rig.audit.check(3).ok);
}

TEST(ReplAbcast, UnknownProtocolRejectedLocally) {
  ReplRig rig(SimConfig{.num_stacks = 3, .seed = 12});
  rig.world.run_for(10 * kMillisecond);
  EXPECT_THROW(rig.repl[0]->request_update("abcast.nonexistent", {}),
               std::logic_error);
  // The rejected request must not have poisoned the group.
  rig.send_at(rig.world.now() + kMillisecond, 1, "still-works");
  rig.world.run_for(kSecond);
  EXPECT_TRUE(rig.audit.check(3).ok);
  EXPECT_EQ(rig.audit.deliveries_at(0), 1u);
}

// Seed sweep of the paper experiment: same-protocol replacement under load,
// all four ABcast properties plus both generic DPU properties.
class ReplSwitchSweepTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReplSwitchSweepTest, PropertiesHoldAcrossSwitch) {
  SimConfig config{.num_stacks = 3, .seed = GetParam()};
  config.net.drop_probability = 0.05;
  ReplRig rig(config);
  for (NodeId i = 0; i < 3; ++i) {
    for (int k = 0; k < 40; ++k) {
      rig.send_at(k * 20 * kMillisecond, i,
                  "n" + std::to_string(i) + "-" + std::to_string(k));
    }
  }
  // Switch target alternates by seed; switch initiated mid-run.
  const char* target = (GetParam() % 2 == 0) ? "abcast.seq" : "abcast.ct";
  rig.switch_at(400 * kMillisecond, static_cast<NodeId>(GetParam() % 3),
                target);
  rig.world.run_for(40 * kSecond);

  auto report = rig.audit.check(3);
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(rig.audit.deliveries_at(0), 120u);
  rig.expect_generic_properties_ok();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplSwitchSweepTest,
                         ::testing::Values(100, 101, 102, 103, 104, 105, 106,
                                           107));

}  // namespace
}  // namespace dpu

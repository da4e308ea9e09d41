// Tests for Algorithm 1 — the replacement of atomic broadcast.  These are
// the central tests of the reproduction: the four ABcast properties must
// hold *across* protocol switches (paper §5.2.2 proof obligations), the
// generic DPU properties of §3 must hold, and the structural claims of §4
// (application never blocked; modules unaware) must be observable.
#include "repl/repl_abcast.hpp"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <utility>
#include <vector>

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

// ---------------------------------------------------------------------------
// Batched delivery through the facade
// ---------------------------------------------------------------------------

/// A client listener that overrides the batch upcall, recording each run
/// and the facade's version at delivery time.
struct RunRecorder final : AbcastListener {
  explicit RunRecorder(const ReplAbcastModule* facade = nullptr)
      : facade(facade) {}
  void adeliver(NodeId /*sender*/, const Bytes& /*payload*/) override {
    ADD_FAILURE() << "a batch-overriding listener got a per-message upcall";
  }
  void adeliver_batch(std::span<const AbcastDelivery> run) override {
    runs.push_back(run.size());
    for (const AbcastDelivery& d : run) {
      delivered.emplace_back(to_string(d.payload),
                             facade != nullptr ? facade->seq_number() : 0);
    }
  }
  const ReplAbcastModule* facade;
  std::vector<std::size_t> runs;
  /// (payload, facade version when it reached the client)
  std::vector<std::pair<std::string, std::uint64_t>> delivered;
};

struct ChangeBatchOutcome {
  std::vector<std::pair<std::string, std::uint64_t>> delivered;
  std::vector<std::size_t> runs;
  std::uint64_t stale_after_feed = 0;
  std::uint64_t seq_number = 0;
  std::uint64_t switches = 0;
  std::uint64_t reissued = 0;
};

/// Feeds a one-stack facade the inner run [m1, m2, change, m3(stale)] — as
/// one batch, or one message at a time — while its own message "own" is
/// still undelivered.
ChangeBatchOutcome feed_change_batch(bool one_at_a_time) {
  ReplRig rig(SimConfig{.num_stacks = 1, .seed = 51});
  ReplAbcastModule* repl = rig.repl[0];
  RunRecorder client(repl);
  rig.world.stack(0).listen<AbcastListener>(kAbcastService, &client, nullptr);
  rig.world.run_for(100 * kMillisecond);

  ChangeBatchOutcome out;
  rig.world.at_node(rig.world.now(), 0, [&]() {
    repl->abcast(to_bytes("own"));
    auto data = [](std::uint64_t seq, const std::string& text) {
      return ReplacementFacadeBase::wrap_data(0, MsgId{0, 1000 + seq},
                                              Payload(to_bytes(text)))
          .to_bytes();
    };
    BufWriter change;
    change.put_u8(ReplacementFacadeBase::kNewProtocol);
    change.put_varint(0);
    change.put_string("abcast.ct");
    encode_module_params(change, ModuleParams());
    const std::vector<Bytes> inner = {data(1, "m1"), data(2, "m2"),
                                      change.take(), data(3, "m3")};
    if (one_at_a_time) {
      for (const Bytes& wire : inner) repl->adeliver(0, wire);
    } else {
      std::vector<AbcastDelivery> run;
      for (const Bytes& wire : inner) run.push_back(AbcastDelivery{0, wire});
      repl->adeliver_batch(run);
    }
    out.stale_after_feed = repl->stale_discarded();
  });
  rig.world.run_for(2 * kSecond);
  out.delivered = client.delivered;
  out.runs = client.runs;
  out.seq_number = repl->seq_number();
  out.switches = repl->switches_completed();
  out.reissued = repl->reissued_total();
  EXPECT_EQ(repl->undelivered_count(), 0u);
  return out;
}

TEST(ReplAbcast, BatchFlushesRunBeforeSwitchAndDropsStale) {
  const ChangeBatchOutcome batch = feed_change_batch(false);
  // m1 and m2 reach the clients under version 0, before the switch, in one
  // upcall; m3 (issued under version 0, ordered after the change) is
  // discarded; the reissued own message arrives under version 1.
  const std::vector<std::pair<std::string, std::uint64_t>> expected = {
      {"m1", 0}, {"m2", 0}, {"own", 1}};
  EXPECT_EQ(batch.delivered, expected);
  EXPECT_EQ(batch.runs, (std::vector<std::size_t>{2, 1}));
  EXPECT_EQ(batch.stale_after_feed, 1u);
  EXPECT_EQ(batch.seq_number, 1u);
  EXPECT_EQ(batch.switches, 1u);
  EXPECT_EQ(batch.reissued, 1u);

  // The per-message upcall is a one-element batch: same outcome.
  const ChangeBatchOutcome single = feed_change_batch(true);
  EXPECT_EQ(single.delivered, batch.delivered);
  EXPECT_EQ(single.runs, (std::vector<std::size_t>{1, 1, 1}));
  EXPECT_EQ(single.stale_after_feed, batch.stale_after_feed);
  EXPECT_EQ(single.seq_number, batch.seq_number);
  EXPECT_EQ(single.switches, batch.switches);
  EXPECT_EQ(single.reissued, batch.reissued);
}

TEST(ReplAbcast, SnapshotReplayIsOneUpcallPerSwitchSegment) {
  // History: traffic, a CT -> SEQ switch, more traffic.  Stack 2 crashes and
  // recovers with a fresh stack; its facade replays the snapshot (one switch
  // entry) before anything else reaches its clients.
  ReplRig rig(SimConfig{.num_stacks = 3, .seed = 52});
  RunRecorder reference;
  rig.world.stack(0).listen<AbcastListener>(kAbcastService, &reference,
                                            nullptr);
  for (int k = 0; k < 30; ++k) {
    rig.send_at(k * 20 * kMillisecond, static_cast<NodeId>(k % 2),
                "h" + std::to_string(k));
  }
  rig.switch_at(300 * kMillisecond, 0, "abcast.seq");
  rig.world.at(700 * kMillisecond, [&]() { rig.world.crash(2); });

  ReplAbcastModule* recovered = nullptr;
  RunRecorder replayed;
  rig.world.at(kSecond, [&]() {
    rig.world.recover(2);
    Stack& stack = rig.world.stack(2);
    Rp2pModule::Config rc;
    rc.retransmit_interval = 5 * kMillisecond;
    UdpModule::create(stack);
    Rp2pModule::create(stack, kRp2pService, rc);
    RbcastModule::create(stack);
    FdModule::create(stack, kFdService, testing::ConsensusRig::FastFd());
    stack.start_all();
    CtConsensusModule::create(stack);
    recovered = ReplAbcastModule::create(stack, ReplAbcastModule::Config{});
    stack.listen<AbcastListener>(kAbcastService, &replayed, nullptr);
    stack.start_all();
  });
  rig.world.run_for(10 * kSecond);

  ASSERT_NE(recovered, nullptr);
  EXPECT_FALSE(recovered->state_syncing());
  EXPECT_EQ(recovered->current_protocol(), "abcast.seq");
  const std::uint64_t n = recovered->replayed_from_snapshot();
  ASSERT_GT(n, 0u);
  // The first upcalls carry exactly the replay: at most switch entries + 1.
  std::size_t calls = 0;
  std::uint64_t covered = 0;
  while (covered < n && calls < replayed.runs.size()) {
    covered += replayed.runs[calls++];
  }
  EXPECT_EQ(covered, n);
  EXPECT_LE(calls, 2u);
  // In the original total order.
  ASSERT_GE(reference.delivered.size(), n);
  for (std::uint64_t i = 0; i < n; ++i) {
    EXPECT_EQ(replayed.delivered[i].first, reference.delivered[i].first) << i;
  }
}

}  // namespace
}  // namespace dpu

// Tests for the Maestro-style and Graceful-Adaptation-style baselines: both
// must switch correctly (no lost/duplicated/misordered messages), and both
// must exhibit the structural drawbacks the paper attributes to them —
// application blocking (Maestro) and barrier/queueing windows plus the
// no-new-services restriction (Graceful).
#include "repl/baseline_graceful.hpp"
#include "repl/baseline_maestro.hpp"

#include <gtest/gtest.h>

#include "abcast/audit.hpp"
#include "common/repl_rig.hpp"

namespace dpu {
namespace {

using testing::make_full_library;

enum class BaselineKind { kMaestro, kGraceful };

struct BaselineRig {
  BaselineRig(SimConfig config, BaselineKind kind_in)
      : kind(kind_in), library(make_full_library()),
        world(config, &library, &trace) {
    Rp2pModule::Config rc;
    rc.retransmit_interval = 5 * kMillisecond;
    handles = testing::install_substrate(world, true, true, true,
                                         testing::ConsensusRig::FastFd(), rc);
    for (NodeId i = 0; i < world.size(); ++i) {
      Stack& stack = world.stack(i);
      if (kind == BaselineKind::kMaestro) {
        maestro.push_back(MaestroSwitchModule::create(stack));
      } else {
        CtConsensusModule::create(stack);  // graceful AACs share consensus
        graceful.push_back(GracefulSwitchModule::create(stack));
      }
      listeners.push_back(std::make_unique<AbcastAudit::Listener>(audit, i));
      stack.listen<AbcastListener>(kAbcastService, listeners.back().get(),
                                   nullptr);
      stack.start_all();
    }
  }

  void send_at(TimePoint t, NodeId node, const std::string& tag) {
    world.at_node(t, node, [this, node, tag]() {
      if (world.crashed(node)) return;
      const Bytes payload = to_bytes(tag);
      audit.record_sent(node, payload);
      world.stack(node).require<AbcastApi>(kAbcastService)
          .call([payload](AbcastApi& api) { api.abcast(payload); });
    });
  }

  void switch_at(TimePoint t, NodeId node, const std::string& protocol) {
    world.at_node(t, node, [this, node, protocol]() {
      if (kind == BaselineKind::kMaestro) {
        maestro[node]->request_update(protocol, {});
      } else {
        graceful[node]->request_update(protocol, {});
      }
    });
  }

  BaselineKind kind;
  ProtocolLibrary library;
  TraceRecorder trace;
  SimWorld world;
  std::vector<testing::SubstrateHandles> handles;
  std::vector<MaestroSwitchModule*> maestro;
  std::vector<GracefulSwitchModule*> graceful;
  std::vector<std::unique_ptr<AbcastAudit::Listener>> listeners;
  AbcastAudit audit;
};

TEST(MaestroBaseline, DeliversNormallyWithoutSwitch) {
  BaselineRig rig(SimConfig{.num_stacks = 3, .seed = 1}, BaselineKind::kMaestro);
  for (NodeId i = 0; i < 3; ++i) {
    for (int k = 0; k < 10; ++k) {
      rig.send_at(k * 20 * kMillisecond, i,
                  "n" + std::to_string(i) + "-" + std::to_string(k));
    }
  }
  rig.world.run_for(10 * kSecond);
  auto report = rig.audit.check(3);
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(rig.audit.deliveries_at(0), 30u);
}

TEST(MaestroBaseline, SwitchIsCorrectButBlocksTheApplication) {
  BaselineRig rig(SimConfig{.num_stacks = 3, .seed = 2}, BaselineKind::kMaestro);
  for (NodeId i = 0; i < 3; ++i) {
    for (int k = 0; k < 40; ++k) {
      rig.send_at(k * 20 * kMillisecond, i,
                  "n" + std::to_string(i) + "-" + std::to_string(k));
    }
  }
  rig.switch_at(400 * kMillisecond, 0, "abcast.ct");
  rig.world.run_for(30 * kSecond);

  auto report = rig.audit.check(3);
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(rig.audit.deliveries_at(0), 120u);
  for (NodeId i = 0; i < 3; ++i) {
    EXPECT_EQ(rig.maestro[i]->switches_completed(), 1u);
    EXPECT_FALSE(rig.maestro[i]->blocked());
    // The defining drawback: a strictly positive app-blocked window.
    EXPECT_GT(rig.maestro[i]->total_blocked_time(), 0) << "stack " << i;
  }
}

TEST(MaestroBaseline, QueuedCallsSurviveTheSwitch) {
  BaselineRig rig(SimConfig{.num_stacks = 3, .seed = 3}, BaselineKind::kMaestro);
  // A sustained burst across the whole switch window: the marker queues
  // behind the burst backlog, so the app-blocked window opens several
  // milliseconds after the request; keep sending well past it.
  rig.switch_at(100 * kMillisecond, 1, "abcast.ct");
  for (NodeId i = 0; i < 3; ++i) {
    for (int k = 0; k < 300; ++k) {
      // Staggered per stack so sends cover every phase of the ~100us
      // blocked window instead of all landing on the same boundaries.
      rig.send_at(100 * kMillisecond + k * 100 * kMicrosecond +
                      i * 33 * kMicrosecond,
                  i, "b" + std::to_string(i) + "-" + std::to_string(k));
    }
  }
  rig.world.run_for(30 * kSecond);
  auto report = rig.audit.check(3);
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(rig.audit.deliveries_at(2), 900u);
  std::uint64_t queued = 0;
  for (auto* m : rig.maestro) queued += m->calls_queued_while_blocked();
  EXPECT_GT(queued, 0u);
}

TEST(GracefulBaseline, DeliversNormallyWithoutSwitch) {
  BaselineRig rig(SimConfig{.num_stacks = 3, .seed = 4},
                  BaselineKind::kGraceful);
  for (NodeId i = 0; i < 3; ++i) {
    for (int k = 0; k < 10; ++k) {
      rig.send_at(k * 20 * kMillisecond, i,
                  "n" + std::to_string(i) + "-" + std::to_string(k));
    }
  }
  rig.world.run_for(10 * kSecond);
  auto report = rig.audit.check(3);
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(rig.audit.deliveries_at(1), 30u);
}

TEST(GracefulBaseline, BarrierSwitchIsCorrect) {
  BaselineRig rig(SimConfig{.num_stacks = 3, .seed = 5},
                  BaselineKind::kGraceful);
  for (NodeId i = 0; i < 3; ++i) {
    for (int k = 0; k < 40; ++k) {
      rig.send_at(k * 20 * kMillisecond, i,
                  "n" + std::to_string(i) + "-" + std::to_string(k));
    }
  }
  rig.switch_at(400 * kMillisecond, 2, "abcast.seq");
  rig.world.run_for(30 * kSecond);

  auto report = rig.audit.check(3);
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(rig.audit.deliveries_at(0), 120u);
  for (NodeId i = 0; i < 3; ++i) {
    EXPECT_EQ(rig.graceful[i]->switches_completed(), 1u) << "stack " << i;
    EXPECT_FALSE(rig.graceful[i]->switching());
    // Deactivate->activate is a real window: queueing time is positive.
    EXPECT_GT(rig.graceful[i]->total_queueing_window(), 0);
  }
}

TEST(GracefulBaseline, CallsDuringDrainAreQueuedNotLost) {
  BaselineRig rig(SimConfig{.num_stacks = 3, .seed = 6},
                  BaselineKind::kGraceful);
  rig.switch_at(100 * kMillisecond, 0, "abcast.seq");
  for (NodeId i = 0; i < 3; ++i) {
    for (int k = 0; k < 200; ++k) {
      // Dense burst across the drain/marker window.
      rig.send_at(100 * kMillisecond + k * 20 * kMicrosecond, i,
                  "b" + std::to_string(i) + "-" + std::to_string(k));
    }
  }
  rig.world.run_for(30 * kSecond);
  auto report = rig.audit.check(3);
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(rig.audit.deliveries_at(0), 600u);
  std::uint64_t queued = 0;
  for (auto* g : rig.graceful) queued += g->calls_queued_during_switch();
  EXPECT_GT(queued, 0u);
}

TEST(GracefulBaseline, RejectsProtocolNeedingUnboundService) {
  // The flexibility restriction of §4.2: AACs may only use the services the
  // module already requires.  With no consensus module bound, adapting to
  // the consensus-based protocol must be rejected...
  ProtocolLibrary library = make_full_library();
  SimConfig config{.num_stacks = 3, .seed = 7};
  SimWorld world(config, &library);
  std::vector<GracefulSwitchModule*> graceful;
  Rp2pModule::Config rc;
  rc.retransmit_interval = 5 * kMillisecond;
  testing::install_substrate(world, true, true, true,
                             testing::ConsensusRig::FastFd(), rc);
  for (NodeId i = 0; i < 3; ++i) {
    GracefulSwitchModule::Config cfg;
    cfg.initial_protocol = "abcast.seq";
    graceful.push_back(GracefulSwitchModule::create(world.stack(i), cfg));
    world.stack(i).start_all();
  }
  world.run_for(100 * kMillisecond);
  EXPECT_THROW(graceful[0]->request_update("abcast.ct", {}), std::logic_error);
  // ...while a same-requirements target is fine.
  EXPECT_NO_THROW(graceful[0]->request_update("abcast.token", {}));
  world.run_for(10 * kSecond);
  EXPECT_EQ(graceful[1]->switches_completed(), 1u);
}

TEST(GracefulBaseline, ConcurrentSwitchRejectedLocally) {
  BaselineRig rig(SimConfig{.num_stacks = 3, .seed = 8},
                  BaselineKind::kGraceful);
  rig.world.at_node(10 * kMillisecond, 0, [&]() {
    rig.graceful[0]->request_update("abcast.seq", {});
    EXPECT_THROW(rig.graceful[0]->request_update("abcast.token", {}),
                 std::logic_error);
  });
  rig.world.run_for(20 * kSecond);
  EXPECT_EQ(rig.graceful[0]->switches_completed(), 1u);
}

}  // namespace
}  // namespace dpu

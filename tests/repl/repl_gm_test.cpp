// Repl-GM — the replacement substrate instantiated for the dependent GM
// layer: views stay consistent across stacks through a hot swap, membership
// state survives via the continuity replay, facade view ids stay
// monotonic, and the switch drives through the UpdateApi.
#include "repl/repl_gm.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "app/stack_builder.hpp"
#include "sim/sim_world.hpp"

namespace dpu {
namespace {

struct GmRig {
  explicit GmRig(std::size_t n, std::uint64_t seed) {
    options.with_gm = true;
    options.with_gm_replacement = true;
    options.fd.heartbeat_interval = 20 * kMillisecond;
    options.fd.initial_timeout = 100 * kMillisecond;
    library = make_standard_library(options);
    world.emplace(SimConfig{.num_stacks = n, .seed = seed}, &library);
    for (NodeId i = 0; i < n; ++i) {
      stacks.push_back(build_standard_stack(world->stack(i), options));
    }
  }

  [[nodiscard]] ReplGmModule& gm(NodeId i) { return *stacks[i].repl_gm; }

  StandardStackOptions options;
  ProtocolLibrary library;
  std::optional<SimWorld> world;
  std::vector<StandardStack> stacks;
};

TEST(ReplGm, ViewsConsistentAcrossStacksAtSteadyState) {
  GmRig rig(3, 31);
  rig.world->at_node(500 * kMillisecond, 0,
                     [&]() { rig.gm(0).gm_exclude(2); });
  rig.world->at_node(1500 * kMillisecond, 1,
                     [&]() { rig.gm(1).gm_join(2); });
  rig.world->run_for(10 * kSecond);

  const auto& h0 = rig.gm(0).history();
  ASSERT_GE(h0.size(), 3u);
  EXPECT_EQ(h0.back().members, (std::vector<NodeId>{0, 1, 2}));
  for (NodeId i = 1; i < 3; ++i) {
    const auto& hi = rig.gm(i).history();
    ASSERT_EQ(hi.size(), h0.size()) << "stack " << i;
    for (std::size_t k = 0; k < h0.size(); ++k) {
      EXPECT_EQ(hi[k].id, h0[k].id);
      EXPECT_EQ(hi[k].members, h0[k].members);
    }
  }
}

TEST(ReplGm, HotSwapPreservesMembershipAndViewConsistency) {
  GmRig rig(4, 32);
  // Shrink the group first so the continuity replay has real state to
  // carry: exclude node 3 before the switch.
  rig.world->at_node(500 * kMillisecond, 0,
                     [&]() { rig.gm(0).gm_exclude(3); });
  rig.world->at_node(1500 * kMillisecond, 1, [&]() {
    rig.stacks[1].update->request_update(kGmService, "gm.abcast");
  });
  // Post-switch op through the new instance.
  rig.world->at_node(3 * kSecond, 2, [&]() { rig.gm(2).gm_exclude(1); });
  rig.world->run_for(15 * kSecond);

  for (NodeId i = 0; i < 4; ++i) {
    // Membership carried across the swap: node 3 stays excluded, node 1's
    // post-switch exclusion applied.
    EXPECT_EQ(rig.gm(i).gm_view().members, (std::vector<NodeId>{0, 2}))
        << "stack " << i;
    EXPECT_EQ(rig.gm(i).current_protocol(), "gm.abcast");
    EXPECT_EQ(rig.gm(i).seq_number(), 1u);
    const UpdateStatus s = rig.stacks[i].update->current_version(kGmService);
    EXPECT_EQ(s.protocol, "gm.abcast");
    EXPECT_EQ(s.version, 1u);
  }

  // Identical view sequence everywhere, with monotonically increasing
  // facade ids (no restart at the version boundary).
  const auto& h0 = rig.gm(0).history();
  for (std::size_t k = 0; k < h0.size(); ++k) {
    EXPECT_EQ(h0[k].id, k);
  }
  for (NodeId i = 1; i < 4; ++i) {
    const auto& hi = rig.gm(i).history();
    ASSERT_EQ(hi.size(), h0.size()) << "stack " << i;
    for (std::size_t k = 0; k < h0.size(); ++k) {
      EXPECT_EQ(hi[k].members, h0[k].members)
          << "stack " << i << " view " << k;
    }
  }
}

TEST(ReplGm, OpsKeepFlowingThroughTheNewVersion) {
  GmRig rig(3, 33);
  rig.world->at_node(500 * kMillisecond, 0, [&]() {
    rig.gm(0).request_update("gm.abcast", {});
  });
  rig.world->at_node(2 * kSecond, 1, [&]() { rig.gm(1).gm_leave(2); });
  rig.world->at_node(3 * kSecond, 0, [&]() { rig.gm(0).gm_join(2); });
  rig.world->run_for(12 * kSecond);
  for (NodeId i = 0; i < 3; ++i) {
    EXPECT_EQ(rig.gm(i).gm_view().members, (std::vector<NodeId>{0, 1, 2}))
        << "stack " << i;
    EXPECT_EQ(rig.gm(i).switches_completed(), 1u);
  }
}

TEST(ReplGm, ListenersSeeTheRenumberedFacadeViews) {
  GmRig rig(3, 34);
  struct Log final : GmListener {
    std::vector<View> views;
    void on_view(const View& v) override { views.push_back(v); }
  };
  std::vector<Log> logs(3);
  for (NodeId i = 0; i < 3; ++i) {
    rig.world->stack(i).listen<GmListener>(kGmService, &logs[i], nullptr);
  }
  rig.world->at_node(500 * kMillisecond, 0,
                     [&]() { rig.gm(0).gm_exclude(2); });
  rig.world->at_node(1500 * kMillisecond, 0, [&]() {
    rig.stacks[0].update->request_update(kGmService, "gm.abcast");
  });
  rig.world->run_for(12 * kSecond);
  for (NodeId i = 0; i < 3; ++i) {
    ASSERT_GE(logs[i].views.size(), 2u) << "stack " << i;
    // Monotonic ids across the version boundary; final membership carried.
    for (std::size_t k = 1; k < logs[i].views.size(); ++k) {
      EXPECT_EQ(logs[i].views[k].id, logs[i].views[k - 1].id + 1);
    }
    EXPECT_EQ(logs[i].views.back().members, (std::vector<NodeId>{0, 1}));
  }
}

}  // namespace
}  // namespace dpu

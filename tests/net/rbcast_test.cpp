// Tests for reliable broadcast: delivery to all, duplicate suppression, and
// the agreement property under origin/relayer crashes.
#include "net/rbcast.hpp"

#include <gtest/gtest.h>

#include "common/test_world.hpp"

namespace dpu {
namespace {

constexpr ChannelId kChan = 0xC0FFEE;

struct Rig {
  explicit Rig(SimConfig config, bool relay = true) : world(config) {
    RbcastModule::Config rb;
    rb.relay = relay;
    Rp2pModule::Config rc;
    rc.retransmit_interval = 5 * kMillisecond;
    handles = testing::install_substrate(world, true, true, /*with_fd=*/false,
                                         FdModule::Config{}, rc, rb);
    got.resize(world.size());
    for (NodeId i = 0; i < world.size(); ++i) {
      handles[i].rbcast->rbcast_bind_channel(
          kChan, [this, i](NodeId origin, const Payload& p) {
            got[i].emplace_back(origin, to_string(p));
          });
    }
  }

  SimWorld world;
  std::vector<testing::SubstrateHandles> handles;
  std::vector<std::vector<std::pair<NodeId, std::string>>> got;
};

TEST(Rbcast, DeliversToAllIncludingSelf) {
  Rig rig(SimConfig{.num_stacks = 4, .seed = 1});
  rig.world.at_node(0, 2,
                    [&]() { rig.handles[2].rbcast->rbcast(kChan, to_bytes("m")); });
  rig.world.run_for(kSecond);
  for (NodeId i = 0; i < 4; ++i) {
    ASSERT_EQ(rig.got[i].size(), 1u) << "stack " << i;
    EXPECT_EQ(rig.got[i][0].first, 2u);
    EXPECT_EQ(rig.got[i][0].second, "m");
  }
}

TEST(Rbcast, NoDuplicatesDespiteRelays) {
  Rig rig(SimConfig{.num_stacks = 5, .seed = 2});
  rig.world.at_node(0, 0, [&]() {
    for (int k = 0; k < 20; ++k) {
      rig.handles[0].rbcast->rbcast(kChan, to_bytes("m" + std::to_string(k)));
    }
  });
  rig.world.run_for(kSecond);
  for (NodeId i = 0; i < 5; ++i) {
    EXPECT_EQ(rig.got[i].size(), 20u) << "stack " << i;
  }
  // Relays happened (n-1 receivers each relayed first receipts).
  std::uint64_t total_relays = 0;
  for (auto& h : rig.handles) total_relays += h.rbcast->relays();
  EXPECT_GT(total_relays, 0u);
}

TEST(Rbcast, ConcurrentBroadcastersAllDelivered) {
  Rig rig(SimConfig{.num_stacks = 3, .seed = 3});
  for (NodeId i = 0; i < 3; ++i) {
    rig.world.at_node(0, i, [&rig, i]() {
      rig.handles[i].rbcast->rbcast(kChan, to_bytes("from" + std::to_string(i)));
    });
  }
  rig.world.run_for(kSecond);
  for (NodeId i = 0; i < 3; ++i) {
    ASSERT_EQ(rig.got[i].size(), 3u);
    std::set<std::string> payloads;
    for (auto& [origin, payload] : rig.got[i]) payloads.insert(payload);
    EXPECT_EQ(payloads.size(), 3u);
  }
}

TEST(Rbcast, AgreementWhenOriginReachesOnlyOneStack) {
  // Origin 0's packets reach only stack 1 (link filter), then origin
  // crashes.  With relay enabled, stack 1's relay must still deliver the
  // broadcast to stacks 2 and 3: if any correct stack delivers, all do.
  Rig rig(SimConfig{.num_stacks = 4, .seed = 4});
  rig.world.set_link_filter([](NodeId src, NodeId dst) {
    if (src == 0) return dst == 1 || dst == 0;
    return true;  // everyone else unrestricted
  });
  rig.world.at_node(0, 0,
                    [&]() { rig.handles[0].rbcast->rbcast(kChan, to_bytes("m")); });
  rig.world.at(50 * kMillisecond, [&]() { rig.world.crash(0); });
  rig.world.run_for(2 * kSecond);

  for (NodeId i = 1; i < 4; ++i) {
    ASSERT_EQ(rig.got[i].size(), 1u) << "stack " << i;
    EXPECT_EQ(rig.got[i][0].second, "m");
  }
}

TEST(Rbcast, WithoutRelayOriginCrashLosesAgreement) {
  // The ablation contrast for the test above: relay disabled, same fault —
  // stacks 2 and 3 never deliver.  (This is why the default keeps relay on.)
  Rig rig(SimConfig{.num_stacks = 4, .seed = 4}, /*relay=*/false);
  rig.world.set_link_filter([](NodeId src, NodeId dst) {
    if (src == 0) return dst == 1 || dst == 0;
    return true;
  });
  rig.world.at_node(0, 0,
                    [&]() { rig.handles[0].rbcast->rbcast(kChan, to_bytes("m")); });
  rig.world.at(50 * kMillisecond, [&]() { rig.world.crash(0); });
  rig.world.run_for(2 * kSecond);

  EXPECT_EQ(rig.got[1].size(), 1u);
  EXPECT_EQ(rig.got[2].size(), 0u);
  EXPECT_EQ(rig.got[3].size(), 0u);
}

TEST(Rbcast, PendingChannelBufferReleasedOnBind) {
  Rig rig(SimConfig{.num_stacks = 2, .seed = 5});
  std::vector<std::string> late;
  rig.world.at_node(0, 0, [&]() {
    rig.handles[0].rbcast->rbcast(0xBEEF, to_bytes("early"));
  });
  rig.world.run_for(100 * kMillisecond);
  rig.handles[1].rbcast->rbcast_bind_channel(
      0xBEEF, [&](NodeId, const Payload& p) { late.push_back(to_string(p)); });
  EXPECT_EQ(late, (std::vector<std::string>{"early"}));
}

TEST(Rbcast, SurvivesHeavyLoss) {
  SimConfig config{.num_stacks = 3, .seed = 6};
  config.net.drop_probability = 0.3;
  Rig rig(config);
  rig.world.at_node(0, 0, [&]() {
    for (int k = 0; k < 10; ++k) {
      rig.handles[0].rbcast->rbcast(kChan, to_bytes("m" + std::to_string(k)));
    }
  });
  rig.world.run_for(10 * kSecond);
  for (NodeId i = 0; i < 3; ++i) {
    EXPECT_EQ(rig.got[i].size(), 10u) << "stack " << i;
  }
}

// rp2p parks messages until the stack's idle point (or its flush window), so
// inside one event the stack CPU charged (hop cost per service crossing)
// counts exactly the crossings.
constexpr Duration kHop = kMicrosecond;

TEST(Rbcast, BroadcastToAllIsOneRp2pCrossing) {
  SimConfig config{.num_stacks = 4, .seed = 12};
  config.stack_cost.service_hop_cost = kHop;
  Rig rig(config);
  TimePoint before = -1, after = -1;
  rig.world.at_node(10 * kMillisecond, 0, [&]() {
    before = rig.world.stack(0).host().busy_now();
    rig.handles[0].rbcast->rbcast(kChan, to_bytes("m"));
    after = rig.world.stack(0).host().busy_now();
  });
  rig.world.run_for(kSecond);
  EXPECT_EQ(after - before, kHop);
  for (NodeId i = 0; i < 4; ++i) EXPECT_EQ(rig.got[i].size(), 1u) << i;
}

TEST(Rbcast, RelayToAllOthersIsOneRp2pCrossing) {
  // Stack 1 receives the origin's copy first and relays it to stacks 2 and
  // 3; with relay off, the same event differs by exactly that relay.
  auto busy_at_first_receipt = [](bool relay) {
    SimConfig config{.num_stacks = 4, .seed = 13};
    config.stack_cost.service_hop_cost = kHop;
    Rig rig(config, relay);
    TimePoint busy = -1;
    rig.handles[1].rbcast->rbcast_bind_channel(
        kChan, [&](NodeId origin, const Payload&) {
          EXPECT_EQ(origin, 0u);
          if (busy < 0) busy = rig.world.stack(1).host().busy_now();
        });
    rig.world.at_node(10 * kMillisecond, 0, [&]() {
      rig.handles[0].rbcast->rbcast(kChan, to_bytes("m"));
    });
    rig.world.run_for(kSecond);
    EXPECT_EQ(rig.handles[1].rbcast->relays(), relay ? 1u : 0u);
    return busy;
  };
  EXPECT_EQ(busy_at_first_receipt(true) - busy_at_first_receipt(false), kHop);
}

}  // namespace
}  // namespace dpu

// Tests for the TopicMux and GM modules, including the paper's headline
// dependent-protocol claim: GM (which requires the abcast service) keeps
// delivering consistent views while the ABcast protocol underneath it is
// replaced on-the-fly.
#include "gm/gm.hpp"

#include <gtest/gtest.h>

#include "app/kv_store.hpp"
#include "app/stack_builder.hpp"
#include "sim/sim_world.hpp"

namespace dpu {
namespace {

struct Rig {
  explicit Rig(SimConfig config,
               StandardStackOptions options = StandardStackOptions{})
      : library(make_standard_library(options)), world(config, &library) {
    for (NodeId i = 0; i < world.size(); ++i) {
      stacks.push_back(build_standard_stack(world.stack(i), options));
    }
  }

  ProtocolLibrary library;
  SimWorld world;
  std::vector<StandardStack> stacks;
};

class RecordingGmListener final : public GmListener {
 public:
  void on_view(const View& view) override { views.push_back(view); }
  std::vector<View> views;
};

TEST(Topics, PublishSubscribeRoundTrip) {
  Rig rig(SimConfig{.num_stacks = 3, .seed = 1});
  std::vector<std::vector<std::string>> got(3);
  for (NodeId i = 0; i < 3; ++i) {
    rig.stacks[i].topics->subscribe(
        "chat", [&got, i](NodeId, const Bytes& p) {
          got[i].push_back(to_string(p));
        });
  }
  rig.world.at_node(kMillisecond, 0, [&]() {
    rig.stacks[0].topics->publish("chat", to_bytes("hello"));
    rig.stacks[0].topics->publish("other", to_bytes("noise"));
    rig.stacks[0].topics->publish("chat", to_bytes("world"));
  });
  rig.world.run_for(kSecond);
  for (NodeId i = 0; i < 3; ++i) {
    EXPECT_EQ(got[i], (std::vector<std::string>{"hello", "world"}))
        << "stack " << i;
  }
}

TEST(Topics, TopicsIsolateSubscribers) {
  Rig rig(SimConfig{.num_stacks = 2, .seed = 2});
  int chat = 0, kv = 0;
  rig.stacks[1].topics->subscribe("a", [&](NodeId, const Bytes&) { ++chat; });
  rig.stacks[1].topics->subscribe("b", [&](NodeId, const Bytes&) { ++kv; });
  rig.world.at_node(0, 0, [&]() {
    rig.stacks[0].topics->publish("a", to_bytes("1"));
    rig.stacks[0].topics->publish("b", to_bytes("2"));
    rig.stacks[0].topics->publish("a", to_bytes("3"));
  });
  rig.world.run_for(kSecond);
  EXPECT_EQ(chat, 2);
  EXPECT_EQ(kv, 1);
}

TEST(Topics, LateSubscriberReceivesBufferedInOrder) {
  Rig rig(SimConfig{.num_stacks = 2, .seed = 3});
  rig.world.at_node(0, 0, [&]() {
    rig.stacks[0].topics->publish("late", to_bytes("m1"));
    rig.stacks[0].topics->publish("late", to_bytes("m2"));
  });
  rig.world.run_for(kSecond);
  std::vector<std::string> got;
  rig.stacks[1].topics->subscribe(
      "late", [&](NodeId, const Bytes& p) { got.push_back(to_string(p)); });
  EXPECT_EQ(got, (std::vector<std::string>{"m1", "m2"}));
}

TEST(Gm, InitialViewIsFullWorld) {
  Rig rig(SimConfig{.num_stacks = 4, .seed = 4});
  rig.world.run_for(100 * kMillisecond);
  for (NodeId i = 0; i < 4; ++i) {
    const View& v = rig.stacks[i].gm->gm_view();
    EXPECT_EQ(v.id, 0u);
    EXPECT_EQ(v.members, (std::vector<NodeId>{0, 1, 2, 3}));
  }
}

TEST(Gm, MembershipOpsInstallConsistentViews) {
  Rig rig(SimConfig{.num_stacks = 4, .seed = 5});
  RecordingGmListener listener;
  rig.world.stack(2).listen<GmListener>(kGmService, &listener, nullptr);

  rig.world.at_node(10 * kMillisecond, 0,
                    [&]() { rig.stacks[0].gm->gm_leave(3); });
  rig.world.at_node(20 * kMillisecond, 1,
                    [&]() { rig.stacks[1].gm->gm_exclude(2); });
  rig.world.at_node(30 * kMillisecond, 0,
                    [&]() { rig.stacks[0].gm->gm_join(3); });
  rig.world.run_for(2 * kSecond);

  // All stacks installed the same view history.
  const auto& h0 = rig.stacks[0].gm->history();
  ASSERT_EQ(h0.size(), 4u);  // v0..v3
  EXPECT_EQ(h0.back().members, (std::vector<NodeId>{0, 1, 3}));
  for (NodeId i = 1; i < 4; ++i) {
    const auto& hi = rig.stacks[i].gm->history();
    ASSERT_EQ(hi.size(), h0.size()) << "stack " << i;
    for (std::size_t k = 0; k < h0.size(); ++k) {
      EXPECT_EQ(hi[k].id, h0[k].id);
      EXPECT_EQ(hi[k].members, h0[k].members) << "stack " << i << " view " << k;
    }
  }
  EXPECT_EQ(listener.views.size(), 3u);  // three changes after v0
}

TEST(Gm, RedundantOpsDoNotCreateViews) {
  Rig rig(SimConfig{.num_stacks = 3, .seed = 6});
  rig.world.at_node(10 * kMillisecond, 0, [&]() {
    rig.stacks[0].gm->gm_join(1);     // already a member: no-op
    rig.stacks[0].gm->gm_exclude(9);  // not a member: no-op
  });
  rig.world.run_for(kSecond);
  EXPECT_EQ(rig.stacks[0].gm->history().size(), 1u);
}

TEST(Gm, ConcurrentOpsTotallyOrdered) {
  Rig rig(SimConfig{.num_stacks = 5, .seed = 7});
  // All five stacks mutate membership at the same instant.
  for (NodeId i = 0; i < 5; ++i) {
    rig.world.at_node(kMillisecond, i, [&rig, i]() {
      if (i % 2 == 0) {
        rig.stacks[i].gm->gm_leave((i + 1) % 5);
      } else {
        rig.stacks[i].gm->gm_exclude((i + 2) % 5);
      }
    });
  }
  rig.world.run_for(3 * kSecond);
  const auto& h0 = rig.stacks[0].gm->history();
  for (NodeId i = 1; i < 5; ++i) {
    const auto& hi = rig.stacks[i].gm->history();
    ASSERT_EQ(hi.size(), h0.size()) << "stack " << i;
    for (std::size_t k = 0; k < h0.size(); ++k) {
      EXPECT_EQ(hi[k].members, h0[k].members) << "stack " << i;
    }
  }
}

TEST(Gm, KeepsWorkingDuringAbcastReplacement) {
  // The paper's abstract claim: protocols that depend on the updated
  // protocol provide service correctly while the update takes place.  GM
  // ops straddle a CT->SEQ switch; view histories must stay identical.
  Rig rig(SimConfig{.num_stacks = 3, .seed = 8});
  for (int k = 0; k < 10; ++k) {
    rig.world.at_node((50 + k * 100) * kMillisecond, static_cast<NodeId>(k % 3),
                      [&rig, k]() {
                        NodeId target = static_cast<NodeId>((k * 7 + 1) % 3);
                        if (k % 2 == 0) {
                          rig.stacks[0].gm->gm_leave(target);
                        } else {
                          rig.stacks[1].gm->gm_join(target);
                        }
                      });
  }
  rig.world.at_node(500 * kMillisecond, 2, [&]() {
    rig.stacks[2].repl->request_update("abcast.seq", {});
  });
  rig.world.run_for(20 * kSecond);

  ASSERT_EQ(rig.stacks[0].repl->seq_number(), 1u);
  const auto& h0 = rig.stacks[0].gm->history();
  EXPECT_GT(h0.size(), 1u);
  for (NodeId i = 1; i < 3; ++i) {
    const auto& hi = rig.stacks[i].gm->history();
    ASSERT_EQ(hi.size(), h0.size()) << "stack " << i;
    for (std::size_t k = 0; k < h0.size(); ++k) {
      EXPECT_EQ(hi[k].members, h0[k].members)
          << "stack " << i << " diverged at view " << k
          << " across the protocol switch";
    }
  }
}

TEST(KvStore, ReplicasConvergeAndFingerprintsMatch) {
  Rig rig(SimConfig{.num_stacks = 3, .seed = 9});
  std::vector<KvStoreModule*> kv;
  for (NodeId i = 0; i < 3; ++i) {
    kv.push_back(KvStoreModule::create(rig.world.stack(i)));
    rig.world.stack(i).start_all();
  }
  for (int k = 0; k < 20; ++k) {
    rig.world.at_node((10 + k * 10) * kMillisecond,
                      static_cast<NodeId>(k % 3), [&kv, k]() {
                        kv[static_cast<std::size_t>(k % 3)]->kv_put(
                            "key" + std::to_string(k % 7),
                            "val" + std::to_string(k));
                      });
  }
  rig.world.at_node(300 * kMillisecond, 0, [&]() { kv[0]->kv_del("key3"); });
  rig.world.run_for(5 * kSecond);

  EXPECT_EQ(kv[0]->ops_applied(), 21u);
  EXPECT_EQ(kv[0]->kv_get("key3"), std::nullopt);
  for (NodeId i = 1; i < 3; ++i) {
    EXPECT_EQ(kv[i]->fingerprint(), kv[0]->fingerprint()) << "stack " << i;
    EXPECT_EQ(kv[i]->size(), kv[0]->size());
  }
}

TEST(KvStore, ConsistentAcrossProtocolSwitch) {
  Rig rig(SimConfig{.num_stacks = 3, .seed = 10});
  std::vector<KvStoreModule*> kv;
  for (NodeId i = 0; i < 3; ++i) {
    kv.push_back(KvStoreModule::create(rig.world.stack(i)));
    rig.world.stack(i).start_all();
  }
  for (int k = 0; k < 60; ++k) {
    rig.world.at_node((10 + k * 20) * kMillisecond,
                      static_cast<NodeId>(k % 3), [&kv, k]() {
                        kv[static_cast<std::size_t>(k % 3)]->kv_put(
                            "k" + std::to_string(k), "v" + std::to_string(k));
                      });
  }
  rig.world.at_node(600 * kMillisecond, 1, [&]() {
    rig.stacks[1].repl->request_update("abcast.token", {});
  });
  rig.world.run_for(30 * kSecond);

  EXPECT_EQ(kv[0]->ops_applied(), 60u);
  for (NodeId i = 1; i < 3; ++i) {
    EXPECT_EQ(kv[i]->fingerprint(), kv[0]->fingerprint())
        << "replica " << i << " diverged across the switch";
  }
}

}  // namespace
}  // namespace dpu

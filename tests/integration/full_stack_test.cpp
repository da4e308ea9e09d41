// End-to-end integration scenarios combining the whole middleware: the
// Figure-4 stack with GM and the KV store on top, live protocol switches,
// failure-driven adaptation policies, crashes and partitions — the paper's
// "adaptive group communication middleware" working as a system.
#include <gtest/gtest.h>

#include "abcast/audit.hpp"
#include "app/kv_store.hpp"
#include "app/policy.hpp"
#include "app/stack_builder.hpp"
#include "core/properties.hpp"
#include "sim/sim_world.hpp"

namespace dpu {
namespace {

StandardStackOptions tuned_options() {
  StandardStackOptions options;
  options.fd.heartbeat_interval = 20 * kMillisecond;
  options.fd.initial_timeout = 120 * kMillisecond;
  options.rp2p.retransmit_interval = 10 * kMillisecond;
  return options;
}

struct Rig {
  explicit Rig(SimConfig config, StandardStackOptions options = tuned_options())
      : opts(options), library(make_standard_library(options)),
        world(config, &library, &trace) {
    for (NodeId i = 0; i < world.size(); ++i) {
      stacks.push_back(build_standard_stack(world.stack(i), options));
      kv.push_back(KvStoreModule::create(world.stack(i)));
      // Audited application traffic rides its own topic so the audit does
      // not see GM/KV envelopes it never recorded as sent.  The TopicMux
      // preserves the global total order within the topic.
      stacks.back().topics->subscribe(
          "audit", [this, i](NodeId, const Bytes& payload) {
            audit.record_delivery(i, payload);
          });
      world.stack(i).start_all();
    }
  }

  void app_send(TimePoint t, NodeId node, const std::string& tag) {
    world.at_node(t, node, [this, node, tag]() {
      if (world.crashed(node)) return;
      const Bytes payload = to_bytes(tag);
      audit.record_sent(node, payload);
      world.stack(node).require<TopicsApi>(kTopicsService)
          .call([payload](TopicsApi& api) { api.publish("audit", payload); });
    });
  }

  StandardStackOptions opts;
  ProtocolLibrary library;
  TraceRecorder trace;
  SimWorld world;
  std::vector<StandardStack> stacks;
  std::vector<KvStoreModule*> kv;
  AbcastAudit audit;
};

TEST(FullStack, EverythingAtOnceStaysConsistent) {
  // KV writes + GM membership ops + raw abcast traffic, a protocol switch
  // in the middle, one crash after it; every surviving layer must agree.
  Rig rig(SimConfig{.num_stacks = 5, .seed = 1});
  for (NodeId i = 0; i < 5; ++i) {
    for (int k = 0; k < 25; ++k) {
      rig.app_send((20 + k * 40) * kMillisecond, i,
                   "raw-n" + std::to_string(i) + "-" + std::to_string(k));
      rig.world.at_node((30 + k * 40) * kMillisecond, i, [&rig, i, k]() {
        if (rig.world.crashed(i)) return;
        rig.kv[i]->kv_put("k" + std::to_string((i + k) % 16),
                          "v" + std::to_string(k));
      });
    }
  }
  rig.world.at_node(400 * kMillisecond, 0,
                    [&]() { rig.stacks[0].gm->gm_leave(4); });
  rig.world.at_node(500 * kMillisecond, 2, [&]() {
    rig.stacks[2].repl->request_update("abcast.seq", {});
  });
  rig.world.at(700 * kMillisecond, [&]() { rig.world.crash(4); });
  rig.world.at_node(900 * kMillisecond, 1,
                    [&]() { rig.stacks[1].gm->gm_exclude(4); });
  rig.world.run_for(60 * kSecond);

  auto report = rig.audit.check(5, {4});
  EXPECT_TRUE(report.ok) << report.summary();
  // KV replicas identical on survivors.
  for (NodeId i = 1; i < 4; ++i) {
    EXPECT_EQ(rig.kv[i]->fingerprint(), rig.kv[0]->fingerprint())
        << "replica " << i;
  }
  // GM view histories identical on survivors; final view excludes 4.
  const auto& h0 = rig.stacks[0].gm->history();
  EXPECT_EQ(h0.back().members, (std::vector<NodeId>{0, 1, 2, 3}));
  for (NodeId i = 1; i < 4; ++i) {
    const auto& hi = rig.stacks[i].gm->history();
    ASSERT_EQ(hi.size(), h0.size()) << "stack " << i;
    for (std::size_t k = 0; k < h0.size(); ++k) {
      EXPECT_EQ(hi[k].members, h0[k].members);
    }
  }
  // Everyone finished on the sequencer protocol.
  for (NodeId i = 0; i < 4; ++i) {
    EXPECT_EQ(rig.stacks[i].repl->current_protocol(), "abcast.seq");
  }
  auto swf = check_weak_stack_well_formedness(rig.trace.events());
  EXPECT_TRUE(swf.ok) << swf.summary();
}

TEST(FullStack, PolicyFailsOverWhenSequencerDegrades) {
  // The adaptive-middleware loop: SEQ-ABcast is in use; the sequencer's
  // links degrade badly enough for the FD to suspect it; a PolicyEngine
  // rule switches the group to CT-ABcast through the UpdateApi
  // automatically.  Messages held up at the degraded sequencer are
  // re-issued by Algorithm 1, so nothing is lost.
  StandardStackOptions options = tuned_options();
  options.abcast_protocol = "abcast.seq";
  Rig rig(SimConfig{.num_stacks = 4, .seed = 2}, options);
  std::vector<PolicyEngineModule*> policies;
  for (NodeId i = 0; i < 4; ++i) {
    PolicyRule rule;
    rule.name = "seq-failover";
    rule.service = kAbcastService;
    rule.when_protocol = "abcast.seq";
    rule.to_protocol = "abcast.ct";
    rule.trigger = PolicyRule::Trigger::kFdSuspect;
    rule.suspect_node = 0;  // the sequencer
    policies.push_back(PolicyEngineModule::create(
        rig.world.stack(i), PolicyEngineConfig{{rule}, kAbcastService}));
    rig.world.stack(i).start_all();
  }

  for (NodeId i = 0; i < 4; ++i) {
    for (int k = 0; k < 30; ++k) {
      rig.app_send((20 + k * 50) * kMillisecond, i,
                   "n" + std::to_string(i) + "-" + std::to_string(k));
    }
  }
  // Degrade the sequencer: most of its traffic is lost for a while (it is
  // NOT dead — Algorithm 1 needs the old protocol live to order the change
  // message; retransmissions get it through).
  rig.world.at(400 * kMillisecond, [&]() {
    rig.world.set_link_filter([&rig](NodeId src, NodeId dst) {
      if (src != 0 && dst != 0) return true;
      // 85% loss on all sequencer links.
      return rig.world.stack(0).host().rng().chance(0.15);
    });
  });
  rig.world.at(3 * kSecond, [&]() { rig.world.set_link_filter(nullptr); });
  rig.world.run_for(120 * kSecond);

  // The policy fired (exactly one effective switch to CT).
  std::uint64_t triggers = 0;
  for (auto* p : policies) triggers += p->triggers();
  EXPECT_GE(triggers, 1u);
  for (NodeId i = 0; i < 4; ++i) {
    EXPECT_EQ(rig.stacks[i].repl->current_protocol(), "abcast.ct")
        << "stack " << i;
  }
  // No message lost across the degradation + failover.
  auto report = rig.audit.check(4);
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(rig.audit.deliveries_at(0), 120u);
}

TEST(FullStack, RepeatedSwitchStressUnderContinuousLoad) {
  Rig rig(SimConfig{.num_stacks = 3, .seed = 3});
  const char* cycle[] = {"abcast.seq", "abcast.token", "abcast.ct"};
  for (int s = 0; s < 9; ++s) {
    rig.world.at_node((500 + s * 700) * kMillisecond,
                      static_cast<NodeId>(s % 3), [&rig, s, &cycle]() {
                        rig.stacks[static_cast<std::size_t>(s % 3)]
                            .repl->request_update(cycle[s % 3], {});
                      });
  }
  for (NodeId i = 0; i < 3; ++i) {
    for (int k = 0; k < 140; ++k) {
      rig.app_send((10 + k * 50) * kMillisecond, i,
                   "n" + std::to_string(i) + "-" + std::to_string(k));
    }
  }
  rig.world.run_for(120 * kSecond);

  auto report = rig.audit.check(3);
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(rig.audit.deliveries_at(0), 420u);
  for (NodeId i = 0; i < 3; ++i) {
    EXPECT_EQ(rig.stacks[i].repl->seq_number(), 9u) << "stack " << i;
  }
  auto op = check_protocol_operationability(rig.trace.events(), 3);
  EXPECT_TRUE(op.ok) << op.summary();
}

TEST(FullStack, RetirementBoundsModuleCountUnderRepeatedSwitches) {
  StandardStackOptions options = tuned_options();
  options.retire_after = kSecond;
  Rig rig(SimConfig{.num_stacks = 3, .seed = 4}, options);
  for (int s = 0; s < 6; ++s) {
    rig.world.at_node((500 + s * 2000) * kMillisecond, 0, [&rig]() {
      rig.stacks[0].repl->request_update("abcast.ct", {});
    });
  }
  for (NodeId i = 0; i < 3; ++i) {
    for (int k = 0; k < 100; ++k) {
      rig.app_send((10 + k * 120) * kMillisecond, i,
                   "n" + std::to_string(i) + "-" + std::to_string(k));
    }
  }
  rig.world.run_for(60 * kSecond);

  EXPECT_TRUE(rig.audit.check(3).ok);
  EXPECT_EQ(rig.stacks[0].repl->seq_number(), 6u);
  // With retirement on, old protocol instances are destroyed: the stack
  // holds the fixed composition plus at most the latest protocol version
  // (9 standard modules + kv + 1 live abcast instance + slack).
  EXPECT_LE(rig.world.stack(0).module_count(), 13u)
      << "old modules must be retired";
}

TEST(FullStack, MixedSizesSweep) {
  // The same composed system works across group sizes (the paper measures
  // n=3 and n=7).
  for (std::size_t n : {2ul, 3ul, 4ul, 7ul}) {
    Rig rig(SimConfig{.num_stacks = n, .seed = 50 + n});
    for (NodeId i = 0; i < n; ++i) {
      for (int k = 0; k < 10; ++k) {
        rig.app_send((10 + k * 50) * kMillisecond, i,
                     "n" + std::to_string(i) + "-" + std::to_string(k));
      }
    }
    rig.world.at_node(250 * kMillisecond, 0, [&rig]() {
      rig.stacks[0].repl->request_update("abcast.seq", {});
    });
    rig.world.run_for(30 * kSecond);
    auto report = rig.audit.check(n);
    EXPECT_TRUE(report.ok) << "n=" << n << ": " << report.summary();
    EXPECT_EQ(rig.audit.deliveries_at(0), n * 10u) << "n=" << n;
  }
}

}  // namespace
}  // namespace dpu

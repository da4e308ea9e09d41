// Reproducibility guarantee: the entire composed middleware — substrate,
// consensus, ABcast, replacement layer, GM, KV — run under the simulator is
// bit-for-bit deterministic in the world seed.  Every benchmark number and
// every chaos-test failure in this repository is reproducible from a seed;
// this test pins that property for the full stack, not just the engine.
#include <gtest/gtest.h>

#include "abcast/audit.hpp"
#include "app/kv_store.hpp"
#include "app/stack_builder.hpp"
#include "core/trace.hpp"
#include "sim/sim_world.hpp"

namespace dpu {
namespace {

struct RunResult {
  std::vector<std::string> deliveries;  // stack 0's delivery sequence
  std::uint64_t kv_fingerprint = 0;
  std::uint64_t trace_digest = 0;
  std::uint64_t packets = 0;
};

RunResult run_world(std::uint64_t seed) {
  StandardStackOptions options;
  options.fd.heartbeat_interval = 20 * kMillisecond;
  ProtocolLibrary library = make_standard_library(options);
  TraceRecorder trace;
  SimConfig config{.num_stacks = 3, .seed = seed};
  config.net.drop_probability = 0.05;
  config.stack_cost.service_hop_cost = 8 * kMicrosecond;
  SimWorld world(config, &library, &trace);

  std::vector<StandardStack> stacks;
  std::vector<KvStoreModule*> kv;
  RunResult result;
  struct Recorder final : AbcastListener {
    std::vector<std::string>* out;
    void adeliver(NodeId sender, const Bytes& payload) override {
      out->push_back(std::to_string(sender) + ":" + to_string(payload));
    }
  };
  Recorder recorder;
  recorder.out = &result.deliveries;
  for (NodeId i = 0; i < 3; ++i) {
    stacks.push_back(build_standard_stack(world.stack(i), options));
    kv.push_back(KvStoreModule::create(world.stack(i)));
    world.stack(i).start_all();
  }
  world.stack(0).listen<AbcastListener>(kAbcastService, &recorder, nullptr);

  for (int k = 0; k < 60; ++k) {
    const auto node = static_cast<NodeId>(k % 3);
    world.at_node((10 + k * 25) * kMillisecond, node, [&world, node, k]() {
      world.stack(node).require<AbcastApi>(kAbcastService)
          .call([k](AbcastApi& api) {
            api.abcast(to_bytes("m" + std::to_string(k)));
          });
    });
    world.at_node((15 + k * 25) * kMillisecond, node, [&kv, node, k]() {
      kv[node]->kv_put("k" + std::to_string(k % 8), std::to_string(k));
    });
  }
  world.at_node(700 * kMillisecond, 1, [&]() {
    stacks[1].repl->request_update("abcast.seq", {});
  });
  world.at_node(1200 * kMillisecond, 2, [&]() {
    stacks[2].gm->gm_leave(0);
  });
  world.run_for(30 * kSecond);

  result.kv_fingerprint = kv[0]->fingerprint();
  result.packets = world.packets_sent();
  std::uint64_t digest = 1469598103934665603ULL;
  for (const TraceEvent& e : trace.events()) {
    digest ^= fnv1a64(e.str());
    digest *= 1099511628211ULL;
  }
  result.trace_digest = digest;
  return result;
}

TEST(Determinism, FullStackRunIsBitReproducible) {
  const RunResult a = run_world(20260611);
  const RunResult b = run_world(20260611);
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.kv_fingerprint, b.kv_fingerprint);
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_FALSE(a.deliveries.empty());
}

TEST(Determinism, DifferentSeedsDiverge) {
  const RunResult a = run_world(1);
  const RunResult b = run_world(2);
  // Same logical outcome is possible, but the packet schedule must differ.
  EXPECT_NE(a.trace_digest, b.trace_digest);
}

}  // namespace
}  // namespace dpu

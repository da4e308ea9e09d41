// Adaptive replicated key-value store.
//
// A 5-replica KV store runs on the totally-ordered channel while the
// underlying atomic broadcast protocol is upgraded twice (CT -> SEQ ->
// TOKEN) under sustained write load.  The example audits, at the end, that
// every replica applied exactly the same operation sequence (identical
// fingerprints) — the paper's "software upgrade without service
// interruption" scenario for a stateful service.
//
//   $ ./adaptive_kv
#include <cstdio>
#include <vector>

#include "app/kv_store.hpp"
#include "app/stack_builder.hpp"
#include "sim/sim_world.hpp"

using namespace dpu;

int main() {
  constexpr std::size_t kReplicas = 5;
  constexpr int kWriters = 5;
  constexpr int kWritesPerWriter = 400;

  StandardStackOptions options;
  ProtocolLibrary library = make_standard_library(options);
  SimWorld world(SimConfig{.num_stacks = kReplicas, .seed = 7}, &library);

  std::vector<StandardStack> stacks;
  std::vector<KvStoreModule*> kv;
  for (NodeId i = 0; i < kReplicas; ++i) {
    stacks.push_back(build_standard_stack(world.stack(i), options));
    kv.push_back(KvStoreModule::create(world.stack(i)));
    world.stack(i).start_all();
  }

  // Sustained write load: every replica issues puts at ~100 ops/s.
  for (int w = 0; w < kWriters; ++w) {
    for (int k = 0; k < kWritesPerWriter; ++k) {
      const auto node = static_cast<NodeId>(w);
      world.at_node((10 + k * 10) * kMillisecond, node, [&kv, node, k]() {
        kv[node]->kv_put("user:" + std::to_string((node * 131 + k) % 64),
                         "v" + std::to_string(node) + "." + std::to_string(k));
      });
    }
  }

  // Two live upgrades while writes are flowing.
  world.at_node(1500 * kMillisecond, 1, [&]() {
    std::printf("t=1.5s  upgrade #1: abcast.ct -> abcast.seq\n");
    stacks[1].update->request_update(kAbcastService, "abcast.seq");
  });
  world.at_node(3000 * kMillisecond, 3, [&]() {
    std::printf("t=3.0s  upgrade #2: abcast.seq -> abcast.token\n");
    stacks[3].update->request_update(kAbcastService, "abcast.token");
  });

  world.run_for(30 * kSecond);

  // Consistency audit.
  std::printf("\nreplica audit after %d writes and 2 live upgrades:\n",
              kWriters * kWritesPerWriter);
  bool consistent = true;
  for (NodeId i = 0; i < kReplicas; ++i) {
    std::printf("  replica %u: ops=%llu keys=%zu fingerprint=%016llx\n", i,
                static_cast<unsigned long long>(kv[i]->ops_applied()),
                kv[i]->size(),
                static_cast<unsigned long long>(kv[i]->fingerprint()));
    if (kv[i]->fingerprint() != kv[0]->fingerprint() ||
        kv[i]->ops_applied() != kv[0]->ops_applied()) {
      consistent = false;
    }
  }
  const bool all_applied =
      kv[0]->ops_applied() ==
      static_cast<std::uint64_t>(kWriters * kWritesPerWriter);
  std::printf("\nall replicas identical: %s, no operation lost: %s\n",
              consistent ? "yes" : "NO (bug!)",
              all_applied ? "yes" : "NO (bug!)");
  std::printf("final protocol: %s after %llu switches\n",
              stacks[0].repl->current_protocol().c_str(),
              static_cast<unsigned long long>(
                  stacks[0].repl->switches_completed()));
  return consistent && all_applied ? 0 : 1;
}

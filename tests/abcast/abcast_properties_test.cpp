// Property tests common to all three ABcast providers: the four properties
// of paper §5.1 under concurrent senders, bursts and message loss.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/abcast_rig.hpp"
#include "net/msg_dedup.hpp"

namespace dpu {
namespace {

using testing::AbcastKind;
using testing::AbcastRig;
using testing::abcast_kind_name;

struct PropertyCase {
  AbcastKind kind;
  std::uint64_t seed;
  double drop;
};

std::string case_name(const ::testing::TestParamInfo<PropertyCase>& info) {
  return std::string(abcast_kind_name(info.param.kind)) + "_seed" +
         std::to_string(info.param.seed) + "_drop" +
         std::to_string(static_cast<int>(info.param.drop * 100));
}

class AbcastPropertyTest : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(AbcastPropertyTest, FourPropertiesUnderConcurrentLoad) {
  const PropertyCase& c = GetParam();
  SimConfig config{.num_stacks = 3, .seed = c.seed};
  config.net.drop_probability = c.drop;
  AbcastRig rig(config, c.kind);

  // Every stack sends 30 messages spread over 3 simulated seconds.
  const int kPerNode = 30;
  for (NodeId i = 0; i < 3; ++i) {
    for (int k = 0; k < kPerNode; ++k) {
      rig.send_at(k * 100 * kMillisecond, i,
                  "n" + std::to_string(i) + "-" + std::to_string(k));
    }
  }
  rig.world.run_for(30 * kSecond);

  auto report = rig.audit.check(3);
  EXPECT_TRUE(report.ok) << report.summary();
  for (NodeId i = 0; i < 3; ++i) {
    EXPECT_EQ(rig.audit.deliveries_at(i), 3u * kPerNode) << "stack " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AbcastPropertyTest,
    ::testing::Values(
        PropertyCase{AbcastKind::kCt, 1, 0.0},
        PropertyCase{AbcastKind::kCt, 2, 0.0},
        PropertyCase{AbcastKind::kCt, 3, 0.05},
        PropertyCase{AbcastKind::kCt, 4, 0.15},
        PropertyCase{AbcastKind::kSeq, 1, 0.0},
        PropertyCase{AbcastKind::kSeq, 2, 0.0},
        PropertyCase{AbcastKind::kSeq, 3, 0.05},
        PropertyCase{AbcastKind::kSeq, 4, 0.15},
        PropertyCase{AbcastKind::kToken, 1, 0.0},
        PropertyCase{AbcastKind::kToken, 2, 0.0},
        PropertyCase{AbcastKind::kToken, 3, 0.05},
        PropertyCase{AbcastKind::kToken, 4, 0.15}),
    case_name);

class AbcastBurstTest : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(AbcastBurstTest, SimultaneousBurstKeepsTotalOrder) {
  const PropertyCase& c = GetParam();
  SimConfig config{.num_stacks = 5, .seed = c.seed};
  config.net.drop_probability = c.drop;
  AbcastRig rig(config, c.kind);

  // All five stacks fire 20 messages at the same instant: maximal
  // contention for the ordering layer.
  for (NodeId i = 0; i < 5; ++i) {
    for (int k = 0; k < 20; ++k) {
      rig.send_at(kMillisecond, i,
                  "burst-n" + std::to_string(i) + "-" + std::to_string(k));
    }
  }
  rig.world.run_for(30 * kSecond);

  auto report = rig.audit.check(5);
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(rig.audit.deliveries_at(0), 100u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AbcastBurstTest,
    ::testing::Values(PropertyCase{AbcastKind::kCt, 21, 0.0},
                      PropertyCase{AbcastKind::kCt, 22, 0.1},
                      PropertyCase{AbcastKind::kSeq, 21, 0.0},
                      PropertyCase{AbcastKind::kSeq, 22, 0.1},
                      PropertyCase{AbcastKind::kToken, 21, 0.0},
                      PropertyCase{AbcastKind::kToken, 22, 0.1}),
    case_name);

TEST(CtAbcast, UniformPropertiesSurviveMinorityCrash) {
  // CT-ABcast is the fault-tolerant provider: crash one of five stacks
  // mid-burst and audit the survivors (paper §5.1 uniform properties).
  SimConfig config{.num_stacks = 5, .seed = 31};
  AbcastRig rig(config, AbcastKind::kCt);
  for (NodeId i = 0; i < 5; ++i) {
    for (int k = 0; k < 40; ++k) {
      rig.send_at(k * 20 * kMillisecond, i,
                  "n" + std::to_string(i) + "-" + std::to_string(k));
    }
  }
  rig.world.at(350 * kMillisecond, [&]() { rig.world.crash(4); });
  rig.world.run_for(30 * kSecond);

  auto report = rig.audit.check(5, {4});
  EXPECT_TRUE(report.ok) << report.summary();
  // The survivors delivered identical sequences, including every message
  // stack 4 managed to deliver before dying.
  EXPECT_EQ(rig.audit.deliveries_at(0), rig.audit.deliveries_at(1));
  EXPECT_EQ(rig.audit.deliveries_at(0), rig.audit.deliveries_at(2));
}

TEST(CtAbcast, SenderCrashRightAfterAbcastIsAllOrNothing) {
  // Uniform agreement edge: the sender crashes immediately after abcast.
  // The message must be delivered by all correct stacks or by none.
  SimConfig config{.num_stacks = 3, .seed = 32};
  AbcastRig rig(config, AbcastKind::kCt);
  rig.send_at(kMillisecond, 2, "doomed");
  rig.world.at(kMillisecond + 200 * kMicrosecond, [&]() { rig.world.crash(2); });
  // Background traffic so the protocol keeps running.
  for (int k = 0; k < 10; ++k) {
    rig.send_at(10 * kMillisecond + k * 10 * kMillisecond, 0,
                "bg-" + std::to_string(k));
  }
  rig.world.run_for(20 * kSecond);

  auto report = rig.audit.check(3, {2});
  EXPECT_TRUE(report.ok) << report.summary();
  const bool at0 = rig.audit.deliveries_at(0) == 11;  // bg + doomed
  const bool at1 = rig.audit.deliveries_at(1) == 11;
  const bool none = rig.audit.deliveries_at(0) == 10 &&
                    rig.audit.deliveries_at(1) == 10;
  EXPECT_TRUE((at0 && at1) || none)
      << "deliveries: " << rig.audit.deliveries_at(0) << ", "
      << rig.audit.deliveries_at(1);
}

TEST(SeqAbcast, SequencerCountsMatchDeliveries) {
  SimConfig config{.num_stacks = 3, .seed = 33};
  AbcastRig rig(config, AbcastKind::kSeq);
  for (NodeId i = 0; i < 3; ++i) {
    rig.send_at(kMillisecond, i, "m" + std::to_string(i));
  }
  rig.world.run_for(kSecond);
  EXPECT_TRUE(rig.audit.check(3).ok);
  // Only the sequencer stamped messages.
  auto* seq0 = dynamic_cast<SeqAbcastModule*>(
      rig.world.stack(0).find_module(kAbcastService));
  ASSERT_NE(seq0, nullptr);
  EXPECT_EQ(seq0->sequenced(), 3u);
}

TEST(TokenAbcast, TokenRotatesAndIdleHoldBoundsTraffic) {
  SimConfig config{.num_stacks = 3, .seed = 34};
  AbcastRig rig(config, AbcastKind::kToken);
  rig.world.run_for(kSecond);  // idle run
  auto* tok0 = dynamic_cast<TokenAbcastModule*>(
      rig.world.stack(0).find_module(kAbcastService));
  ASSERT_NE(tok0, nullptr);
  // With a 1ms idle hold, a 3-stack ring does at most ~1000/(3*1) ≈ 330
  // visits per stack per second (plus hop latency slack).
  EXPECT_GT(tok0->token_visits(), 50u);
  EXPECT_LT(tok0->token_visits(), 500u);
}

TEST(CtAbcast, BatchingKeepsUpUnderPressure) {
  // More senders than batch slots: deliveries must still complete and stay
  // ordered (messages spill into later instances).
  SimConfig config{.num_stacks = 3, .seed = 35};
  AbcastRig rig(config, AbcastKind::kCt);
  for (NodeId i = 0; i < 3; ++i) {
    for (int k = 0; k < 200; ++k) {
      rig.send_at(kMillisecond, i,
                  "p" + std::to_string(i) + "-" + std::to_string(k));
    }
  }
  rig.world.run_for(60 * kSecond);
  auto report = rig.audit.check(3);
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(rig.audit.deliveries_at(1), 600u);
  auto* ct0 = dynamic_cast<CtAbcastModule*>(
      rig.world.stack(0).find_module(kAbcastService));
  ASSERT_NE(ct0, nullptr);
  EXPECT_GE(ct0->instances_settled(), 600u / 128u);  // needed > 1 instance
  EXPECT_EQ(ct0->pending_count(), 0u);
}

/// Records every upcall's run; overrides the batch upcall.
struct BatchRecorder final : AbcastListener {
  void adeliver(NodeId /*sender*/, const Bytes& /*payload*/) override {
    ADD_FAILURE() << "a batch-overriding listener got a per-message upcall";
  }
  void adeliver_batch(std::span<const AbcastDelivery> run) override {
    runs.emplace_back();
    for (const AbcastDelivery& d : run) {
      runs.back().emplace_back(d.sender, to_string(d.payload));
    }
  }
  std::vector<std::vector<std::pair<NodeId, std::string>>> runs;
};

/// Overrides only the per-message upcall (the default batch upcall feeds it).
struct MessageRecorder final : AbcastListener {
  void adeliver(NodeId sender, const Bytes& payload) override {
    seen.emplace_back(sender, to_string(payload));
  }
  std::vector<std::pair<NodeId, std::string>> seen;
};

TEST(CtAbcast, EachDecidedBatchIsOneUpcall) {
  SimConfig config{.num_stacks = 3, .seed = 36};
  AbcastRig rig(config, AbcastKind::kCt);
  std::vector<BatchRecorder> batched(3);
  std::vector<MessageRecorder> single(3);
  for (NodeId i = 0; i < 3; ++i) {
    rig.world.stack(i).listen<AbcastListener>(kAbcastService, &batched[i],
                                              nullptr);
    rig.world.stack(i).listen<AbcastListener>(kAbcastService, &single[i],
                                              nullptr);
  }
  // Bursts fill multi-message decisions.
  for (NodeId i = 0; i < 3; ++i) {
    for (int k = 0; k < 50; ++k) {
      rig.send_at((k / 10) * 20 * kMillisecond, i,
                  "b" + std::to_string(i) + "-" + std::to_string(k));
    }
  }
  rig.world.run_for(10 * kSecond);
  ASSERT_TRUE(rig.audit.check(3).ok);

  for (NodeId i = 0; i < 3; ++i) {
    auto* ct = dynamic_cast<CtAbcastModule*>(
        rig.world.stack(i).find_module(kAbcastService));
    ASSERT_NE(ct, nullptr);
    // Failure-free, every decided batch holds only messages new here (a
    // stack proposes instance k+1 only after applying k), so there is
    // exactly one upcall per settled instance.
    EXPECT_EQ(batched[i].runs.size(), ct->instances_settled()) << i;
    std::vector<std::pair<NodeId, std::string>> flat;
    std::size_t longest = 0;
    for (const auto& run : batched[i].runs) {
      EXPECT_FALSE(run.empty());
      longest = std::max(longest, run.size());
      flat.insert(flat.end(), run.begin(), run.end());
    }
    EXPECT_GT(longest, 1u) << "bursts should decide multi-message batches";
    EXPECT_EQ(flat, single[i].seen) << "stack " << i;
    EXPECT_EQ(flat.size(), 150u);
    // Delivered ids settle in order per origin: the dedup holds no runs.
    EXPECT_EQ(ct->delivered_entries(), 0u);
  }
}

// ---------------------------------------------------------------------------
// MsgDedup in CT-ABcast's delivered-id role (no archive compaction)
// ---------------------------------------------------------------------------

TEST(MsgDedup, InOrderIdsFromThreeOriginsRetainNothing) {
  MsgDedup dedup;
  dedup.reset(3);
  for (std::uint64_t seq = 1; seq <= 100'000; ++seq) {
    for (NodeId origin = 0; origin < 3; ++origin) {
      ASSERT_TRUE(dedup.mark_seen({origin, seq}));
    }
  }
  EXPECT_EQ(dedup.entries(), 0u);
  EXPECT_TRUE(dedup.seen({1, 100'000}));
  EXPECT_FALSE(dedup.seen({1, 100'001}));
}

TEST(MsgDedup, OutOfOrderIdIsDeduplicatedExactlyOnce) {
  MsgDedup dedup;
  dedup.reset(1);
  EXPECT_TRUE(dedup.mark_seen({0, 1}));
  EXPECT_TRUE(dedup.mark_seen({0, 3}));  // past the gap at 2
  EXPECT_EQ(dedup.entries(), 1u);
  EXPECT_TRUE(dedup.seen({0, 3}));
  EXPECT_FALSE(dedup.seen({0, 2}));
  EXPECT_FALSE(dedup.mark_seen({0, 3}));
  EXPECT_TRUE(dedup.mark_seen({0, 2}));  // fills the gap
  EXPECT_FALSE(dedup.mark_seen({0, 2}));
  EXPECT_EQ(dedup.entries(), 0u);  // the ahead-run folded into the watermark
}

TEST(MsgDedup, EarlierEpochOfRecoveredOriginIsDeduplicatedExactlyOnce) {
  MsgDedup dedup;
  dedup.reset(2);
  const std::uint64_t e1 = incarnation_seq_base(1);
  const std::uint64_t e2 = incarnation_seq_base(2);
  EXPECT_TRUE(dedup.mark_seen({1, 1}));
  EXPECT_TRUE(dedup.mark_seen({1, e2 + 1}));  // recovered twice
  // Late copies of epoch 0 and epoch 1 still count once each; without
  // archive compaction every earlier epoch stays exact.
  EXPECT_TRUE(dedup.mark_seen({1, 2}));
  EXPECT_FALSE(dedup.mark_seen({1, 2}));
  EXPECT_FALSE(dedup.seen({1, e1 + 1}));
  EXPECT_TRUE(dedup.mark_seen({1, e1 + 1}));
  EXPECT_FALSE(dedup.mark_seen({1, e1 + 1}));
  EXPECT_TRUE(dedup.seen({1, e1 + 1}));
  EXPECT_FALSE(dedup.mark_seen({1, 1}));
  EXPECT_EQ(dedup.entries(), 0u);
}

TEST(MsgDedup, CompactionSuppressesEpochsOlderThanTheArchive) {
  MsgDedup dedup;
  dedup.reset(1, /*max_old_epochs=*/1);
  EXPECT_TRUE(dedup.mark_seen({0, 1}));
  EXPECT_TRUE(dedup.mark_seen({0, incarnation_seq_base(1) + 1}));
  EXPECT_TRUE(dedup.mark_seen({0, incarnation_seq_base(2) + 1}));
  // Epoch 0's window was compacted away: its ids count as seen.
  EXPECT_TRUE(dedup.seen({0, 5}));
  EXPECT_FALSE(dedup.mark_seen({0, 5}));
}

}  // namespace
}  // namespace dpu

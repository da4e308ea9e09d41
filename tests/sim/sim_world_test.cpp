// Tests for the discrete-event engine: virtual time, timers, the network
// model, the processor (busy-time) model, determinism, and fault injection.
#include "sim/sim_world.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace dpu {
namespace {

TEST(SimWorld, TimerFiresAtRequestedVirtualTime) {
  SimWorld world(SimConfig{.num_stacks = 1, .seed = 1});
  HostEnv& host = world.stack(0).host();

  TimePoint fired_at = -1;
  host.set_timer(100 * kMillisecond, [&]() { fired_at = host.now(); });
  world.run_for(kSecond);
  EXPECT_EQ(fired_at, 100 * kMillisecond);
  EXPECT_EQ(world.now(), kSecond);
}

TEST(SimWorld, TimerWithZeroAndNegativeDelayFiresImmediately) {
  SimWorld world(SimConfig{.num_stacks = 1, .seed = 1});
  HostEnv& host = world.stack(0).host();
  int fired = 0;
  host.set_timer(0, [&]() { ++fired; });
  host.set_timer(-5, [&]() { ++fired; });  // clamped to 0
  world.run_for(1);
  EXPECT_EQ(fired, 2);
}

TEST(SimWorld, CancelledTimerDoesNotFire) {
  SimWorld world(SimConfig{.num_stacks = 1, .seed = 1});
  HostEnv& host = world.stack(0).host();
  bool fired = false;
  const TimerId id = host.set_timer(10 * kMillisecond, [&]() { fired = true; });
  host.cancel_timer(id);
  world.run_for(kSecond);
  EXPECT_FALSE(fired);
}

TEST(SimWorld, CancelIsIdempotentAndSafeAfterFire) {
  SimWorld world(SimConfig{.num_stacks = 1, .seed = 1});
  HostEnv& host = world.stack(0).host();
  int fired = 0;
  const TimerId id = host.set_timer(kMillisecond, [&]() { ++fired; });
  world.run_for(kSecond);
  EXPECT_EQ(fired, 1);
  host.cancel_timer(id);  // already fired: must be a no-op
  host.cancel_timer(id);
  world.run_for(kSecond);
  EXPECT_EQ(fired, 1);
}

TEST(SimWorld, SameDeadlineEventsRunInInsertionOrder) {
  SimWorld world(SimConfig{.num_stacks = 1, .seed = 1});
  HostEnv& host = world.stack(0).host();
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    host.set_timer(kMillisecond, [&order, i]() { order.push_back(i); });
  }
  world.run_for(kSecond);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimWorld, PostRunsAfterCurrentEvent) {
  SimWorld world(SimConfig{.num_stacks = 1, .seed = 1});
  HostEnv& host = world.stack(0).host();
  std::vector<int> order;
  host.set_timer(kMillisecond, [&]() {
    order.push_back(1);
    host.post([&]() { order.push_back(3); });
    order.push_back(2);
  });
  world.run_for(kSecond);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

/// The idle point: an idle callback armed while the stack is busy runs only
/// after every other event of that stack due at or before its busy horizon,
/// including events deferred behind the horizon and the horizon growth
/// those events charge.
TEST(SimWorld, IdleCallbackRunsAfterEveryEventDueByTheBusyHorizon) {
  SimWorld world(SimConfig{.num_stacks = 1, .seed = 1});
  HostEnv& host = world.stack(0).host();
  std::vector<std::pair<std::string, TimePoint>> order;
  const auto note = [&](const char* what) {
    order.emplace_back(what, host.now());
  };
  host.set_timer(11500 * kMicrosecond, [&]() { note("c"); });
  host.set_timer(20 * kMillisecond, [&]() { note("late"); });
  world.at_node(kMillisecond, 0, [&]() {
    note("a");
    host.charge(10 * kMillisecond);  // busy until 11 ms
    host.set_idle_timer([&]() { note("idle"); });
    host.set_timer(4 * kMillisecond, [&]() {
      note("b");
      host.charge(kMillisecond);  // busy until 12 ms
    });
  });
  world.run_for(kSecond);
  const std::vector<std::pair<std::string, TimePoint>> expected{
      {"a", kMillisecond},          {"b", 11 * kMillisecond},
      {"c", 12 * kMillisecond},     {"idle", 12 * kMillisecond},
      {"late", 20 * kMillisecond}};
  EXPECT_EQ(order, expected);
}

/// Idle events sort after every non-idle event at their time; among
/// themselves, and among the non-idle events, insertion order still holds.
TEST(SimWorld, SameTimeNonIdleEventsKeepTheirOrderAheadOfIdleCallbacks) {
  SimWorld world(SimConfig{.num_stacks = 1, .seed = 1});
  HostEnv& host = world.stack(0).host();
  std::vector<std::string> order;
  world.at_node(kMillisecond, 0, [&]() {
    host.set_idle_timer([&]() { order.push_back("i1"); });
    host.post([&]() { order.push_back("p1"); });
    host.set_timer(0, [&]() { order.push_back("t1"); });
    host.set_idle_timer([&]() { order.push_back("i2"); });
    host.post([&]() { order.push_back("p2"); });
  });
  world.run_for(kSecond);
  EXPECT_EQ(order, (std::vector<std::string>{"p1", "t1", "p2", "i1", "i2"}));
}

TEST(SimWorld, CancelledIdleCallbackNeverRuns) {
  SimWorld world(SimConfig{.num_stacks = 1, .seed = 1});
  HostEnv& host = world.stack(0).host();
  bool cancelled_ran = false;
  bool kept_ran = false;
  world.at_node(kMillisecond, 0, [&]() {
    const TimerId id = host.set_idle_timer([&]() { cancelled_ran = true; });
    host.set_idle_timer([&]() { kept_ran = true; });
    host.cancel_timer(id);
  });
  world.run_for(kSecond);
  EXPECT_FALSE(cancelled_ran);
  EXPECT_TRUE(kept_ran);
}

/// An idle callback still pending when its stack crashes belongs to the
/// dead incarnation: recovery purges it, so it can neither run nor fire a
/// timer the new incarnation arms in the same (slot, generation) cell.
TEST(SimWorld, IdleCallbackPendingAtACrashNeverReachesTheNewIncarnation) {
  SimWorld world(SimConfig{.num_stacks = 1, .seed = 1});
  bool old_idle_ran = false;
  std::vector<TimePoint> new_fired;
  world.at_node(kMillisecond, 0, [&]() {
    HostEnv& host = world.stack(0).host();
    host.charge(10 * kMillisecond);  // the idle point is at 11 ms
    host.set_idle_timer([&]() { old_idle_ran = true; });
  });
  world.at(5 * kMillisecond, [&]() { world.crash(0); });
  world.at(6 * kMillisecond, [&]() {
    world.recover(0);
    HostEnv& host = world.stack(0).host();
    host.set_timer(50 * kMillisecond,
                   [&]() { new_fired.push_back(host.now()); });
  });
  world.run_for(kSecond);
  EXPECT_FALSE(old_idle_ran);
  EXPECT_EQ(new_fired, std::vector<TimePoint>{56 * kMillisecond});
}

TEST(SimWorld, PacketDeliveredWithinLatencyBounds) {
  SimConfig config{.num_stacks = 2, .seed = 7};
  config.net.min_latency = 50 * kMicrosecond;
  config.net.max_latency = 80 * kMicrosecond;
  SimWorld world(config);

  TimePoint sent_at = -1, recv_at = -1;
  NodeId from = kNoNode;
  world.stack(1).host().set_packet_handler(
      [&](NodeId src, const Payload& data) {
        recv_at = world.now();
        from = src;
        EXPECT_EQ(to_string(data), "hi");
      });
  world.at_node(kMillisecond, 0, [&]() {
    sent_at = world.now();
    world.stack(0).host().send_packet(1, to_bytes("hi"));
  });
  world.run_for(kSecond);

  ASSERT_GE(recv_at, 0);
  EXPECT_EQ(from, 0u);
  EXPECT_GE(recv_at - sent_at, 50 * kMicrosecond);
  // Upper bound plus receive-side CPU cost.
  EXPECT_LE(recv_at - sent_at, 90 * kMicrosecond);
}

TEST(SimWorld, SelfSendDelivered) {
  SimWorld world(SimConfig{.num_stacks = 1, .seed = 3});
  int got = 0;
  world.stack(0).host().set_packet_handler(
      [&](NodeId src, const Payload&) {
        EXPECT_EQ(src, 0u);
        ++got;
      });
  world.at_node(0, 0,
                [&]() { world.stack(0).host().send_packet(0, to_bytes("x")); });
  world.run_for(kSecond);
  EXPECT_EQ(got, 1);
}

TEST(SimWorld, DropAllLosesEveryPacket) {
  SimConfig config{.num_stacks = 2, .seed = 5};
  config.net.drop_probability = 1.0;
  SimWorld world(config);
  int got = 0;
  world.stack(1).host().set_packet_handler(
      [&](NodeId, const Payload&) { ++got; });
  world.at_node(0, 0, [&]() {
    for (int i = 0; i < 10; ++i) {
      world.stack(0).host().send_packet(1, to_bytes("x"));
    }
  });
  world.run_for(kSecond);
  EXPECT_EQ(got, 0);
  EXPECT_EQ(world.packets_dropped(), 10u);
}

TEST(SimWorld, DuplicationDeliversTwice) {
  SimConfig config{.num_stacks = 2, .seed = 5};
  config.net.duplicate_probability = 1.0;
  SimWorld world(config);
  int got = 0;
  world.stack(1).host().set_packet_handler(
      [&](NodeId, const Payload&) { ++got; });
  world.at_node(0, 0,
                [&]() { world.stack(0).host().send_packet(1, to_bytes("x")); });
  world.run_for(kSecond);
  EXPECT_EQ(got, 2);
}

TEST(SimWorld, LinkFilterPartitionsTraffic) {
  SimWorld world(SimConfig{.num_stacks = 3, .seed = 2});
  std::vector<int> got(3, 0);
  for (NodeId i = 0; i < 3; ++i) {
    world.stack(i).host().set_packet_handler(
        [&got, i](NodeId, const Payload&) { ++got[i]; });
  }
  // Partition {0} vs {1,2}.
  world.set_link_filter([](NodeId src, NodeId dst) {
    const bool src_side = src == 0;
    const bool dst_side = dst == 0;
    return src_side == dst_side;
  });
  world.at_node(0, 0, [&]() {
    world.stack(0).host().send_packet(1, to_bytes("x"));
    world.stack(0).host().send_packet(0, to_bytes("x"));
  });
  world.at_node(0, 1, [&]() {
    world.stack(1).host().send_packet(2, to_bytes("x"));
    world.stack(1).host().send_packet(0, to_bytes("x"));
  });
  world.run_for(kSecond);
  EXPECT_EQ(got[0], 1);  // only its own loopback
  EXPECT_EQ(got[1], 0);
  EXPECT_EQ(got[2], 1);

  // Heal and verify traffic flows again.
  world.set_link_filter(nullptr);
  world.at_node(world.now(), 0,
                [&]() { world.stack(0).host().send_packet(1, to_bytes("x")); });
  world.run_for(kSecond);
  EXPECT_EQ(got[1], 1);
}

TEST(SimWorld, CrashedStackReceivesNothingAndRunsNothing) {
  SimWorld world(SimConfig{.num_stacks = 2, .seed = 9});
  int timer_fired = 0, packets = 0;
  world.stack(1).host().set_packet_handler(
      [&](NodeId, const Payload&) { ++packets; });
  world.stack(1).host().set_timer(10 * kMillisecond,
                                  [&]() { ++timer_fired; });
  world.at(5 * kMillisecond, [&]() { world.crash(1); });
  world.at_node(6 * kMillisecond, 0, [&]() {
    world.stack(0).host().send_packet(1, to_bytes("x"));
  });
  world.run_for(kSecond);
  EXPECT_EQ(timer_fired, 0);
  EXPECT_EQ(packets, 0);
  EXPECT_TRUE(world.crashed(1));
  EXPECT_EQ(world.crashed_set(), std::set<NodeId>{1});
}

TEST(SimWorld, ChargeDelaysSubsequentEventsOnSameStack) {
  // The processor model: a handler that charges 10ms of CPU pushes the
  // stack's next event to t+10ms, modelling queueing under load.
  SimWorld world(SimConfig{.num_stacks = 1, .seed = 1});
  HostEnv& host = world.stack(0).host();
  std::vector<TimePoint> at;
  host.set_timer(kMillisecond, [&]() {
    at.push_back(host.now());
    host.charge(10 * kMillisecond);
  });
  host.set_timer(2 * kMillisecond, [&]() { at.push_back(host.now()); });
  world.run_for(kSecond);
  ASSERT_EQ(at.size(), 2u);
  EXPECT_EQ(at[0], kMillisecond);
  EXPECT_EQ(at[1], 11 * kMillisecond);
}

TEST(SimWorld, ChargeDoesNotAffectOtherStacks) {
  SimWorld world(SimConfig{.num_stacks = 2, .seed = 1});
  std::vector<TimePoint> at;
  world.stack(0).host().set_timer(kMillisecond, [&]() {
    world.stack(0).host().charge(50 * kMillisecond);
  });
  world.stack(1).host().set_timer(2 * kMillisecond, [&]() {
    at.push_back(world.now());
  });
  world.run_for(kSecond);
  ASSERT_EQ(at.size(), 1u);
  EXPECT_EQ(at[0], 2 * kMillisecond);
}

TEST(SimWorld, DeterministicAcrossRunsWithSameSeed) {
  auto run = [](std::uint64_t seed) {
    SimConfig config{.num_stacks = 3, .seed = seed};
    config.net.drop_probability = 0.1;
    SimWorld world(config);
    std::vector<std::pair<NodeId, TimePoint>> deliveries;
    for (NodeId i = 0; i < 3; ++i) {
      world.stack(i).host().set_packet_handler(
          [&deliveries, &world, i](NodeId, const Payload&) {
            deliveries.emplace_back(i, world.now());
          });
    }
    for (int k = 0; k < 50; ++k) {
      world.at_node(k * kMillisecond, static_cast<NodeId>(k % 3), [&world, k]() {
        const NodeId src = static_cast<NodeId>(k % 3);
        const NodeId dst = static_cast<NodeId>((k + 1) % 3);
        world.stack(src).host().send_packet(dst, to_bytes("ping"));
      });
    }
    world.run_for(kSecond);
    return deliveries;
  };
  auto a = run(1234);
  auto b = run(1234);
  auto c = run(4321);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(SimWorld, EventBudgetGuardStopsRunaway) {
  SimWorld world(SimConfig{.num_stacks = 1, .seed = 1});
  HostEnv& host = world.stack(0).host();
  // A self-perpetuating zero-delay loop.
  std::function<void()> loop = [&]() { host.post(loop); };
  host.post(loop);
  EXPECT_FALSE(world.run_until(kSecond, /*max_events=*/1000));
  EXPECT_GE(world.processed_events(), 1000u);
}

TEST(SimWorld, PacketToStackWithoutHandlerIsDropped) {
  SimWorld world(SimConfig{.num_stacks = 2, .seed = 1});
  world.at_node(0, 0,
                [&]() { world.stack(0).host().send_packet(1, to_bytes("x")); });
  EXPECT_NO_THROW(world.run_for(kSecond));
}

TEST(SimWorld, ShardCountOtherThanOneThrows) {
  for (const std::size_t shards : {0u, 2u}) {
    SimConfig config{.num_stacks = 3, .seed = 1};
    config.shards = shards;
    EXPECT_THROW(SimWorld world(config), std::invalid_argument)
        << "shards=" << shards;
  }
}

/// Zero latency jitter and zero send/receive cost make every packet of a
/// salvo arrive at node 0 at the same virtual instant.  The mailbox merge
/// key (deliver_time, src, dst, link_seq) — not the order the senders ran
/// in — decides the delivery order: ascending src, then send order.
TEST(SimWorld, EqualTimeArrivalsDeliverInSourceThenLinkSeqOrder) {
  SimConfig config{.num_stacks = 8, .seed = 42};
  config.net.min_latency = 50 * kMicrosecond;
  config.net.max_latency = 50 * kMicrosecond;
  config.net.send_cost_fixed = 0;
  config.net.send_cost_per_byte_ns = 0;
  config.net.recv_cost_fixed = 0;
  config.net.recv_cost_per_byte_ns = 0;
  SimWorld world(config);
  std::vector<std::pair<NodeId, std::string>> got;
  std::vector<TimePoint> got_at;
  world.stack(0).host().set_packet_handler(
      [&](NodeId src, const Payload& data) {
        got.emplace_back(src, to_string(data));
        got_at.push_back(world.now());
      });
  // Senders run in decreasing node order (node 0 included: self-sends take
  // the mailbox too), so "sorted by src" is a real assertion.
  for (int s = 7; s >= 0; --s) {
    const auto src = static_cast<NodeId>(s);
    world.at_node(kMillisecond, src, [&world, src]() {
      for (int k = 0; k < 4; ++k) {
        world.stack(src).host().send_packet(
            0, to_bytes("k" + std::to_string(k)));
      }
    });
  }
  world.run_for(kSecond);

  std::vector<std::pair<NodeId, std::string>> expected;
  for (NodeId src = 0; src < 8; ++src) {
    for (int k = 0; k < 4; ++k) {
      expected.emplace_back(src, "k" + std::to_string(k));
    }
  }
  EXPECT_EQ(got, expected);
  ASSERT_EQ(got_at.size(), expected.size());
  for (const TimePoint t : got_at) {
    EXPECT_EQ(t, kMillisecond + 50 * kMicrosecond);
  }
}

/// Certain duplication: the two copies of one send share (time, src, dst)
/// and are ordered by link_seq alone, so they stay adjacent and in send
/// order.
TEST(SimWorld, DuplicateCopiesStayInLinkSeqOrder) {
  SimConfig config{.num_stacks = 4, .seed = 11};
  config.net.min_latency = 50 * kMicrosecond;
  config.net.max_latency = 50 * kMicrosecond;
  config.net.duplicate_probability = 1.0;
  config.net.recv_cost_fixed = 0;
  config.net.recv_cost_per_byte_ns = 0;
  SimWorld world(config);
  std::vector<std::pair<NodeId, std::string>> got;
  world.stack(1).host().set_packet_handler(
      [&](NodeId src, const Payload& data) {
        got.emplace_back(src, to_string(data));
      });
  for (NodeId src = 0; src < 4; ++src) {
    world.at_node(kMillisecond, src, [&world, src]() {
      world.stack(src).host().send_packet(1, to_bytes("a"));
      world.stack(src).host().send_packet(1, to_bytes("b"));
    });
  }
  world.run_for(kSecond);

  // Every sender is charged the same send cost, so all first sends arrive
  // together, then all second sends.
  std::vector<std::pair<NodeId, std::string>> expected;
  for (const char* payload : {"a", "b"}) {
    for (NodeId src = 0; src < 4; ++src) {
      expected.emplace_back(src, payload);
      expected.emplace_back(src, payload);
    }
  }
  EXPECT_EQ(got, expected);
}

/// A packet in flight to a node that crashes and recovers before the
/// packet is due belongs to the dead incarnation and must never reach the
/// new one — whether it was sent from a node event (already in the event
/// heap at the crash) or from driver context in the same step as the
/// crash and recovery (still in the mailbox).
TEST(SimWorld, InFlightPacketsNeverReachTheRecoveredIncarnation) {
  SimConfig config{.num_stacks = 2, .seed = 5};
  config.net.min_latency = 10 * kMillisecond;
  config.net.max_latency = 10 * kMillisecond;
  SimWorld world(config);
  std::vector<std::string> old_got, new_got;
  world.stack(1).host().set_packet_handler(
      [&](NodeId, const Payload& data) {
        old_got.push_back(to_string(data));
      });
  world.at_node(kMillisecond, 0, [&]() {
    world.stack(0).host().send_packet(1, to_bytes("from-node"));
  });
  world.at(2 * kMillisecond, [&]() {
    world.stack(0).host().send_packet(1, to_bytes("from-driver"));
    world.crash(1);
    world.recover(1);
    world.stack(1).host().set_packet_handler(
        [&](NodeId, const Payload& data) {
          new_got.push_back(to_string(data));
        });
  });
  // Control: traffic sent to the new incarnation is delivered.
  world.at(3 * kMillisecond, [&]() {
    world.stack(0).host().send_packet(1, to_bytes("after"));
  });
  world.run_for(kSecond);
  EXPECT_TRUE(old_got.empty());
  EXPECT_EQ(new_got, std::vector<std::string>{"after"});
}

}  // namespace
}  // namespace dpu

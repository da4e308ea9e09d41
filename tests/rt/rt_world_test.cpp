// Integration tests for the real-time engine: the identical protocol code
// that the simulator runs must also work under real threads, on both the
// in-process and the UDP-socket transports — including a live protocol
// switch (the paper's experiment, on a real multi-threaded runtime).
//
// These tests use real time; generous deadlines keep them robust on loaded
// CI machines.
#include "rt/rt_world.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "abcast/audit.hpp"
#include "app/stack_builder.hpp"
#include "core/properties.hpp"

namespace dpu {
namespace {

StandardStackOptions fast_options() {
  StandardStackOptions options;
  options.fd.heartbeat_interval = 20 * kMillisecond;
  options.fd.initial_timeout = 200 * kMillisecond;
  options.rp2p.retransmit_interval = 20 * kMillisecond;
  options.with_gm = false;
  return options;
}

/// Polls `done` until it returns true or the deadline expires.
bool wait_until(const std::function<bool()>& done, Duration deadline) {
  const auto end = std::chrono::steady_clock::now() +
                   std::chrono::nanoseconds(deadline);
  while (std::chrono::steady_clock::now() < end) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return done();
}

struct RtRig {
  explicit RtRig(RtConfig config, StandardStackOptions options = fast_options())
      : opts(options), library(make_standard_library(options)),
        world(config, &library, &trace) {
    for (NodeId i = 0; i < world.size(); ++i) {
      stacks.push_back(build_standard_stack(world.stack(i), options));
      listeners.push_back(std::make_unique<AbcastAudit::Listener>(audit, i));
      world.stack(i).listen<AbcastListener>(kAbcastService,
                                            listeners.back().get(), nullptr);
    }
    world.start();
  }

  void send(NodeId node, const std::string& tag) {
    const Bytes payload = to_bytes(tag);
    audit.record_sent(node, payload);
    world.post_to(node, [this, node, payload]() {
      world.stack(node).require<AbcastApi>(kAbcastService)
          .call([payload](AbcastApi& api) { api.abcast(payload); });
    });
  }

  StandardStackOptions opts;
  ProtocolLibrary library;
  TraceRecorder trace;
  RtWorld world;
  std::vector<StandardStack> stacks;
  std::vector<std::unique_ptr<AbcastAudit::Listener>> listeners;
  AbcastAudit audit;
};

TEST(RtWorld, AbcastDeliversOnRealThreads) {
  RtRig rig(RtConfig{.num_stacks = 3, .seed = 1});
  for (NodeId i = 0; i < 3; ++i) {
    for (int k = 0; k < 10; ++k) {
      rig.send(i, "n" + std::to_string(i) + "-" + std::to_string(k));
    }
  }
  ASSERT_TRUE(wait_until(
      [&]() {
        for (NodeId i = 0; i < 3; ++i) {
          if (rig.audit.deliveries_at(i) < 30) return false;
        }
        return true;
      },
      20 * kSecond))
      << "deliveries: " << rig.audit.deliveries_at(0) << ", "
      << rig.audit.deliveries_at(1) << ", " << rig.audit.deliveries_at(2);
  rig.world.stop();
  auto report = rig.audit.check(3);
  EXPECT_TRUE(report.ok) << report.summary();
}

TEST(RtWorld, ProtocolSwitchOnRealThreads) {
  // The paper's experiment on the threaded runtime: replace the ABcast
  // protocol while load is flowing.
  RtRig rig(RtConfig{.num_stacks = 3, .seed = 2});
  std::atomic<bool> stop_load{false};
  std::thread loader([&]() {
    int k = 0;
    while (!stop_load.load()) {
      for (NodeId i = 0; i < 3; ++i) {
        rig.send(i, "load-n" + std::to_string(i) + "-" + std::to_string(k));
      }
      ++k;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  rig.world.call_on(0, [&]() {
    rig.stacks[0].repl->request_update("abcast.seq", {});
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop_load.store(true);
  loader.join();

  // Wait for every sent message to arrive everywhere.
  const std::size_t expected = rig.audit.total_sent();
  ASSERT_TRUE(wait_until(
      [&]() {
        for (NodeId i = 0; i < 3; ++i) {
          if (rig.audit.deliveries_at(i) < expected) return false;
        }
        return true;
      },
      30 * kSecond));
  rig.world.stop();

  for (NodeId i = 0; i < 3; ++i) {
    EXPECT_EQ(rig.stacks[i].repl->seq_number(), 1u) << "stack " << i;
    EXPECT_EQ(rig.stacks[i].repl->current_protocol(), "abcast.seq");
  }
  auto report = rig.audit.check(3);
  EXPECT_TRUE(report.ok) << report.summary();
  auto swf = check_weak_stack_well_formedness(rig.trace.events());
  EXPECT_TRUE(swf.ok) << swf.summary();
}

TEST(RtWorld, UdpSocketTransportDelivers) {
  RtConfig config{.num_stacks = 3, .seed = 3};
  config.transport = RtTransport::kUdpSockets;
  config.udp_base_port = 38911;
  RtRig rig(config);
  for (NodeId i = 0; i < 3; ++i) {
    for (int k = 0; k < 5; ++k) {
      rig.send(i, "udp-n" + std::to_string(i) + "-" + std::to_string(k));
    }
  }
  ASSERT_TRUE(wait_until(
      [&]() {
        for (NodeId i = 0; i < 3; ++i) {
          if (rig.audit.deliveries_at(i) < 15) return false;
        }
        return true;
      },
      30 * kSecond));
  rig.world.stop();
  auto report = rig.audit.check(3);
  EXPECT_TRUE(report.ok) << report.summary();
}

TEST(RtWorld, LossyInprocTransportStillReliable) {
  RtConfig config{.num_stacks = 3, .seed = 4};
  config.drop_probability = 0.05;
  RtRig rig(config);
  for (NodeId i = 0; i < 3; ++i) {
    for (int k = 0; k < 10; ++k) {
      rig.send(i, "lossy-n" + std::to_string(i) + "-" + std::to_string(k));
    }
  }
  ASSERT_TRUE(wait_until(
      [&]() {
        for (NodeId i = 0; i < 3; ++i) {
          if (rig.audit.deliveries_at(i) < 30) return false;
        }
        return true;
      },
      30 * kSecond));
  rig.world.stop();
  EXPECT_TRUE(rig.audit.check(3).ok);
}

TEST(RtWorld, CrashStopsAStackAndSurvivorsContinue) {
  RtRig rig(RtConfig{.num_stacks = 5, .seed = 5});
  for (NodeId i = 0; i < 5; ++i) rig.send(i, "pre-" + std::to_string(i));
  ASSERT_TRUE(wait_until(
      [&]() { return rig.audit.deliveries_at(0) >= 5; }, 20 * kSecond));

  rig.world.crash(4);
  for (NodeId i = 0; i < 4; ++i) rig.send(i, "post-" + std::to_string(i));
  ASSERT_TRUE(wait_until(
      [&]() {
        for (NodeId i = 0; i < 4; ++i) {
          if (rig.audit.deliveries_at(i) < 9) return false;
        }
        return true;
      },
      30 * kSecond));
  rig.world.stop();
  auto report = rig.audit.check(5, rig.world.crashed_set());
  EXPECT_TRUE(report.ok) << report.summary();
}

TEST(RtWorld, CallOnRunsOnStackThreadAndBlocks) {
  RtRig rig(RtConfig{.num_stacks = 2, .seed = 6});
  std::atomic<int> value{0};
  rig.world.call_on(1, [&]() { value.store(42); });
  EXPECT_EQ(value.load(), 42);  // call_on is synchronous
  rig.world.stop();
}

}  // namespace
}  // namespace dpu

// bench_engine_throughput — engine hot-path benchmark, perf-gated in CI.
//
// Measures raw simulator throughput (events/sec, packets/sec of wall time)
// on four workloads:
//
//   * saturate     — five stacks flood the rbcast substrate at a rate far
//                    beyond the calibrated CPU model's capacity, so the run
//                    is dominated by packet-delivery and timer events: the
//                    exact hot path the zero-copy Payload buffers, the
//                    pooled event engine and the batched packet path
//                    optimize.  Runs the product-default rp2p configuration
//                    (coalesced delayed acks, message batching on).
//   * saturate_unbatched — the same flood with batch_flush_ns = 0 (every
//                    send seals its own one-message batch datagram): the
//                    batching ablation.  The ratio of its datagram count to
//                    saturate's is the batching win the CI curve gate
//                    enforces.
//   * saturate_per_packet — the batching ablation with ack coalescing
//                    disabled too (one ack per DATA packet): the historical
//                    event mix, kept as the coalescing ablation.
//   * crash_storm  — the product-default flood with two mid-run crashes and
//                    a long drain window; exercises the rp2p
//                    give-up/backoff path (without it, crashed stacks
//                    attract unbounded retransmissions for the whole
//                    drain).
//
// --curve additionally sweeps node count on both engines (batched vs
// unbatched at identical seeds) and emits a throughput curve — events/sec
// and deliveries/sec vs nodes — for the sim, plus a wall-clock
// deliveries/sec curve for the rt engine over real UDP sockets (the
// sendmmsg/recvmmsg path).  perf_gate's curve mode gates the whole curve:
// deterministic sim counters against tolerance bands, the sim datagram
// ratio against a hard floor, and the rt batched/unbatched speedup against
// a minimum at every node count.
//
// Virtual-world counters (events, packets, deliveries, retransmissions) are
// deterministic for a given seed; wall-clock throughput is machine-dependent.
// The CI gate (perf_gate engine) therefore checks counters against a
// tolerance band and throughput against a generous minimum ratio of the
// checked-in baseline (see ci/README.md for how the baseline is refreshed).
//
//   bench_engine_throughput --out BENCH_engine.json [--seed N] [--repeat K]
//                           [--curve] [--rt-port BASE]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "fd/fd.hpp"
#include "net/rbcast.hpp"
#include "net/rp2p.hpp"
#include "net/udp_module.hpp"
#include "rt/rt_world.hpp"
#include "scenario/json.hpp"
#include "sim/sim_world.hpp"

namespace {

using namespace dpu;
using dpu::scenario::Json;

constexpr ChannelId kBenchChannel = 99;

struct FloodSpec {
  std::size_t n = 5;
  /// Broadcasts per virtual second per stack.  High enough that several
  /// messages land on every rp2p link within one batch flush window
  /// (Config::batch_flush_ns): the saturate workloads are specifically the
  /// regime batching is for, and the CI gate pins the resulting datagram
  /// ratio.
  double rate_per_stack = 8000.0;
  std::size_t message_size = 64;
  Duration duration = 2 * kSecond;
  Duration drain = 5 * kSecond;
  /// Product default: coalesced delayed acks.  0 disables coalescing (one
  /// ack per DATA packet) — the pre-coalescing event mix, kept as an
  /// ablation workload.
  Duration ack_delay = kMillisecond;
  /// Product default flush window.  0 seals every send into its own
  /// one-message datagram (the batching ablation).
  Duration batch_flush_ns = Rp2pConfig{}.batch_flush_ns;
  std::vector<std::pair<TimePoint, NodeId>> crashes;
};

struct FloodResult {
  std::uint64_t events = 0;
  std::uint64_t deferrals = 0;
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_dropped = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t messages_sent = 0;    ///< rp2p messages accepted (all stacks)
  std::uint64_t data_datagrams = 0;   ///< rp2p DATA datagrams serialized
  double wall_s = 0.0;

  [[nodiscard]] double events_per_sec() const {
    return wall_s > 0.0 ? static_cast<double>(events) / wall_s : 0.0;
  }
  [[nodiscard]] double packets_per_sec() const {
    return wall_s > 0.0 ? static_cast<double>(packets_sent) / wall_s : 0.0;
  }
  [[nodiscard]] double deliveries_per_sec() const {
    return wall_s > 0.0 ? static_cast<double>(deliveries) / wall_s : 0.0;
  }
};

FloodResult run_flood(const FloodSpec& spec, std::uint64_t seed) {
  SimConfig config;
  config.num_stacks = spec.n;
  config.seed = seed;
  SimWorld world(config);

  std::vector<RbcastModule*> rbcast;
  std::vector<Rp2pModule*> rp2p;
  std::uint64_t deliveries = 0;
  for (NodeId i = 0; i < spec.n; ++i) {
    Stack& stack = world.stack(i);
    UdpModule::create(stack);
    Rp2pModule::Config rc;
    rc.ack_delay = spec.ack_delay;
    rc.batch_flush_ns = spec.batch_flush_ns;
    rp2p.push_back(Rp2pModule::create(stack, kRp2pService, rc));
    rbcast.push_back(RbcastModule::create(stack));
    FdModule::create(stack);
    rbcast.back()->rbcast_bind_channel(
        kBenchChannel, [&deliveries](NodeId, const auto&) { ++deliveries; });
    stack.start_all();
  }

  // Open-loop flood driven through the engine's timer path — the same shape
  // as the real WorkloadModule, so the bench exercises timer fire + packet
  // delivery, the two event classes the pooled engine optimizes.
  struct Sender {
    HostEnv* host = nullptr;
    RbcastModule* rbcast = nullptr;
    Duration gap = 0;
    TimePoint next = 0;
    TimePoint stop_at = 0;
    std::size_t message_size = 0;
    std::uint64_t sent = 0;

    void fire() {
      if (next > stop_at) return;
      BufWriter w(message_size);
      w.put_u64(sent++);
      for (std::size_t b = 8; b < message_size; ++b) {
        w.put_u8(static_cast<std::uint8_t>(b));
      }
      rbcast->rbcast(kBenchChannel, w.take_payload());
      next += gap;
      arm();
    }

    void arm() {
      host->set_timer(std::max<Duration>(next - host->now(), 0),
                      [this]() { fire(); });
    }
  };
  std::vector<Sender> senders(spec.n);
  const auto gap = static_cast<Duration>(static_cast<double>(kSecond) /
                                         spec.rate_per_stack);
  for (NodeId i = 0; i < spec.n; ++i) {
    Sender& s = senders[i];
    s.host = &world.stack(i).host();
    s.rbcast = rbcast[i];
    s.gap = gap;
    s.next = i;  // stagger the stacks
    s.stop_at = spec.duration;
    s.message_size = spec.message_size;
    s.arm();
  }
  for (const auto& [t, node] : spec.crashes) {
    world.at(t, [&world, node = node]() { world.crash(node); });
  }

  const auto wall_start = std::chrono::steady_clock::now();
  world.run_until(spec.duration + spec.drain, 2'000'000'000ULL);
  const auto wall_end = std::chrono::steady_clock::now();

  FloodResult result;
  result.events = world.processed_events();
  result.deferrals = world.deferrals();
  result.packets_sent = world.packets_sent();
  result.packets_dropped = world.packets_dropped();
  result.deliveries = deliveries;
  for (NodeId i = 0; i < spec.n; ++i) {
    result.retransmissions += rp2p[i]->retransmissions();
    result.messages_sent += rp2p[i]->messages_sent();
    result.data_datagrams += rp2p[i]->data_datagrams_sent();
  }
  result.wall_s =
      std::chrono::duration<double>(wall_end - wall_start).count();
  return result;
}

Json to_json(const FloodResult& r) {
  Json j = Json::object();
  j.set("events", r.events);
  j.set("deferrals", r.deferrals);
  j.set("packets_sent", r.packets_sent);
  j.set("packets_dropped", r.packets_dropped);
  j.set("deliveries", r.deliveries);
  j.set("retransmissions", r.retransmissions);
  j.set("messages_sent", r.messages_sent);
  j.set("data_datagrams", r.data_datagrams);
  j.set("wall_ms", r.wall_s * 1e3);
  j.set("events_per_sec", r.events_per_sec());
  j.set("packets_per_sec", r.packets_per_sec());
  j.set("deliveries_per_sec", r.deliveries_per_sec());
  return j;
}

// ---------------------------------------------------------------------------
// rt/socket curve: wall-clock deliveries/sec over real UDP + sendmmsg.
// ---------------------------------------------------------------------------

struct RtFloodResult {
  std::uint64_t messages_sent = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t tx_datagrams = 0;
  std::uint64_t tx_syscalls = 0;
  std::uint64_t rx_datagrams = 0;
  std::uint64_t rx_syscalls = 0;
  bool complete = false;  ///< every sent message delivered before the cap
  double wall_s = 0.0;

  [[nodiscard]] double deliveries_per_sec() const {
    return wall_s > 0.0 ? static_cast<double>(deliveries) / wall_s : 0.0;
  }
};

/// All-to-all rp2p flood over kUdpSockets with app-level backpressure: each
/// node sends bursts to every peer from its own loop thread, pausing while
/// its unacked window is full, until `per_link` messages per link are out;
/// the run ends when everything sent has been delivered (or at the cap).
/// Fixed work, not fixed time, so batched and unbatched runs are directly
/// comparable as deliveries/sec.
constexpr Duration kRtTick = 250 * kMicrosecond;
// Big enough that a burst fills a whole batch_max_bytes datagram per peer:
// the rt curve probes the socket path at saturation, where per-datagram
// syscall and protocol overhead is the bottleneck batching removes.
constexpr std::uint64_t kRtBurstPerPeer = 16;
constexpr std::size_t kRtWindowDatagrams = 2000;
constexpr std::size_t kRtMessageSize = 64;

RtFloodResult run_rt_flood(std::size_t n, bool batching,
                           std::uint64_t per_link, std::uint16_t base_port,
                           std::uint64_t seed) {
  RtConfig config;
  config.num_stacks = n;
  config.seed = seed;
  config.transport = RtTransport::kUdpSockets;
  config.udp_base_port = base_port;
  RtWorld world(config);

  std::vector<Rp2pModule*> rp2p(n, nullptr);
  std::atomic<std::uint64_t> deliveries{0};
  for (NodeId i = 0; i < n; ++i) {
    Stack& stack = world.stack(i);
    UdpModule::create(stack);
    Rp2pModule::Config rc;
    if (!batching) rc.batch_flush_ns = 0;
    rp2p[i] = Rp2pModule::create(stack, kRp2pService, rc);
    rp2p[i]->rp2p_bind_channel(
        kBenchChannel, [&deliveries](NodeId, const Payload&) {
          deliveries.fetch_add(1, std::memory_order_relaxed);
        });
    stack.start_all();
  }

  struct RtSender {
    HostEnv* host = nullptr;
    Rp2pModule* rp2p = nullptr;
    NodeId self = 0;
    std::size_t n = 0;
    std::uint64_t per_link = 0;
    std::uint64_t sent_per_peer = 0;  // uniform across peers
    std::atomic<std::uint64_t>* sent_total = nullptr;

    void fire() {
      if (sent_per_peer >= per_link) return;  // done; timer chain ends
      // Backpressure: while the unacked window is full (overloaded link or
      // slow receiver), skip the burst and retry next tick.
      if (rp2p->unacked_total() < kRtWindowDatagrams) {
        const std::uint64_t burst =
            std::min(kRtBurstPerPeer, per_link - sent_per_peer);
        for (std::uint64_t b = 0; b < burst; ++b) {
          for (NodeId peer = 0; peer < n; ++peer) {
            if (peer == self) continue;
            BufWriter w(kRtMessageSize);
            w.put_u64(sent_per_peer + b);
            for (std::size_t byte = 8; byte < kRtMessageSize; ++byte) {
              w.put_u8(static_cast<std::uint8_t>(byte));
            }
            rp2p->rp2p_send(peer, kBenchChannel, w.take_payload());
          }
        }
        sent_per_peer += burst;
        sent_total->fetch_add(burst * (n - 1), std::memory_order_relaxed);
      }
      host->set_timer(kRtTick, [this]() { fire(); });
    }
  };
  std::atomic<std::uint64_t> sent_total{0};
  std::vector<std::unique_ptr<RtSender>> senders;
  for (NodeId i = 0; i < n; ++i) {
    auto s = std::make_unique<RtSender>();
    s->host = &world.stack(i).host();
    s->rp2p = rp2p[i];
    s->self = i;
    s->n = n;
    s->per_link = per_link;
    s->sent_total = &sent_total;
    senders.push_back(std::move(s));
  }
  const std::uint64_t expected = per_link * n * (n - 1);

  const auto wall_start = std::chrono::steady_clock::now();
  world.start();
  for (NodeId i = 0; i < n; ++i) {
    world.post_to(i, [s = senders[i].get()]() { s->fire(); });
  }
  world.run(/*active_until=*/0, /*deadline=*/60 * kSecond, 0, [&]() {
    return deliveries.load(std::memory_order_relaxed) >= expected;
  });
  const auto wall_end = std::chrono::steady_clock::now();

  RtFloodResult result;
  result.messages_sent = sent_total.load();
  result.deliveries = deliveries.load();
  result.tx_datagrams = world.socket_tx_datagrams();
  result.tx_syscalls = world.socket_tx_syscalls();
  result.rx_datagrams = world.socket_rx_datagrams();
  result.rx_syscalls = world.socket_rx_syscalls();
  result.complete = result.deliveries >= expected;
  result.wall_s =
      std::chrono::duration<double>(wall_end - wall_start).count();
  return result;
}

Json to_json(const RtFloodResult& r) {
  Json j = Json::object();
  j.set("messages_sent", r.messages_sent);
  j.set("deliveries", r.deliveries);
  j.set("tx_datagrams", r.tx_datagrams);
  j.set("tx_syscalls", r.tx_syscalls);
  j.set("rx_datagrams", r.rx_datagrams);
  j.set("rx_syscalls", r.rx_syscalls);
  j.set("complete", r.complete);
  j.set("wall_ms", r.wall_s * 1e3);
  j.set("deliveries_per_sec", r.deliveries_per_sec());
  return j;
}

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--out FILE] [--seed N] [--repeat K] [--curve] "
      "[--rt-port BASE]\n"
      "  --out FILE     write BENCH_engine.json there (default "
      "BENCH_engine.json)\n"
      "  --seed N       world seed (default 1)\n"
      "  --repeat K     best-of-K wall-clock timing (default 3)\n"
      "  --curve        also sweep node count (sim + rt/socket, batched vs\n"
      "                 unbatched) and emit the throughput curve\n"
      "  --rt-port BASE first UDP port for the rt curve (default 38100)\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_engine.json";
  std::uint64_t seed = 1;
  int repeat = 3;
  bool curve = false;
  std::uint16_t rt_port = 38100;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--out") {
      const char* v = next_value();
      if (v == nullptr) return usage(argv[0]);
      out_path = v;
    } else if (arg == "--seed") {
      const char* v = next_value();
      if (v == nullptr) return usage(argv[0]);
      seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--repeat") {
      const char* v = next_value();
      if (v == nullptr) return usage(argv[0]);
      repeat = std::atoi(v);
      if (repeat < 1) return usage(argv[0]);
    } else if (arg == "--curve") {
      curve = true;
    } else if (arg == "--rt-port") {
      const char* v = next_value();
      if (v == nullptr) return usage(argv[0]);
      rt_port = static_cast<std::uint16_t>(std::atoi(v));
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return usage(argv[0]);
    }
  }

  // The product-default configuration (coalesced acks, batching on) is the
  // primary workload — it is also what every scenario and example runs.
  FloodSpec saturate;

  // Batching ablation: one datagram per message, coalesced acks.  The
  // saturate/saturate_unbatched datagram ratio is the CI-gated batching win.
  FloodSpec saturate_unbatched;
  saturate_unbatched.batch_flush_ns = 0;

  // Historical event mix: no batching, one ack per DATA packet.  Runs at
  // the historical offered load — at the saturate rate the per-packet ack
  // storm sends the CPU model into a deferral spiral that takes minutes of
  // wall clock to drain, which is useless as a CI workload.
  FloodSpec saturate_per_packet;
  saturate_per_packet.batch_flush_ns = 0;
  saturate_per_packet.ack_delay = 0;
  saturate_per_packet.rate_per_stack = 2000.0;

  FloodSpec crash_storm;
  crash_storm.rate_per_stack = 400.0;
  crash_storm.duration = 3 * kSecond;
  crash_storm.drain = 20 * kSecond;
  crash_storm.crashes = {{kSecond, 3}, {1500 * kMillisecond, 4}};

  // Best-of-K: virtual counters are identical across repeats (same seed);
  // wall time takes the fastest run to suppress scheduler noise.
  auto best_of = [&](const FloodSpec& spec) {
    FloodResult best;
    for (int k = 0; k < repeat; ++k) {
      FloodResult r = run_flood(spec, seed);
      if (k == 0 || r.wall_s < best.wall_s) best = r;
    }
    return best;
  };

  auto report = [](const char* name, const FloodResult& r) {
    std::fprintf(stderr,
                 "%-20s %12llu events %12llu packets %10llu deferrals "
                 "%8.0f kev/s %8.0f kpkt/s  (%.0f ms)\n",
                 name, static_cast<unsigned long long>(r.events),
                 static_cast<unsigned long long>(r.packets_sent),
                 static_cast<unsigned long long>(r.deferrals),
                 r.events_per_sec() / 1e3, r.packets_per_sec() / 1e3,
                 r.wall_s * 1e3);
  };
  const FloodResult sat = best_of(saturate);
  report("saturate:", sat);
  const FloodResult sat_ub = best_of(saturate_unbatched);
  report("saturate_unbatched:", sat_ub);
  std::fprintf(stderr, "batching datagram ratio: %.2fx\n",
               sat.data_datagrams > 0
                   ? static_cast<double>(sat_ub.data_datagrams) /
                         static_cast<double>(sat.data_datagrams)
                   : 0.0);
  const FloodResult sat_pp = best_of(saturate_per_packet);
  report("saturate_per_packet:", sat_pp);
  const FloodResult storm = best_of(crash_storm);
  report("crash_storm:", storm);
  std::fprintf(stderr, "crash_storm retransmissions: %llu\n",
               static_cast<unsigned long long>(storm.retransmissions));

  Json doc = Json::object();
  Json meta = Json::object();
  meta.set("seed", seed);
  meta.set("repeat", repeat);
  doc.set("bench", std::move(meta));
  Json workloads = Json::object();
  workloads.set("saturate", to_json(sat));
  workloads.set("saturate_unbatched", to_json(sat_ub));
  workloads.set("saturate_per_packet", to_json(sat_pp));
  workloads.set("crash_storm", to_json(storm));
  doc.set("workloads", std::move(workloads));

  if (curve) {
    // Sim curve: the saturate flood at growing node counts, batched vs
    // unbatched at the same seed.  Shorter active window than the single
    // point — event volume grows ~quadratically with nodes (eager rbcast
    // relay), and the curve's job is the trend, not the absolute peak.
    Json sim_points = Json::array();
    for (const std::size_t nodes : {3UL, 5UL, 8UL}) {
      FloodSpec point;
      point.n = nodes;
      // Eager rbcast relay makes event volume grow ~quadratically with
      // nodes — and the unbatched ablation amplifies it further (that
      // collapse is the curve's story, but a CI job must stay bounded:
      // at the full saturate rate the unbatched run past 5 nodes enters a
      // deferral spiral that takes minutes of wall clock).  Halve the
      // offered rate and the active window at the top of the curve;
      // counters stay deterministic at any fixed workload.
      if (nodes > 5) {
        point.rate_per_stack /= 2.0;
        point.duration = kSecond / 2;
      } else {
        point.duration = kSecond;
      }
      FloodSpec point_unbatched = point;
      point_unbatched.batch_flush_ns = 0;
      const FloodResult batched = best_of(point);
      const FloodResult unbatched = best_of(point_unbatched);
      std::fprintf(stderr,
                   "curve sim n=%-2zu  batched %8.0f kev/s %8.0f kdel/s   "
                   "unbatched %8.0f kev/s %8.0f kdel/s   datagrams %.2fx\n",
                   nodes, batched.events_per_sec() / 1e3,
                   batched.deliveries_per_sec() / 1e3,
                   unbatched.events_per_sec() / 1e3,
                   unbatched.deliveries_per_sec() / 1e3,
                   batched.data_datagrams > 0
                       ? static_cast<double>(unbatched.data_datagrams) /
                             static_cast<double>(batched.data_datagrams)
                       : 0.0);
      Json p = Json::object();
      p.set("nodes", static_cast<std::uint64_t>(nodes));
      p.set("batched", to_json(batched));
      p.set("unbatched", to_json(unbatched));
      sim_points.push(std::move(p));
    }

    // rt/socket curve: real UDP datagrams on loopback, sendmmsg/recvmmsg
    // path vs the same protocol stack without batching.  Distinct port
    // ranges per point, so a lingering socket cannot collide.
    Json rt_points = Json::array();
    std::uint16_t port = rt_port;
    for (const std::size_t nodes : {2UL, 4UL, 6UL}) {
      const std::uint64_t per_link = 4000;
      const RtFloodResult batched =
          run_rt_flood(nodes, true, per_link, port, seed);
      port = static_cast<std::uint16_t>(port + 100);
      const RtFloodResult unbatched =
          run_rt_flood(nodes, false, per_link, port, seed);
      port = static_cast<std::uint16_t>(port + 100);
      std::fprintf(stderr,
                   "curve rt  n=%-2zu  batched %8.0f kdel/s (%s, %.1f "
                   "dgram/syscall)   unbatched %8.0f kdel/s (%s)   "
                   "speedup %.2fx\n",
                   nodes, batched.deliveries_per_sec() / 1e3,
                   batched.complete ? "complete" : "CAPPED",
                   batched.tx_syscalls > 0
                       ? static_cast<double>(batched.tx_datagrams) /
                             static_cast<double>(batched.tx_syscalls)
                       : 0.0,
                   unbatched.deliveries_per_sec() / 1e3,
                   unbatched.complete ? "complete" : "CAPPED",
                   unbatched.deliveries_per_sec() > 0.0
                       ? batched.deliveries_per_sec() /
                             unbatched.deliveries_per_sec()
                       : 0.0);
      Json p = Json::object();
      p.set("nodes", static_cast<std::uint64_t>(nodes));
      p.set("batched", to_json(batched));
      p.set("unbatched", to_json(unbatched));
      rt_points.push(std::move(p));
    }

    Json curve_doc = Json::object();
    curve_doc.set("sim", std::move(sim_points));
    curve_doc.set("rt", std::move(rt_points));
    doc.set("curve", std::move(curve_doc));
  }

  const std::string text = doc.dump(2) + "\n";
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write '%s'\n", out_path.c_str());
    return 2;
  }
  out << text;
  return 0;
}

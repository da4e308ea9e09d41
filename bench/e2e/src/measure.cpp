#include "measure.hpp"

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>

#include "rt/rt_world.hpp"
#include "scenario/compose.hpp"

namespace dpu::bench {

using scenario::ScenarioResult;
using scenario::ScenarioSpec;
using Clock = std::chrono::steady_clock;

namespace {

/// Boots measured per run; setup_s is their median.
constexpr int kBoots = 9;
/// Latency limit behind the capacity rule.
constexpr double kLatencyLimitUs = 10'000.0;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Counts the stacks that have delivered at least one message.
class FirstDelivery final : public AbcastListener {
 public:
  explicit FirstDelivery(std::atomic<int>& remaining)
      : remaining_(&remaining) {}
  void adeliver(NodeId /*sender*/, const Bytes& /*payload*/) override {
    if (!seen_) {
      seen_ = true;
      remaining_->fetch_sub(1, std::memory_order_release);
    }
  }

 private:
  std::atomic<int>* remaining_;
  bool seen_ = false;  // stack thread only
};

/// Wall seconds from RtWorld construction to the first abcast delivered at
/// every stack of `workload_spec`'s composition (no workload, no faults).
double rt_boot_seconds(const ScenarioSpec& workload_spec, std::uint64_t seed) {
  ScenarioSpec spec = workload_spec;
  spec.engine = scenario::Engine::kRt;
  spec.workload.stop_after = spec.workload.start_after;  // no load generator
  const std::size_t n = spec.n;

  // Everything the stack threads call into is declared before the world,
  // so the world joins its threads before any of it is destroyed.
  std::atomic<int> remaining{static_cast<int>(n)};
  std::vector<std::unique_ptr<LatencyCollector>> collectors;
  std::vector<std::unique_ptr<FirstDelivery>> listeners;
  std::vector<scenario::ComposedStack> stacks;
  for (std::size_t i = 0; i < n; ++i) {
    collectors.push_back(std::make_unique<LatencyCollector>());
    listeners.push_back(std::make_unique<FirstDelivery>(remaining));
  }

  const Clock::time_point t0 = Clock::now();
  const StandardStackOptions options = scenario::stack_options_for_spec(spec);
  const ProtocolRegistry library = make_standard_library(options);
  RtConfig config;
  config.num_stacks = n;
  config.seed = seed;
  RtWorld world(config, &library, nullptr);
  const scenario::CompositionPlan plan =
      scenario::CompositionPlan::from_spec(spec);
  for (NodeId i = 0; i < n; ++i) {
    scenario::ComposeHooks hooks;
    hooks.collector = collectors[i].get();
    hooks.extra_listener = listeners[i].get();
    stacks.push_back(scenario::compose_stack(world.stack(i), spec, plan,
                                             options, 0, hooks));
  }
  world.start();
  world.post_to(0, [&world]() {
    world.stack(0).require<AbcastApi>(kAbcastService).call([](AbcastApi& api) {
      api.abcast(Payload(Bytes{'b', 'o', 'o', 't'}));
    });
  });
  while (remaining.load(std::memory_order_acquire) > 0) {
    if (seconds_since(t0) > 10.0) {
      throw std::runtime_error("rt boot: no delivery at every stack in 10 s");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  const double booted = seconds_since(t0);
  world.stop();
  return booted;
}

}  // namespace

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

std::uint64_t violation_count(const ScenarioResult& r) {
  return r.abcast_report.violations.size() +
         r.generic_report.violations.size();
}

RunReport measure_end_to_end(const Workload& w, std::uint64_t seed) {
  RunReport report;

  // ---- Set-up: median of several rt boots -----------------------------------
  std::vector<double> boots;
  for (int k = 0; k < kBoots; ++k) {
    boots.push_back(rt_boot_seconds(w.rt.spec, seed + k));
  }
  report.metrics.push_back({"setup_s", "s", median_of(boots), kBoots});

  // ---- Simulator: virtual-time latency --------------------------------------
  scenario::RunOptions sim_options;
  sim_options.with_audit = w.sim.audit;
  Clock::time_point t0 = Clock::now();
  ScenarioResult sim = scenario::run_scenario(w.sim.spec, seed, sim_options);
  const double sim_wall = seconds_since(t0);
  const std::size_t n = w.sim.spec.n;
  Samples& sim_lat = sim.collector->all();
  report.metrics.push_back({"sim.latency_p50_ms", "ms",
                            checked_percentile(sim_lat, 50.0) / 1e3,
                            sim_lat.count()});
  report.metrics.push_back(
      {"sim.latency_p999_ms", "ms",
       checked_percentile(sim_lat, 99.9, !w.smoke) / 1e3, sim_lat.count()});
  report.attempted += sim.messages_sent;
  report.failed += violation_count(sim);

  const std::vector<Bucket> buckets = buckets_of(sim.collector->series());
  const Duration width = sim_options.bucket_width;
  if (!w.sim.spec.workload.phases.empty()) {
    report.detail.push_back(
        {"sim.capacity_msgs_s", "1/s",
         capacity_rate(buckets, width, n, kLoadStart, w.load_end(),
                       kLatencyLimitUs)});
  }
  if (!sim.updates.empty()) {
    std::vector<double> convergence;
    for (const scenario::UpdateOutcome& o : sim.updates) {
      convergence.push_back(to_millis(o.convergence()));
    }
    report.detail.push_back({"sim.switch_convergence_ms", "ms",
                             median_of(convergence), convergence.size()});
    report.detail.push_back(
        {"sim.switch_stall_ms", "ms",
         switch_stall_us(buckets, width, sim.switch_windows) / 1e3,
         sim.switch_windows.size()});
  }
  const std::vector<Duration> recoveries = recovery_times(sim.trace);
  if (!recoveries.empty()) {
    std::vector<double> ms;
    for (Duration d : recoveries) ms.push_back(to_millis(d));
    report.detail.push_back(
        {"sim.recovery_ms", "ms", median_of(ms), ms.size()});
  }

  // ---- Real-time engine: wall-clock latency ---------------------------------
  scenario::RunOptions rt_options;
  rt_options.with_audit = w.rt.audit;
  t0 = Clock::now();
  ScenarioResult rt = scenario::run_scenario(w.rt.spec, seed, rt_options);
  const double rt_wall = seconds_since(t0);
  Samples& rt_lat = rt.collector->all();
  report.metrics.push_back({"rt.latency_p50_ms", "ms",
                            checked_percentile(rt_lat, 50.0) / 1e3,
                            rt_lat.count()});
  report.metrics.push_back(
      {"rt.latency_p99_ms", "ms",
       checked_percentile(rt_lat, 99.0, !w.smoke) / 1e3, rt_lat.count()});
  report.attempted += rt.messages_sent;
  report.failed += w.rt.audit ? violation_count(rt)
                              : undelivered_messages(rt.messages_sent,
                                                     rt.deliveries, n);
  report.detail.push_back({"sim.wall_s", "s", sim_wall, 1});
  report.detail.push_back({"rt.wall_s", "s", rt_wall, 1});
  return report;
}

}  // namespace dpu::bench

// Metric extraction on synthetic inputs: every rule the benchmark reports
// by, checked on hand-built buckets, traces and sample sets.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>

#include "metrics.hpp"
#include "repl/facade.hpp"
#include "scenario/json.hpp"
#include "workload.hpp"

namespace dpu::bench {
namespace {

TraceEvent event(TimePoint t, NodeId node, TraceKind kind,
                 std::string detail = "", std::string service = "") {
  TraceEvent e;
  e.time = t;
  e.node = node;
  e.kind = kind;
  e.detail = std::move(detail);
  e.service = std::move(service);
  return e;
}

Bucket bucket(TimePoint start, std::uint64_t count, double mean_us,
              double max_us) {
  return Bucket{start, count, mean_us, max_us};
}

TEST(PercentileRank, TenSamplesBeyondRule) {
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
  EXPECT_TRUE(percentile_supported(1000, 99.0));
  EXPECT_FALSE(percentile_supported(999, 99.0));
  EXPECT_EQ(samples_beyond(180000, 99.9), 180u);
  EXPECT_FALSE(percentile_supported(9999, 99.9));
  EXPECT_TRUE(percentile_supported(20, 50.0));
}

TEST(PercentileRank, CheckedPercentileRefusesThinTails) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(checked_percentile(s, 50.0), 50.5);
  EXPECT_THROW((void)checked_percentile(s, 99.0), std::runtime_error);
  EXPECT_DOUBLE_EQ(checked_percentile(s, 99.0, /*enforce=*/false), 99.01);
}

TEST(Capacity, LastBucketUnderTheLimit) {
  constexpr Duration w = 100 * kMillisecond;
  // Ramp: 3 stacks deliver every message, so count / 3 is messages.
  const std::vector<Bucket> b = {
      bucket(0, 300, 9000.0, 9500.0),           // before the window
      bucket(1 * kSecond, 300, 1000.0, 2000.0),
      bucket(1 * kSecond + w, 600, 2000.0, 4000.0),
      bucket(1 * kSecond + 2 * w, 900, 9999.0, 20000.0),  // last under 10 ms
      bucket(1 * kSecond + 3 * w, 1200, 15000.0, 30000.0),
      bucket(1 * kSecond + 4 * w, 1500, 80000.0, 90000.0),
  };
  EXPECT_DOUBLE_EQ(capacity_rate(b, w, 3, kSecond, 2 * kSecond, 10000.0),
                   3000.0);  // 900 / 3 messages in 0.1 s
  // A window that excludes the qualifying buckets finds none.
  EXPECT_DOUBLE_EQ(capacity_rate(b, w, 3, 1 * kSecond + 3 * w, 2 * kSecond,
                                 10000.0),
                   0.0);
}

TEST(SwitchStall, MedianOfWorstOverlappingBucket) {
  constexpr Duration w = 100 * kMillisecond;
  const std::vector<Bucket> b = {
      bucket(0, 10, 1.0, 5.0),        bucket(w, 10, 1.0, 50.0),
      bucket(2 * w, 10, 1.0, 7.0),    bucket(3 * w, 10, 1.0, 300.0),
      bucket(4 * w, 10, 1.0, 9.0),    bucket(5 * w, 10, 1.0, 20.0),
  };
  // Windows overlap {1}, {3,4} and {5}: worst 50, 300, 20 -> median 50.
  const std::vector<std::pair<TimePoint, TimePoint>> windows = {
      {w + 10, w + 20}, {3 * w + 5, 4 * w + 5}, {5 * w, 5 * w + 1}};
  EXPECT_DOUBLE_EQ(switch_stall_us(b, w, windows), 50.0);
  EXPECT_DOUBLE_EQ(switch_stall_us(b, w, {}), 0.0);
}

TEST(Recovery, RecoveredMarkerToStateSyncDone) {
  const std::string done =
      std::string(ReplacementFacadeBase::kTraceStateSyncDone) +
      ":abcast.ct:sn=3:replayed=10";
  const std::vector<TraceEvent> trace = {
      event(100, 2, TraceKind::kCustom, done),  // no recovery open: ignored
      event(1000, 1, TraceKind::kStackCrashed),
      event(4000, 1, TraceKind::kStackRecovered, "incarnation=1"),
      event(4100, 0, TraceKind::kCustom, done),  // another node's marker
      event(4184, 1, TraceKind::kCustom, done),
      event(5000, 1, TraceKind::kCustom, done),  // second marker: ignored
      event(6000, 2, TraceKind::kStackRecovered),  // never finishes
  };
  EXPECT_EQ(recovery_times(trace), std::vector<Duration>{184});
}

TEST(BlockedCalls, QueuedPairsFifoWithFlushed) {
  const std::vector<TraceEvent> trace = {
      event(10, 0, TraceKind::kCallQueued, "", "abcast"),
      event(12, 0, TraceKind::kCallQueued, "", "abcast"),
      event(15, 1, TraceKind::kCallQueued, "", "abcast"),
      event(20, 0, TraceKind::kCallFlushed, "", "abcast"),
      event(21, 0, TraceKind::kCallFlushed, "", "abcast"),
      event(40, 1, TraceKind::kCallFlushed, "", "abcast"),
      event(50, 1, TraceKind::kCallFlushed, "", "consensus"),  // unpaired
  };
  EXPECT_EQ(blocked_call_durations(trace),
            (std::vector<Duration>{10, 9, 25}));
}

TEST(Failures, UndeliveredAndFraction) {
  EXPECT_EQ(undelivered_messages(100, 300, 3), 0u);
  EXPECT_EQ(undelivered_messages(100, 299, 3), 1u);
  EXPECT_EQ(undelivered_messages(100, 294, 3), 2u);
  EXPECT_EQ(undelivered_messages(100, 400, 3), 0u);  // duplicates never help
  EXPECT_DOUBLE_EQ(failed_fraction(0, 1000), 0.0);
  EXPECT_DOUBLE_EQ(failed_fraction(5, 1000), 0.005);
  EXPECT_DOUBLE_EQ(failed_fraction(0, 0), 0.0);
}

TEST(Quartiles, MatchPythonStatisticsQuantiles) {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  std::vector<double> v;
  for (int i = 10; i >= 1; --i) v.push_back(i);
  const Quartiles q = quartiles_of(v);
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.median, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
  const Quartiles q3 = quartiles_of({3, 1, 2});
  EXPECT_DOUBLE_EQ(q3.q1, 1.0);
  EXPECT_DOUBLE_EQ(q3.median, 2.0);
  EXPECT_DOUBLE_EQ(q3.q3, 3.0);
  EXPECT_DOUBLE_EQ(relative_spread(q), (8.25 - 2.75) / 5.5);
}

TEST(Compare, Verdicts) {
  const std::vector<double> base = {100, 101, 99, 100, 100};
  EXPECT_EQ(compare_runs(base, {101, 102, 100, 101, 101}, false, 0.05),
            Verdict::kOk);
  EXPECT_EQ(compare_runs(base, {110, 111, 109, 110, 110}, false, 0.05),
            Verdict::kRegressed);
  // Higher is better: the same drop in throughput regresses.
  EXPECT_EQ(compare_runs(base, {90, 91, 89, 90, 90}, true, 0.05),
            Verdict::kRegressed);
  // Spread wider than the bound: unresolved ...
  EXPECT_EQ(compare_runs(base, {80, 120, 100, 90, 110}, false, 0.05),
            Verdict::kUnresolved);
  // ... unless every candidate run beats every baseline run.
  EXPECT_EQ(compare_runs({200, 100, 150, 120, 180}, {50, 60, 55, 52, 58},
                         false, 0.05),
            Verdict::kOk);
  EXPECT_EQ(compare_runs({}, base, false, 0.05), Verdict::kUnresolved);
}

TEST(Workload, ScaleWindowMapsTimesAfterLoadStart) {
  scenario::ScenarioSpec s;
  s.duration = 11 * kSecond;
  s.drain = 3 * kSecond;
  s.workload.start_after = kLoadStart;
  s.workload.phases = {{scenario::WorkloadPhase::Kind::kRamp, kLoadStart,
                        11 * kSecond, 100.0}};
  s.crashes = {{3 * kSecond, 1}};
  s.recoveries = {{4 * kSecond, 1}};
  s.updates = {{6 * kSecond, 0, "abcast.seq"}};
  const scenario::ScenarioSpec t = scale_window(s, kSecond);
  EXPECT_EQ(t.duration, 2 * kSecond);
  EXPECT_EQ(t.drain, 3 * kSecond);
  EXPECT_EQ(t.workload.start_after, kLoadStart);
  EXPECT_EQ(t.workload.phases[0].from, kLoadStart);
  EXPECT_EQ(t.workload.phases[0].until, 2 * kSecond);
  EXPECT_EQ(t.crashes[0].at, 1200 * kMillisecond);
  EXPECT_EQ(t.recoveries[0].at, 1300 * kMillisecond);
  EXPECT_EQ(t.updates[0].at, 1500 * kMillisecond);
  EXPECT_EQ(scale_window(s, kNominalWindow), s);
}

TEST(Workload, MergeOverridesDeeply) {
  const scenario::Json base = scenario::Json::parse(
      R"({"a": 1, "w": {"rate": 5, "size": 64}, "l": [1, 2]})");
  const scenario::Json over =
      scenario::Json::parse(R"({"w": {"rate": 9}, "l": [], "b": true})");
  EXPECT_EQ(merge_json(base, over).dump(),
            R"({"a":1,"w":{"rate":9,"size":64},"l":[],"b":true})");
}

TEST(Workload, EveryWorkloadLoadsAndValidates) {
  for (const std::string& name : workload_names()) {
    const Workload w = load_workload(DPU_BENCH_WORKLOADS_DIR, name,
                                     kNominalWindow);
    EXPECT_EQ(w.sim.spec.n, 3u) << name;  // 3 rt threads + the driver
    EXPECT_EQ(w.sim.spec.engine, scenario::Engine::kSim);
    EXPECT_EQ(w.rt.spec.engine, scenario::Engine::kRt);
    EXPECT_EQ(w.load_end(), 11 * kSecond);
    EXPECT_FALSE(w.why.empty());
  }
}

/// BENCHMARK.json names every workload and metric exactly as the bench
/// reports them.
TEST(BenchmarkJson, MatchesTheNameTables) {
  std::ifstream in(DPU_BENCH_JSON);
  ASSERT_TRUE(in) << DPU_BENCH_JSON;
  std::stringstream text;
  text << in.rdbuf();
  const scenario::Json bench = scenario::Json::parse(text.str());

  std::vector<std::string> workloads;
  for (const auto& w : bench.at("workloads").items()) {
    workloads.push_back(w.at("name").as_string());
  }
  EXPECT_EQ(workloads, workload_names());

  auto check = [&](const char* section, const std::vector<MetricDef>& defs) {
    const auto& items = bench.at(section).items();
    ASSERT_EQ(items.size(), defs.size()) << section;
    for (std::size_t i = 0; i < defs.size(); ++i) {
      EXPECT_EQ(items[i].at("name").as_string(), defs[i].name) << section;
      EXPECT_EQ(items[i].at("unit").as_string(), defs[i].unit) << section;
    }
  };
  check("end_to_end", {std::begin(kEndToEnd), std::end(kEndToEnd)});
  check("per_layer", per_layer_defs());
}

}  // namespace
}  // namespace dpu::bench

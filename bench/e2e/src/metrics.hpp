// Metric names and the pure functions that turn raw run output into them.
//
// Everything here is a function of plain data (latency buckets, trace
// events, sample vectors), so tests/metrics_test.cpp checks each rule on
// hand-built inputs.  The name tables must match BENCHMARK.json at the
// repository root; the test suite compares them.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/trace.hpp"
#include "runtime/time.hpp"
#include "util/stats.hpp"

namespace dpu::bench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported by every untraced run (`--trace 0`).  Only
/// metrics that exist on every workload and repeat within their bound on a
/// shared host are gated; workload-specific ones (capacity, switch and
/// recovery times) are detail lines of the report, and the wall-clock and
/// CPU costs, which drift with the host's load, are per-layer metrics.
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"sim.latency_p50_ms", "ms"},
    {"sim.latency_p999_ms", "ms"},
    {"rt.latency_p50_ms", "ms"},
    {"rt.latency_p99_ms", "ms"},
};

/// Per-layer metrics of one engine, reported by traced runs (`--trace 1`)
/// once with the "sim." and once with the "rt." prefix.
inline constexpr MetricDef kLayerPerEngine[] = {
    {"rp2p.send_deliver_p50_us", "us"},
    {"rp2p.send_deliver_p99_us", "us"},
    {"rp2p.datagrams_per_msg", "count"},
    {"rp2p.acks_per_datagram", "count"},
    {"rp2p.retransmits_per_msg", "count"},
    {"net.packets_per_msg", "count"},
    {"rbcast.bcast_all_p50_us", "us"},
    {"rbcast.bcast_all_p99_us", "us"},
    {"consensus.propose_decide_p50_us", "us"},
    {"consensus.propose_decide_p99_us", "us"},
    {"abcast.all_delivered_p50_us", "us"},
    {"abcast.all_delivered_p99_us", "us"},
    {"abcast.gen_lag_p99_us", "us"},
    {"abcast.max_delivery_gap_ms", "ms"},
    {"repl.request_done_p50_ms", "ms"},
    {"repl.blocked_calls", "count"},
    {"repl.reissued_per_switch", "count"},
    {"repl.module_creations_per_switch", "count"},
    {"repl.state_replayed_per_recovery", "count"},
    {"compose.boot_ms", "ms"},
    {"compose.modules_per_stack", "count"},
};

/// Per-layer metrics that exist on one engine only.
inline constexpr MetricDef kLayerEngineOnly[] = {
    {"sim.wall_msgs_s", "1/s"},
    {"rt.cpu_us_per_msg", "us"},
    {"sim.repl.overhead_pct", "%"},
    {"sim.engine.events_per_msg", "count"},
    {"sim.engine.events_per_wall_s", "1/s"},
    {"sim.engine.cpu_deferrals_per_msg", "count"},
    {"rt.cpu_cores", "cores"},
    {"rt.idle_cpu_cores", "cores"},
    {"trace.overhead_pct", "%"},
};

/// Every per-layer name, in report order (sim layers, rt layers, extras).
[[nodiscard]] std::vector<MetricDef> per_layer_defs();

/// One measured value.  `samples` is how many observations it summarizes
/// (1 for a single count or ratio).
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::uint64_t samples = 1;
};

// ---- Percentiles ------------------------------------------------------------

/// Samples strictly above the p-th percentile rank of n samples:
/// floor(n * (1 - p/100)).
[[nodiscard]] std::uint64_t samples_beyond(std::uint64_t n, double p);

/// The percentile-rank rule: a percentile is reported only when at least
/// ten samples lie beyond it.
[[nodiscard]] bool percentile_supported(std::uint64_t n, double p);

/// p-th percentile (linear interpolation between closest ranks, as
/// dpu::Samples computes it).  Unless `enforce` is false (smoke runs, too
/// short for their tails), throws std::runtime_error when the rule above
/// does not support p — a tail the sample cannot resolve is an error,
/// never a number.
[[nodiscard]] double checked_percentile(Samples& samples, double p,
                                        bool enforce = true);

// ---- Latency buckets --------------------------------------------------------

/// One send-time bucket of a latency series: deliveries of messages whose
/// intended send time falls in [start, start + width).
struct Bucket {
  TimePoint start = 0;
  std::uint64_t count = 0;  ///< deliveries (n per fully delivered message)
  double mean_us = 0.0;
  double max_us = 0.0;
};

[[nodiscard]] std::vector<Bucket> buckets_of(const TimeSeries& series);

/// Group offered rate (messages/s) of the last bucket inside [from, to)
/// whose mean latency is at most `limit_us` — the highest load the group
/// sustained on a ramp.  0 when no bucket qualifies.
[[nodiscard]] double capacity_rate(const std::vector<Bucket>& buckets,
                                   Duration width, std::size_t n,
                                   TimePoint from, TimePoint to,
                                   double limit_us);

/// Median, over switch windows [requested, converged], of the worst
/// latency among messages sent in the buckets overlapping each window.
[[nodiscard]] double switch_stall_us(
    const std::vector<Bucket>& buckets, Duration width,
    const std::vector<std::pair<TimePoint, TimePoint>>& windows);

// ---- Trace-derived durations ------------------------------------------------

/// Per recovery: time from a node's kStackRecovered marker to that node's
/// next facade "state-sync-done" marker.  Recoveries that never finish the
/// state transfer are left out.
[[nodiscard]] std::vector<Duration> recovery_times(
    const std::vector<TraceEvent>& events);

/// Durations of blocked service calls: each kCallQueued paired FIFO with
/// the next kCallFlushed of the same (node, service).
[[nodiscard]] std::vector<Duration> blocked_call_durations(
    const std::vector<TraceEvent>& events);

// ---- Failures ---------------------------------------------------------------

/// Failed messages of an unaudited run: copies owed (sent * n) minus
/// deliveries, as whole messages (rounded up), never negative.
[[nodiscard]] std::uint64_t undelivered_messages(std::uint64_t sent,
                                                 std::uint64_t deliveries,
                                                 std::size_t n);

/// failed / attempted (0 when nothing was attempted).
[[nodiscard]] double failed_fraction(std::uint64_t failed,
                                     std::uint64_t attempted);

// ---- Comparing sets of runs -------------------------------------------------

[[nodiscard]] double median_of(std::vector<double> values);

struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

/// Quartiles as Python's statistics.quantiles(values, n=4) gives them
/// (the default "exclusive" method).  One value yields q1 = q3 = it.
[[nodiscard]] Quartiles quartiles_of(std::vector<double> values);

/// (q3 - q1) / median, the run-to-run spread as a share of the median.
[[nodiscard]] double relative_spread(const Quartiles& q);

enum class Verdict { kOk, kRegressed, kUnresolved };
[[nodiscard]] const char* verdict_name(Verdict v);

/// Compares candidate runs `b` against baseline runs `a` for one metric.
/// unresolved: either side's spread exceeds `bound`, unless every run of
/// b is better than every run of a.  regressed: b's median is worse than
/// a's by more than `bound` (as a share of a's median).  ok otherwise.
[[nodiscard]] Verdict compare_runs(const std::vector<double>& a,
                                   const std::vector<double>& b,
                                   bool higher_is_better, double bound);

}  // namespace dpu::bench

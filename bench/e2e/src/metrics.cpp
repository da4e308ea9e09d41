#include "metrics.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <map>
#include <stdexcept>

#include "repl/facade.hpp"

namespace dpu::bench {

std::vector<MetricDef> per_layer_defs() {
  // The names must outlive the returned views: keep the prefixed strings in
  // function-static storage built once.
  static const std::vector<std::string> prefixed = [] {
    std::vector<std::string> out;
    for (const char* engine : {"sim.", "rt."}) {
      for (const MetricDef& d : kLayerPerEngine) {
        out.push_back(std::string(engine) + d.name);
      }
    }
    return out;
  }();
  std::vector<MetricDef> defs;
  std::size_t i = 0;
  for (int engine = 0; engine < 2; ++engine) {
    for (const MetricDef& d : kLayerPerEngine) {
      defs.push_back({prefixed[i++].c_str(), d.unit});
    }
  }
  for (const MetricDef& d : kLayerEngineOnly) defs.push_back(d);
  return defs;
}

// ---- Percentiles ------------------------------------------------------------

std::uint64_t samples_beyond(std::uint64_t n, double p) {
  return static_cast<std::uint64_t>(
      std::floor(static_cast<double>(n) * (1.0 - p / 100.0) + 1e-9));
}

bool percentile_supported(std::uint64_t n, double p) {
  return samples_beyond(n, p) >= 10;
}

double checked_percentile(Samples& samples, double p, bool enforce) {
  if (enforce && !percentile_supported(samples.count(), p)) {
    throw std::runtime_error("p" + std::to_string(p) + " needs ten samples "
                             "beyond it; only " +
                             std::to_string(samples.count()) + " samples");
  }
  return samples.percentile(p);
}

// ---- Latency buckets --------------------------------------------------------

std::vector<Bucket> buckets_of(const TimeSeries& series) {
  std::vector<Bucket> out;
  out.reserve(series.bucket_count());
  for (std::size_t i = 0; i < series.bucket_count(); ++i) {
    const OnlineStats& s = series.bucket(i);
    out.push_back(Bucket{series.bucket_start(i), s.count(), s.mean(), s.max()});
  }
  return out;
}

double capacity_rate(const std::vector<Bucket>& buckets, Duration width,
                     std::size_t n, TimePoint from, TimePoint to,
                     double limit_us) {
  double rate = 0.0;
  for (const Bucket& b : buckets) {
    const bool in_window = b.start >= from && b.start + width <= to;
    if (in_window && b.count != 0 && b.mean_us <= limit_us) {
      rate = static_cast<double>(b.count) / static_cast<double>(n) /
             to_seconds(width);
    }
  }
  return rate;
}

double switch_stall_us(
    const std::vector<Bucket>& buckets, Duration width,
    const std::vector<std::pair<TimePoint, TimePoint>>& windows) {
  std::vector<double> worst;
  for (const auto& [from, to] : windows) {
    double w = 0.0;
    for (const Bucket& b : buckets) {
      if (b.count != 0 && b.start <= to && b.start + width > from) {
        w = std::max(w, b.max_us);
      }
    }
    worst.push_back(w);
  }
  return worst.empty() ? 0.0 : median_of(std::move(worst));
}

// ---- Trace-derived durations ------------------------------------------------

std::vector<Duration> recovery_times(const std::vector<TraceEvent>& events) {
  const std::string marker = ReplacementFacadeBase::kTraceStateSyncDone;
  std::map<NodeId, TimePoint> open;
  std::vector<Duration> out;
  for (const TraceEvent& e : events) {
    if (e.kind == TraceKind::kStackRecovered) {
      open[e.node] = e.time;
    } else if (e.kind == TraceKind::kCustom &&
               e.detail.rfind(marker, 0) == 0) {
      const auto it = open.find(e.node);
      if (it == open.end()) continue;
      out.push_back(e.time - it->second);
      open.erase(it);
    }
  }
  return out;
}

std::vector<Duration> blocked_call_durations(
    const std::vector<TraceEvent>& events) {
  std::map<std::pair<NodeId, std::string>, std::deque<TimePoint>> queued;
  std::vector<Duration> out;
  for (const TraceEvent& e : events) {
    if (e.kind == TraceKind::kCallQueued) {
      queued[{e.node, e.service}].push_back(e.time);
    } else if (e.kind == TraceKind::kCallFlushed) {
      auto& q = queued[{e.node, e.service}];
      if (q.empty()) continue;
      out.push_back(e.time - q.front());
      q.pop_front();
    }
  }
  return out;
}

// ---- Failures ---------------------------------------------------------------

std::uint64_t undelivered_messages(std::uint64_t sent, std::uint64_t deliveries,
                                   std::size_t n) {
  const std::uint64_t owed = sent * n;
  if (deliveries >= owed || n == 0) return 0;
  return (owed - deliveries + n - 1) / n;
}

double failed_fraction(std::uint64_t failed, std::uint64_t attempted) {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

// ---- Comparing sets of runs -------------------------------------------------

double median_of(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

Quartiles quartiles_of(std::vector<double> values) {
  if (values.empty()) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    return {nan, nan, nan};
  }
  std::sort(values.begin(), values.end());
  const auto ld = static_cast<std::int64_t>(values.size());
  if (ld == 1) return {values[0], values[0], values[0]};
  // statistics.quantiles(method="exclusive"), n = 4.
  constexpr std::int64_t kN = 4;
  const std::int64_t m = ld + 1;
  double cut[3];
  for (std::int64_t i = 1; i < kN; ++i) {
    std::int64_t j = i * m / kN;
    j = std::clamp<std::int64_t>(j, 1, ld - 1);
    const std::int64_t delta = i * m - j * kN;
    cut[i - 1] = (values[static_cast<std::size_t>(j - 1)] *
                      static_cast<double>(kN - delta) +
                  values[static_cast<std::size_t>(j)] *
                      static_cast<double>(delta)) /
                 static_cast<double>(kN);
  }
  return {cut[0], cut[1], cut[2]};
}

double relative_spread(const Quartiles& q) {
  if (q.median == 0.0) return q.q3 == q.q1 ? 0.0 : HUGE_VAL;
  return (q.q3 - q.q1) / std::abs(q.median);
}

const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kOk:
      return "ok";
    case Verdict::kRegressed:
      return "regressed";
    case Verdict::kUnresolved:
      return "unresolved";
  }
  return "?";
}

Verdict compare_runs(const std::vector<double>& a, const std::vector<double>& b,
                     bool higher_is_better, double bound) {
  if (a.empty() || b.empty()) return Verdict::kUnresolved;
  const Quartiles qa = quartiles_of(a);
  const Quartiles qb = quartiles_of(b);
  auto better = [higher_is_better](double x, double y) {
    return higher_is_better ? x > y : x < y;
  };
  if (relative_spread(qa) > bound || relative_spread(qb) > bound) {
    const double worst_b = higher_is_better
                               ? *std::min_element(b.begin(), b.end())
                               : *std::max_element(b.begin(), b.end());
    const double best_a = higher_is_better
                              ? *std::max_element(a.begin(), a.end())
                              : *std::min_element(a.begin(), a.end());
    return better(worst_b, best_a) ? Verdict::kOk : Verdict::kUnresolved;
  }
  const double base = std::abs(qa.median);
  const double worse_by =
      higher_is_better ? qa.median - qb.median : qb.median - qa.median;
  if (base == 0.0) return worse_by > 0.0 ? Verdict::kRegressed : Verdict::kOk;
  return worse_by / base > bound ? Verdict::kRegressed : Verdict::kOk;
}

}  // namespace dpu::bench

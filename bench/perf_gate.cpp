// perf_gate — perf/regression gate comparing campaign and engine-bench
// output against the checked-in baselines under ci/.
//
//   perf_gate digest  --campaign RESULTS.json --out BASELINE.json
//       Distill a full campaign document into the compact per-(scenario,
//       seed) digest that is checked in as ci/campaign_baseline.json.
//
//   perf_gate campaign --baseline BASELINE.json --current RESULTS.json
//                      [--latency-tol 0.25] [--count-tol 0.25]
//       Fail (exit 1) when any run of the baseline is missing from the
//       current results, fails its audit, or drifts outside the tolerance
//       band on latency percentiles or packet/message counts.
//
//   perf_gate engine  --baseline BASELINE.json --current BENCH_engine.json
//                     [--count-tol 0.25] [--min-throughput-ratio 0.35]
//       Fail when deterministic engine counters drift outside the band or
//       wall-clock throughput falls below the minimum ratio of the baseline
//       (generous: CI machines are slower and noisier than the machine the
//       baseline was recorded on; see ci/README.md for refresh policy).
//
//   perf_gate curve   --baseline BASELINE.json --current BENCH_engine.json
//                     [--count-tol 0.25] [--min-throughput-ratio 0.35]
//                     [--min-batch-datagram-ratio 3.0] [--min-rt-speedup 1.5]
//       Gate the --curve output (throughput vs node count, batched vs
//       unbatched, sim + rt/socket engines).  The default saturate
//       workload's unbatched/batched datagram ratio must clear the
//       --min-batch-datagram-ratio floor.  Sim points: deterministic
//       counters against the baseline band, wall-clock events/sec against
//       the minimum ratio, per-point datagram ratio one-sided against the
//       baseline's.  Rt points: the batched run must complete its fixed
//       work, and the batched/unbatched deliveries/sec speedup must clear
//       --min-rt-speedup at the largest node count (a generous floor
//       applies at smaller counts, where the socket path is not the
//       bottleneck).
//
// All comparisons are against *virtual-world* metrics except events_per_sec
// / packets_per_sec, which are wall-clock.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/json.hpp"

namespace {

using dpu::scenario::Json;

std::optional<Json> load_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return Json::parse(text.str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_gate: cannot parse '%s': %s\n", path.c_str(),
                 e.what());
    return std::nullopt;
  }
}

/// Relative drift |current - base| / max(|base|, 1); the max() floor keeps
/// near-zero baselines (e.g. 0 retransmissions) from exploding the ratio.
double drift(double base, double current) {
  return std::fabs(current - base) / std::max(std::fabs(base), 1.0);
}

struct Gate {
  int failures = 0;

  void check_band(const std::string& where, const std::string& metric,
                  double base, double current, double tol) {
    const double d = drift(base, current);
    if (d > tol) {
      ++failures;
      std::fprintf(stderr,
                   "FAIL %s: %s drifted %.1f%% (baseline %.1f, current %.1f, "
                   "tolerance %.0f%%)\n",
                   where.c_str(), metric.c_str(), d * 100.0, base, current,
                   tol * 100.0);
    }
  }

  void fail(const std::string& where, const std::string& what) {
    ++failures;
    std::fprintf(stderr, "FAIL %s: %s\n", where.c_str(), what.c_str());
  }
};

// ---------------------------------------------------------------------------
// digest: full campaign document -> compact checked-in baseline
// ---------------------------------------------------------------------------

Json digest_campaign(const Json& doc) {
  Json runs = Json::array();
  for (const Json& scenario : doc.at("scenarios").items()) {
    const std::string name = scenario.at("name").as_string();
    for (const Json& run : scenario.at("runs").items()) {
      Json entry = Json::object();
      entry.set("scenario", name);
      entry.set("seed", run.at("seed").as_int());
      entry.set("ok", run.at("ok").as_bool());
      const Json& latency = run.at("latency");
      entry.set("samples", latency.at("samples").as_int());
      entry.set("p50_us", latency.at("p50_us").as_double());
      entry.set("p99_us", latency.at("p99_us").as_double());
      const Json& counts = run.at("counts");
      entry.set("sent", counts.at("sent").as_int());
      entry.set("delivered", counts.at("delivered").as_int());
      entry.set("packets_sent", counts.at("packets_sent").as_int());
      if (const Json* r = counts.find("retransmissions")) {
        entry.set("retransmissions", r->as_int());
      }
      // Per-update convergence latency (request -> last stack on the new
      // version), in plan order; virtual-time, so exactly reproducible.
      if (const Json* updates = run.find("updates")) {
        Json conv = Json::array();
        for (const Json& u : updates->items()) {
          conv.push(u.at("convergence_ms").as_double());
        }
        entry.set("convergence_ms", std::move(conv));
      }
      runs.push(std::move(entry));
    }
  }
  Json out = Json::object();
  out.set("kind", "campaign_baseline");
  out.set("runs", std::move(runs));
  return out;
}

/// Finds the result record for (scenario, seed) in a full campaign document.
const Json* find_run(const Json& doc, const std::string& scenario,
                     std::int64_t seed) {
  for (const Json& s : doc.at("scenarios").items()) {
    if (s.at("name").as_string() != scenario) continue;
    for (const Json& run : s.at("runs").items()) {
      if (run.at("seed").as_int() == seed) return &run;
    }
  }
  return nullptr;
}

int gate_campaign(const Json& baseline, const Json& current,
                  double latency_tol, double count_tol) {
  Gate gate;
  for (const Json& base : baseline.at("runs").items()) {
    const std::string scenario = base.at("scenario").as_string();
    const std::int64_t seed = base.at("seed").as_int();
    const std::string where =
        scenario + "/seed=" + std::to_string(seed);
    const Json* run = find_run(current, scenario, seed);
    if (run == nullptr) {
      gate.fail(where, "missing from current results");
      continue;
    }
    if (!run->at("ok").as_bool()) {
      gate.fail(where, "audit failed");
      continue;
    }
    const Json& latency = run->at("latency");
    const Json& counts = run->at("counts");
    gate.check_band(where, "p50_us", base.at("p50_us").as_double(),
                    latency.at("p50_us").as_double(), latency_tol);
    gate.check_band(where, "p99_us", base.at("p99_us").as_double(),
                    latency.at("p99_us").as_double(), latency_tol);
    gate.check_band(where, "sent",
                    static_cast<double>(base.at("sent").as_int()),
                    static_cast<double>(counts.at("sent").as_int()),
                    count_tol);
    gate.check_band(where, "delivered",
                    static_cast<double>(base.at("delivered").as_int()),
                    static_cast<double>(counts.at("delivered").as_int()),
                    count_tol);
    gate.check_band(
        where, "packets_sent",
        static_cast<double>(base.at("packets_sent").as_int()),
        static_cast<double>(counts.at("packets_sent").as_int()), count_tol);
    if (const Json* base_conv = base.find("convergence_ms")) {
      const Json* cur_updates = run->find("updates");
      if (cur_updates == nullptr ||
          cur_updates->size() != base_conv->size()) {
        gate.fail(where,
                  "update count changed (baseline " +
                      std::to_string(base_conv->size()) + ", current " +
                      std::to_string(cur_updates == nullptr
                                         ? 0
                                         : cur_updates->size()) +
                      ")");
      } else {
        for (std::size_t k = 0; k < base_conv->size(); ++k) {
          gate.check_band(
              where, "convergence_ms[" + std::to_string(k) + "]",
              base_conv->items()[k].as_double(),
              cur_updates->items()[k].at("convergence_ms").as_double(),
              latency_tol);
        }
      }
    }
    const Json* base_retrans = base.find("retransmissions");
    const Json* cur_retrans = counts.find("retransmissions");
    if (base_retrans != nullptr && cur_retrans != nullptr) {
      // One-sided: fewer retransmissions than the baseline is progress, not
      // a regression.
      const auto base_v = static_cast<double>(base_retrans->as_int());
      const auto cur_v = static_cast<double>(cur_retrans->as_int());
      if (cur_v > base_v && drift(base_v, cur_v) > count_tol) {
        gate.check_band(where, "retransmissions", base_v, cur_v, count_tol);
      }
    }
  }
  std::fprintf(stderr,
               "perf_gate campaign: %zu baseline run(s), %d failure(s)\n",
               baseline.at("runs").size(), gate.failures);
  return gate.failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// engine: BENCH_engine.json vs ci/bench_engine_baseline.json
// ---------------------------------------------------------------------------

int gate_engine(const Json& baseline, const Json& current, double count_tol,
                double min_ratio) {
  Gate gate;
  for (const auto& [name, base] : baseline.at("workloads").members()) {
    const Json* cur = current.at("workloads").find(name);
    if (cur == nullptr) {
      gate.fail(name, "workload missing from current results");
      continue;
    }
    for (const char* metric :
         {"events", "packets_sent", "deliveries"}) {
      gate.check_band(name, metric,
                      static_cast<double>(base.at(metric).as_int()),
                      static_cast<double>(cur->at(metric).as_int()),
                      count_tol);
    }
    // Retransmissions gate one-sided: the crash workload's whole point is
    // that this number stays small.
    const auto base_retrans =
        static_cast<double>(base.at("retransmissions").as_int());
    const auto cur_retrans =
        static_cast<double>(cur->at("retransmissions").as_int());
    if (cur_retrans > base_retrans &&
        drift(base_retrans, cur_retrans) > count_tol) {
      gate.check_band(name, "retransmissions", base_retrans, cur_retrans,
                      count_tol);
    }
    const double base_tput = base.at("events_per_sec").as_double();
    const double cur_tput = cur->at("events_per_sec").as_double();
    if (cur_tput < min_ratio * base_tput) {
      gate.fail(name, "events_per_sec " + std::to_string(cur_tput) +
                          " below " + std::to_string(min_ratio) +
                          "x baseline (" + std::to_string(base_tput) + ")");
    }
  }
  std::fprintf(stderr, "perf_gate engine: %d failure(s)\n", gate.failures);
  return gate.failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// curve: throughput-vs-node-count sweep (sim + rt/socket, batched vs
// unbatched) from bench_engine_throughput --curve.
// ---------------------------------------------------------------------------

/// Finds the curve point with the given node count in a point array.
const Json* find_point(const Json& points, std::int64_t nodes) {
  for (const Json& p : points.items()) {
    if (p.at("nodes").as_int() == nodes) return &p;
  }
  return nullptr;
}

int gate_curve(const Json& baseline, const Json& current, double count_tol,
               double min_ratio, double min_dgram_ratio,
               double min_rt_speedup) {
  Gate gate;
  const Json* base_curve = baseline.find("curve");
  const Json* cur_curve = current.find("curve");
  if (base_curve == nullptr || cur_curve == nullptr) {
    gate.fail("curve", base_curve == nullptr
                           ? "baseline has no curve (regenerate with "
                             "bench_engine_throughput --curve)"
                           : "current results have no curve (run "
                             "bench_engine_throughput --curve)");
    return 1;
  }

  // Headline batching win: the default saturate workload must serialize at
  // least --min-batch-datagram-ratio fewer DATA datagrams than its
  // unbatched ablation.  Measured inside the current run (identical seeds),
  // so a slow CI machine cannot mask a real regression.
  {
    const auto batched_dgrams = static_cast<double>(
        current.at("workloads").at("saturate").at("data_datagrams").as_int());
    const auto unbatched_dgrams =
        static_cast<double>(current.at("workloads")
                                .at("saturate_unbatched")
                                .at("data_datagrams")
                                .as_int());
    const double ratio =
        batched_dgrams > 0.0 ? unbatched_dgrams / batched_dgrams : 0.0;
    if (ratio < min_dgram_ratio) {
      gate.fail("workloads/saturate",
                "batching datagram ratio " + std::to_string(ratio) +
                    " below floor " + std::to_string(min_dgram_ratio));
    } else {
      std::fprintf(stderr,
                   "OK   workloads/saturate: datagram ratio %.2fx "
                   "(floor %.2fx)\n",
                   ratio, min_dgram_ratio);
    }
  }

  // Sim points: virtual-world counters are deterministic per seed, so both
  // variants get the full tolerance-band treatment, plus the wall-clock
  // floor and a one-sided check that each point's batching ratio does not
  // fall below the baseline's.
  for (const Json& bp : base_curve->at("sim").items()) {
    const std::int64_t nodes = bp.at("nodes").as_int();
    const std::string where = "curve.sim/n=" + std::to_string(nodes);
    const Json* cp = find_point(cur_curve->at("sim"), nodes);
    if (cp == nullptr) {
      gate.fail(where, "node count missing from current curve");
      continue;
    }
    for (const char* variant : {"batched", "unbatched"}) {
      const Json& bv = bp.at(variant);
      const Json& cv = cp->at(variant);
      const std::string vwhere = where + "/" + variant;
      for (const char* metric : {"events", "packets_sent", "deliveries",
                                 "messages_sent", "data_datagrams"}) {
        gate.check_band(vwhere, metric,
                        static_cast<double>(bv.at(metric).as_int()),
                        static_cast<double>(cv.at(metric).as_int()),
                        count_tol);
      }
      const double base_tput = bv.at("events_per_sec").as_double();
      const double cur_tput = cv.at("events_per_sec").as_double();
      if (cur_tput < min_ratio * base_tput) {
        gate.fail(vwhere, "events_per_sec " + std::to_string(cur_tput) +
                              " below " + std::to_string(min_ratio) +
                              "x baseline (" + std::to_string(base_tput) +
                              ")");
      }
    }
    // Per-point batching ratio, one-sided against the baseline's own ratio
    // (the ratio grows with node count — relayed deliveries arrive in
    // bursts and re-batch — so a flat floor would be wrong at the small
    // end of the curve).
    auto dgram_ratio = [](const Json& point) {
      const auto b = static_cast<double>(
          point.at("batched").at("data_datagrams").as_int());
      const auto u = static_cast<double>(
          point.at("unbatched").at("data_datagrams").as_int());
      return b > 0.0 ? u / b : 0.0;
    };
    const double base_ratio = dgram_ratio(bp);
    const double cur_ratio = dgram_ratio(*cp);
    if (cur_ratio < (1.0 - count_tol) * base_ratio) {
      gate.fail(where, "batching datagram ratio " +
                           std::to_string(cur_ratio) + " fell below " +
                           std::to_string(1.0 - count_tol) + "x baseline (" +
                           std::to_string(base_ratio) + ")");
    }
  }

  // Rt points: wall-clock over real sockets, so nothing is compared against
  // the (machine-dependent) baseline numbers; the gate is internal to the
  // current run.  Baseline only fixes WHICH node counts must be present.
  std::int64_t largest = 0;
  for (const Json& bp : base_curve->at("rt").items()) {
    largest = std::max(largest, bp.at("nodes").as_int());
  }
  for (const Json& bp : base_curve->at("rt").items()) {
    const std::int64_t nodes = bp.at("nodes").as_int();
    const std::string where = "curve.rt/n=" + std::to_string(nodes);
    const Json* cp = find_point(cur_curve->at("rt"), nodes);
    if (cp == nullptr) {
      gate.fail(where, "node count missing from current curve");
      continue;
    }
    const Json& batched = cp->at("batched");
    const Json& unbatched = cp->at("unbatched");
    if (!batched.at("complete").as_bool()) {
      gate.fail(where, "batched run hit the wall-clock cap before "
                       "delivering its fixed work");
    }
    const double b = batched.at("deliveries_per_sec").as_double();
    const double u = unbatched.at("deliveries_per_sec").as_double();
    const double speedup = u > 0.0 ? b / u : 0.0;
    // The headline requirement applies at the largest node count, where
    // per-datagram overhead dominates; smaller points get a generous floor
    // (batching must never make the socket path slower than ~noise).
    const double floor =
        nodes == largest ? min_rt_speedup : std::min(0.8, min_rt_speedup);
    if (speedup < floor) {
      gate.fail(where, "batched/unbatched speedup " +
                           std::to_string(speedup) + " below " +
                           std::to_string(floor));
    } else {
      std::fprintf(stderr, "OK   %s: speedup %.2fx (floor %.2fx)\n",
                   where.c_str(), speedup, floor);
    }
  }
  std::fprintf(stderr, "perf_gate curve: %d failure(s)\n", gate.failures);
  return gate.failures == 0 ? 0 : 1;
}

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage:\n"
      "  %s digest   --campaign RESULTS.json --out BASELINE.json\n"
      "  %s campaign --baseline BASELINE.json --current RESULTS.json\n"
      "              [--latency-tol F] [--count-tol F]\n"
      "  %s engine   --baseline BASELINE.json --current BENCH.json\n"
      "              [--count-tol F] [--min-throughput-ratio F]\n"
      "  %s curve    --baseline BASELINE.json --current BENCH.json\n"
      "              [--count-tol F] [--min-throughput-ratio F]\n"
      "              [--min-batch-datagram-ratio F] [--min-rt-speedup F]\n",
      argv0, argv0, argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string mode = argv[1];
  std::string baseline_path, current_path, campaign_path, out_path;
  double latency_tol = 0.25;
  double count_tol = 0.25;
  double min_ratio = 0.35;
  double min_dgram_ratio = 3.0;
  double min_rt_speedup = 1.5;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--baseline" && (v = next_value())) {
      baseline_path = v;
    } else if (arg == "--current" && (v = next_value())) {
      current_path = v;
    } else if (arg == "--campaign" && (v = next_value())) {
      campaign_path = v;
    } else if (arg == "--out" && (v = next_value())) {
      out_path = v;
    } else if (arg == "--latency-tol" && (v = next_value())) {
      latency_tol = std::atof(v);
    } else if (arg == "--count-tol" && (v = next_value())) {
      count_tol = std::atof(v);
    } else if (arg == "--min-throughput-ratio" && (v = next_value())) {
      min_ratio = std::atof(v);
    } else if (arg == "--min-batch-datagram-ratio" && (v = next_value())) {
      min_dgram_ratio = std::atof(v);
    } else if (arg == "--min-rt-speedup" && (v = next_value())) {
      min_rt_speedup = std::atof(v);
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return usage(argv[0]);
    }
  }

  try {
    if (mode == "digest") {
      if (campaign_path.empty() || out_path.empty()) return usage(argv[0]);
      std::optional<Json> doc = load_json(campaign_path);
      if (!doc) {
        std::fprintf(stderr, "cannot read '%s'\n", campaign_path.c_str());
        return 2;
      }
      const Json digest = digest_campaign(*doc);
      std::ofstream out(out_path);
      if (!out) {
        std::fprintf(stderr, "cannot write '%s'\n", out_path.c_str());
        return 2;
      }
      out << digest.dump(2) << "\n";
      std::fprintf(stderr, "perf_gate digest: %zu run(s) -> %s\n",
                   digest.at("runs").size(), out_path.c_str());
      return 0;
    }
    if (mode == "campaign" || mode == "engine" || mode == "curve") {
      if (baseline_path.empty() || current_path.empty()) return usage(argv[0]);
      std::optional<Json> baseline = load_json(baseline_path);
      std::optional<Json> current = load_json(current_path);
      if (!baseline || !current) {
        std::fprintf(stderr, "cannot read baseline/current file\n");
        return 2;
      }
      if (mode == "campaign") {
        return gate_campaign(*baseline, *current, latency_tol, count_tol);
      }
      if (mode == "engine") {
        return gate_engine(*baseline, *current, count_tol, min_ratio);
      }
      return gate_curve(*baseline, *current, count_tol, min_ratio,
                        min_dgram_ratio, min_rt_speedup);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_gate: %s\n", e.what());
    return 2;
  }
  return usage(argv[0]);
}

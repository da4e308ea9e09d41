// dpu_bench — end-to-end benchmark of the dpu library (see README.md).
//
//   dpu_bench --workload NAME --seed N [--seconds S] [--trace 0|1]
//             [--trace-out FILE] [--report FILE] [--workloads DIR]
//       Runs one workload on the sim and then the rt engine.  Prints every
//       metric by name, unit and sample count, then, as the last line of
//       stdout, one JSON object {correct, attempted, failed, metrics}.
//       --trace 0 reports the end-to-end metrics (untraced product path);
//       --trace 1 the per-layer metrics of a traced run, whose spans go to
//       --trace-out as Chrome trace-event JSON.  --report appends the full
//       record (with workload-specific detail) as one JSON line.
//       Exit 0 when every audit passed, 1 when one failed, 2 on errors.
//   dpu_bench --smoke [--workloads DIR]
//       Every workload at 1/10 length, untraced and traced.
//   dpu_bench compare [--bench BENCHMARK.json] A.jsonl... -- B.jsonl...
//       Per (workload, metric): each side's median and quartiles over the
//       --report records, and a verdict against the BENCHMARK.json bound.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "measure.hpp"
#include "traced.hpp"

namespace {

using dpu::bench::Metric;
using dpu::bench::MetricDef;
using dpu::bench::RunReport;
using dpu::bench::Workload;
using dpu::scenario::Json;

constexpr const char* kUsage =
    "usage: dpu_bench --workload NAME --seed N [--seconds S] [--trace 0|1]\n"
    "                 [--trace-out FILE] [--report FILE] [--workloads DIR]\n"
    "       dpu_bench --smoke [--workloads DIR]\n"
    "       dpu_bench compare [--bench BENCHMARK.json] A.jsonl... -- "
    "B.jsonl...\n";

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  long seconds = 10;
  bool trace = false;
  std::string trace_out;
  std::string report;
  std::string workloads_dir = DPU_BENCH_WORKLOADS_DIR;
  bool smoke = false;
};

std::uint64_t parse_uint(const std::string& flag, const std::string& v) {
  std::size_t used = 0;
  unsigned long long x = 0;
  try {
    x = std::stoull(v, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != v.size() || v.empty() || v[0] == '-') {
    throw std::invalid_argument(flag + " expects a whole number, got '" + v +
                                "'");
  }
  return x;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool seed_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = parse_uint(flag, value());
      seed_given = true;
    } else if (flag == "--seconds") {
      a.seconds = static_cast<long>(parse_uint(flag, value()));
    } else if (flag == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") {
        throw std::invalid_argument("--trace expects 0 or 1");
      }
      a.trace = v == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = value();
    } else if (flag == "--report") {
      a.report = value();
    } else if (flag == "--workloads") {
      a.workloads_dir = value();
    } else if (flag == "--smoke") {
      a.smoke = true;
    } else {
      throw std::invalid_argument("unknown option '" + flag + "'");
    }
  }
  if (!a.smoke && (a.workload.empty() || !seed_given)) {
    throw std::invalid_argument("--workload and --seed are required");
  }
  if (a.seconds < 1 || a.seconds > 600) {
    throw std::invalid_argument("--seconds must be in [1, 600]");
  }
  return a;
}

std::vector<MetricDef> expected_defs(bool trace) {
  if (trace) return dpu::bench::per_layer_defs();
  return {std::begin(dpu::bench::kEndToEnd), std::end(dpu::bench::kEndToEnd)};
}

/// The reported set must be exactly the BENCHMARK.json list, in order, and
/// every value a finite number (JSON has no NaN).
void check_metrics(const RunReport& r, bool trace) {
  const std::vector<MetricDef> defs = expected_defs(trace);
  bool ok = defs.size() == r.metrics.size();
  for (std::size_t i = 0; ok && i < defs.size(); ++i) {
    ok = r.metrics[i].name == defs[i].name &&
         r.metrics[i].unit == defs[i].unit && std::isfinite(r.metrics[i].value);
  }
  if (!ok) {
    throw std::logic_error("reported metrics differ from the name table or "
                           "are not finite");
  }
}

void print_table(const std::string& title, const RunReport& r) {
  std::printf("== %s\n", title.c_str());
  auto line = [](const char* tag, const Metric& m) {
    std::printf("  %-8s %-40s %14.6g %-6s n=%llu\n", tag, m.name.c_str(),
                m.value, m.unit.c_str(),
                static_cast<unsigned long long>(m.samples));
  };
  for (const Metric& m : r.metrics) line("metric", m);
  for (const Metric& m : r.detail) line("detail", m);
  for (const std::string& p : r.problems) {
    std::printf("  problem  %s\n", p.c_str());
  }
  std::printf("  attempted=%llu failed=%llu failed_frac=%.6g correct=%s\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              dpu::bench::failed_fraction(r.failed, r.attempted),
              r.correct() ? "true" : "false");
}

Json metrics_json(const std::vector<Metric>& metrics) {
  Json out = Json::object();
  for (const Metric& m : metrics) {
    Json v = Json::object();
    v.set("value", m.value);
    v.set("unit", m.unit);
    out.set(m.name, std::move(v));
  }
  return out;
}

Json result_json(const RunReport& r) {
  Json j = Json::object();
  j.set("correct", r.correct());
  j.set("attempted", r.attempted);
  j.set("failed", r.failed);
  j.set("metrics", metrics_json(r.metrics));
  return j;
}

RunReport measure(const Workload& w, std::uint64_t seed, bool trace,
                  const std::string& trace_out) {
  RunReport r = trace ? dpu::bench::measure_per_layer(w, seed, trace_out)
                      : dpu::bench::measure_end_to_end(w, seed);
  check_metrics(r, trace);
  return r;
}

int run_one(const Args& a) {
  const Workload w = dpu::bench::load_workload(
      a.workloads_dir, a.workload, a.seconds * dpu::kSecond);
  // n stack threads plus this one: the rt engine must not be oversubscribed.
  const unsigned cores = std::thread::hardware_concurrency();
  if (cores != 0 && w.rt.spec.n + 1 > cores) {
    std::fprintf(stderr, "dpu_bench: warning: %zu rt threads on %u cores\n",
                 w.rt.spec.n + 1, cores);
  }
  const RunReport r = measure(w, a.seed, a.trace, a.trace_out);
  print_table(a.workload + " seed=" + std::to_string(a.seed) +
                  " seconds=" + std::to_string(a.seconds) +
                  " trace=" + (a.trace ? "1" : "0"),
              r);
  if (!a.report.empty()) {
    Json rec = result_json(r);
    rec.set("workload", a.workload);
    rec.set("seed", a.seed);
    rec.set("seconds", static_cast<std::int64_t>(a.seconds));
    rec.set("trace", a.trace);
    rec.set("detail", metrics_json(r.detail));
    std::ofstream out(a.report, std::ios::app);
    out << rec.dump() << '\n';
    if (!out) throw std::runtime_error("cannot append to " + a.report);
  }
  std::printf("%s\n", result_json(r).dump().c_str());
  return r.correct() ? 0 : 1;
}

int smoke(const Args& a) {
  bool all_ok = true;
  for (const std::string& name : dpu::bench::workload_names()) {
    Workload w = dpu::bench::load_workload(
        a.workloads_dir, name, dpu::bench::kNominalWindow / 10);
    w.smoke = true;
    for (const bool trace : {false, true}) {
      const RunReport r = measure(w, 1, trace, "");
      print_table("smoke " + name + (trace ? " traced" : ""), r);
      all_ok = all_ok && r.correct();
    }
  }
  std::printf("smoke: %s\n", all_ok ? "OK" : "FAILED");
  return all_ok ? 0 : 1;
}

// ---- compare ----------------------------------------------------------------

Json read_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  return Json::parse(text.str());
}

struct Bound {
  bool higher_is_better = false;
  double bound = -1.0;  ///< < 0: per-layer metric, no bound
};

/// (workload, metric) -> values, from --report records.
using Series =
    std::map<std::pair<std::string, std::string>, std::vector<double>>;

void load_records(const std::string& path, Series& into) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const Json rec = Json::parse(line);
    const std::string& workload = rec.at("workload").as_string();
    for (const auto& [name, v] : rec.at("metrics").members()) {
      into[{workload, name}].push_back(v.at("value").as_double());
    }
  }
}

int compare(int argc, char** argv) {
  std::string bench_path = DPU_BENCH_JSON;
  std::vector<std::string> a_files;
  std::vector<std::string> b_files;
  bool second = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--bench" && i + 1 < argc) {
      bench_path = argv[++i];
    } else if (arg == "--") {
      second = true;
    } else {
      (second ? b_files : a_files).push_back(arg);
    }
  }
  if (a_files.empty() || b_files.empty()) {
    throw std::invalid_argument("compare needs files on both sides of --");
  }
  std::map<std::string, Bound> bounds;
  const Json bench = read_json(bench_path);
  for (const char* section : {"end_to_end", "per_layer"}) {
    for (const Json& m : bench.at(section).items()) {
      Bound b;
      b.higher_is_better = m.at("better").as_string() == "higher";
      if (const Json* bound = m.find("bound")) b.bound = bound->as_double();
      bounds[m.at("name").as_string()] = b;
    }
  }
  Series a;
  Series b;
  for (const std::string& f : a_files) load_records(f, a);
  for (const std::string& f : b_files) load_records(f, b);

  int regressed = 0;
  std::printf("%-8s %-40s %-36s %-36s %s\n", "workload", "metric",
              "A median [q1, q3]", "B median [q1, q3]", "verdict");
  for (const auto& [key, av] : a) {
    const auto bit = b.find(key);
    const auto bound = bounds.find(key.second);
    if (bit == b.end() || bound == bounds.end()) continue;
    const auto qa = dpu::bench::quartiles_of(av);
    const auto qb = dpu::bench::quartiles_of(bit->second);
    const char* verdict = "-";
    if (bound->second.bound >= 0.0) {
      const auto v = dpu::bench::compare_runs(
          av, bit->second, bound->second.higher_is_better, bound->second.bound);
      verdict = dpu::bench::verdict_name(v);
      regressed += v == dpu::bench::Verdict::kRegressed ? 1 : 0;
    }
    char sa[64];
    char sb[64];
    std::snprintf(sa, sizeof(sa), "%.6g [%.6g, %.6g]", qa.median, qa.q1, qa.q3);
    std::snprintf(sb, sizeof(sb), "%.6g [%.6g, %.6g]", qb.median, qb.q1, qb.q3);
    std::printf("%-8s %-40s %-36s %-36s %s\n", key.first.c_str(),
                key.second.c_str(), sa, sb, verdict);
  }
  std::printf("compare: %d regressed\n", regressed);
  return regressed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 2 && std::strcmp(argv[1], "compare") == 0) {
      return compare(argc, argv);
    }
    const Args a = parse_args(argc, argv);
    return a.smoke ? smoke(a) : run_one(a);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "dpu_bench: %s\n%s", e.what(), kUsage);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dpu_bench: error: %s\n", e.what());
    return 2;
  }
}

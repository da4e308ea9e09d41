#include "workload.hpp"

#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace dpu::bench {

using scenario::Json;
using scenario::ScenarioSpec;

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"steady", "flood", "switch",
                                                 "churn"};
  return names;
}

Json merge_json(Json base, const Json& over) {
  if (base.type() != Json::Type::kObject ||
      over.type() != Json::Type::kObject) {
    return over;
  }
  for (const auto& [key, value] : over.members()) {
    const Json* mine = base.find(key);
    base.set(key, mine != nullptr ? merge_json(*mine, value) : value);
  }
  return base;
}

ScenarioSpec scale_window(ScenarioSpec spec, Duration window) {
  const double factor =
      static_cast<double>(window) / static_cast<double>(kNominalWindow);
  auto scale = [factor](TimePoint t) {
    if (t <= kLoadStart) return t;
    return kLoadStart + static_cast<TimePoint>(std::llround(
                            static_cast<double>(t - kLoadStart) * factor));
  };
  spec.duration = scale(spec.duration);
  if (spec.workload.stop_after > 0) {
    spec.workload.stop_after = scale(spec.workload.stop_after);
  }
  for (auto& p : spec.workload.phases) {
    p.from = scale(p.from);
    p.until = scale(p.until);
  }
  for (auto& c : spec.crashes) c.at = scale(c.at);
  for (auto& r : spec.recoveries) r.at = scale(r.at);
  for (auto& u : spec.updates) u.at = scale(u.at);
  return spec;
}

namespace {

Json read_json_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read workload file " + path);
  std::stringstream text;
  text << in.rdbuf();
  return Json::parse(text.str());
}

void check_keys(const Json& obj, const std::string& where,
                const std::vector<std::string>& allowed) {
  for (const auto& [key, value] : obj.members()) {
    (void)value;
    bool ok = false;
    for (const std::string& a : allowed) ok = ok || a == key;
    if (!ok) {
      throw std::runtime_error(where + ": unknown key '" + key + "'");
    }
  }
}

EngineRun engine_run(const Json& file, const char* engine,
                     scenario::Engine kind, Duration window,
                     const std::string& where) {
  EngineRun run;
  Json spec_json = file.at("spec");
  if (const Json* over = file.find(engine)) {
    check_keys(*over, where + "." + engine, {"spec", "audit"});
    if (const Json* s = over->find("spec")) {
      spec_json = merge_json(spec_json, *s);
    }
    if (const Json* a = over->find("audit")) run.audit = a->as_bool();
  }
  run.spec = ScenarioSpec::from_json(spec_json);
  // Fields the traced driver does not replay (it composes and schedules
  // the world itself); the four workloads use none of them.
  if (!run.spec.partitions.empty() || !run.spec.late_joins.empty() ||
      !run.spec.policies.empty() || !run.spec.loss_windows.empty()) {
    throw std::runtime_error(where + ": partitions, late_joins, policies and "
                             "loss_windows are not supported by the "
                             "benchmark");
  }
  if (run.spec.workload.start_after != kLoadStart) {
    throw std::runtime_error(where + ": the load must start at 1 s "
                             "(workload.start_after_ns = 1000000000)");
  }
  run.spec.engine = kind;
  run.spec = scale_window(std::move(run.spec), window);
  const std::vector<std::string> problems = run.spec.validate();
  if (!problems.empty()) {
    std::string what = where + "." + engine + " is invalid:";
    for (const std::string& p : problems) what += "\n  - " + p;
    throw std::runtime_error(what);
  }
  return run;
}

}  // namespace

Workload load_workload(const std::string& dir, const std::string& name,
                       Duration window) {
  if (window <= 0) throw std::runtime_error("load window must be positive");
  const std::string path = dir + "/" + name + ".json";
  const Json file = read_json_file(path);
  check_keys(file, path, {"why", "spec", "sim", "rt"});
  Workload w;
  w.name = name;
  w.why = file.at("why").as_string();
  w.window = window;
  w.sim = engine_run(file, "sim", scenario::Engine::kSim, window, path);
  w.rt = engine_run(file, "rt", scenario::Engine::kRt, window, path);
  return w;
}

}  // namespace dpu::bench

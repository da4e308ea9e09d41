// scenario_campaign — runs fault/upgrade scenario campaigns on any engine
// and emits the machine-readable JSON artifact CI gates on.
//
//   scenario_campaign                        # curated library, seeds 1..3
//   scenario_campaign --list                 # print both curated libraries
//   scenario_campaign --scenario large-n-churn --seeds 5
//   scenario_campaign --spec my_scenario.json --out results.json
//   scenario_campaign --engine rt --scenario clean-switch
//                                            # same spec, real-thread engine
//   scenario_campaign --seeds 1 --scenario proc-churn-50
//                                            # 50 real OS processes
//
// Engine-proc specs run through the ClusterSupervisor: one dpu_node process
// per node over UDP sockets, crashes by SIGKILL, recoveries by respawn,
// partitions installed in each agent's socket receive path.  The output
// document format is the same on every engine.
//
// Exit status: 0 when every run passes the property audits, 1 otherwise,
// 2 on usage/IO errors, 3 when interrupted (SIGINT/SIGTERM: workers stop
// claiming runs, proc children are killed, and the partial document is
// still flushed, marked "interrupted").
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/supervisor.hpp"
#include "scenario/campaign.hpp"
#include "scenario/library.hpp"

namespace {

using namespace dpu;
using namespace dpu::scenario;

std::atomic<bool> g_cancel{false};

void on_signal(int /*sig*/) { g_cancel.store(true); }

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --list               print curated scenario names (sim/rt, then\n"
      "                       proc) and exit\n"
      "  --scenario NAME      run one curated scenario (repeatable; both\n"
      "                       libraries are searched)\n"
      "  --spec FILE.json     run a spec loaded from JSON (repeatable)\n"
      "  --engine sim|rt|proc override the execution engine of every\n"
      "                       selected spec (default: each spec's own)\n"
      "  --seeds K            sweep seeds base..base+K-1 (default 3)\n"
      "  --seed-base B        first seed of the sweep (default 1)\n"
      "  --repeat K           run the whole campaign K times and fail\n"
      "                       unless every run's JSON document is\n"
      "                       byte-identical (sim-engine specs only)\n"
      "  --threads T          worker threads (default: hardware; 1 when\n"
      "                       any proc spec is selected)\n"
      "  --node-binary PATH   dpu_node binary for proc runs (default: next\n"
      "                       to this one)\n"
      "  --results-dir DIR    proc per-run scratch root (default:\n"
      "                       cluster-results)\n"
      "  --base-port P        proc first data-plane UDP port (default 21000)\n"
      "  --keep               keep proc per-node scratch files after a run\n"
      "  --out FILE           write the results JSON there (default stdout)\n"
      "  --compact            compact JSON instead of pretty-printed\n",
      argv0);
  return 2;
}

/// dpu_node lives next to this binary unless overridden.
std::string default_node_binary() {
  char buf[4096];
  const ssize_t len = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (len <= 0) return "dpu_node";
  buf[len] = '\0';
  return (std::filesystem::path(buf).parent_path() / "dpu_node").string();
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<ScenarioSpec> specs;
  std::vector<std::string> wanted;
  std::vector<std::string> spec_files;
  std::string out_path;
  std::uint64_t seed_count = 3;
  std::uint64_t seed_base = 1;
  std::uint64_t repeat = 1;
  std::size_t threads = 0;
  int indent = 2;
  std::optional<Engine> engine_override;
  cluster::SupervisorOptions sup;
  sup.node_binary = default_node_binary();

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (arg == "--list") {
      for (const auto& library :
           {curated_scenarios(), curated_proc_scenarios()}) {
        for (const ScenarioSpec& spec : library) {
          std::printf("%-28s %s\n", spec.name.c_str(),
                      spec.description.c_str());
        }
      }
      return 0;
    } else if (arg == "--scenario") {
      const char* v = next_value();
      if (v == nullptr) return usage(argv[0]);
      wanted.emplace_back(v);
    } else if (arg == "--spec") {
      const char* v = next_value();
      if (v == nullptr) return usage(argv[0]);
      spec_files.emplace_back(v);
    } else if (arg == "--engine") {
      const char* v = next_value();
      if (v == nullptr) return usage(argv[0]);
      try {
        engine_override = engine_from_name(v);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
      }
    } else if (arg == "--seeds") {
      const char* v = next_value();
      if (v == nullptr) return usage(argv[0]);
      seed_count = std::strtoull(v, nullptr, 10);
      if (seed_count == 0) return usage(argv[0]);
    } else if (arg == "--seed-base") {
      const char* v = next_value();
      if (v == nullptr) return usage(argv[0]);
      seed_base = std::strtoull(v, nullptr, 10);
    } else if (arg == "--repeat") {
      const char* v = next_value();
      if (v == nullptr) return usage(argv[0]);
      repeat = std::strtoull(v, nullptr, 10);
      if (repeat == 0) return usage(argv[0]);
    } else if (arg == "--threads") {
      const char* v = next_value();
      if (v == nullptr) return usage(argv[0]);
      threads = std::strtoull(v, nullptr, 10);
    } else if (arg == "--node-binary") {
      const char* v = next_value();
      if (v == nullptr) return usage(argv[0]);
      sup.node_binary = v;
    } else if (arg == "--results-dir") {
      const char* v = next_value();
      if (v == nullptr) return usage(argv[0]);
      sup.results_dir = v;
    } else if (arg == "--base-port") {
      const char* v = next_value();
      if (v == nullptr) return usage(argv[0]);
      sup.base_port = static_cast<std::uint16_t>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--keep") {
      sup.keep_artifacts = true;
    } else if (arg == "--out") {
      const char* v = next_value();
      if (v == nullptr) return usage(argv[0]);
      out_path = v;
    } else if (arg == "--compact") {
      indent = -1;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return usage(argv[0]);
    }
  }

  // Assemble the spec list: named curated scenarios, file-loaded specs, or
  // (default) the whole curated library.
  for (const std::string& name : wanted) {
    std::optional<ScenarioSpec> spec = find_scenario(name);
    if (!spec.has_value()) {
      std::fprintf(stderr, "unknown scenario '%s' (try --list)\n",
                   name.c_str());
      return 2;
    }
    specs.push_back(std::move(*spec));
  }
  for (const std::string& path : spec_files) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "cannot read '%s'\n", path.c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    try {
      ScenarioSpec spec = ScenarioSpec::from_json_text(text.str());
      const std::vector<std::string> problems = spec.validate();
      if (!problems.empty()) {
        std::fprintf(stderr, "spec '%s' is invalid:\n", path.c_str());
        for (const std::string& p : problems) {
          std::fprintf(stderr, "  - %s\n", p.c_str());
        }
        return 2;
      }
      specs.push_back(std::move(spec));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "spec '%s': %s\n", path.c_str(), e.what());
      return 2;
    }
  }
  if (specs.empty()) specs = curated_scenarios();
  bool any_proc = false;
  for (ScenarioSpec& spec : specs) {
    if (engine_override.has_value()) spec.engine = *engine_override;
    if (spec.engine == Engine::kProc) any_proc = true;
  }

  if (repeat > 1) {
    // The byte-identity gate only holds for the deterministic simulator:
    // rt runs are wall-clock executions and never reproduce exactly.
    for (const ScenarioSpec& spec : specs) {
      if (spec.engine != Engine::kSim) {
        std::fprintf(stderr,
                     "--repeat needs sim-engine specs ('%s' runs on %s)\n",
                     spec.name.c_str(), engine_name(spec.engine));
        return 2;
      }
    }
  }

  // Clean interrupt: workers stop claiming runs, proc children are killed
  // (the supervisor polls the flag and its teardown reaps them;
  // PR_SET_PDEATHSIG backstops even a hard death) and the partial document
  // still reaches --out.
  struct sigaction sa{};
  sa.sa_handler = on_signal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);

  sup.cancel = &g_cancel;
  cluster::ClusterSupervisor supervisor(sup);

  CampaignOptions options;
  options.seeds.clear();
  for (std::uint64_t k = 0; k < seed_count; ++k) {
    options.seeds.push_back(seed_base + k);
  }
  // Proc runs share the data-plane port range and load the machine with n
  // processes each, so they must not overlap.
  options.threads = any_proc ? 1 : threads;
  options.cancel = &g_cancel;
  options.run_fn = [&](const ScenarioSpec& spec, std::uint64_t seed) {
    if (spec.engine == Engine::kProc) return supervisor.run(spec, seed);
    return run_scenario(spec, seed, options.run);
  };

  const CampaignOutcome outcome = run_campaign(specs, options);
  const std::string text = outcome.document.dump(indent) + "\n";
  for (std::uint64_t r = 2; r <= repeat; ++r) {
    // The campaign document is a pure function of (specs, seeds): any byte
    // difference between repeats is a determinism regression.
    const CampaignOutcome again = run_campaign(specs, options);
    const std::string again_text = again.document.dump(indent) + "\n";
    if (again_text != text) {
      std::fprintf(stderr,
                   "campaign: repeat %llu produced a different document — "
                   "determinism violation\n",
                   static_cast<unsigned long long>(r));
      return 1;
    }
  }
  if (out_path.empty()) {
    std::fwrite(text.data(), 1, text.size(), stdout);
  } else {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "cannot write '%s'\n", out_path.c_str());
      return 2;
    }
    out << text;
  }
  if (g_cancel.load()) {
    std::fprintf(stderr, "campaign: interrupted after %zu run(s)\n",
                 outcome.runs);
    return 3;
  }
  std::fprintf(stderr, "campaign: %zu run(s), %zu failed — %s\n",
               outcome.runs, outcome.failed_runs,
               outcome.ok ? "OK" : "AUDIT VIOLATIONS");
  return outcome.ok ? 0 : 1;
}

// dpu_node — one protocol stack as one OS process (the cluster agent).
//
// Spawned by the campaign supervisor (ClusterSupervisor, which
// scenario_campaign drives), one per node of a proc-engine scenario:
//
//   dpu_node --spec spec.json --hosts hosts.txt --node 3 \
//            --incarnation 0 --epoch-ns 123456789 --seed 1 \
//            --supervisor-port 40123 --results-dir /tmp/run
//
// Exit status: 0 after a clean harvest, 1 on setup failure, 2 when the
// supervisor vanished (no hello ack / prolonged silence).
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>

#include "cluster/agent.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --spec FILE --hosts FILE --node N "
               "--supervisor-port P [--incarnation K] [--epoch-ns E] "
               "[--seed S] [--supervisor-host H] [--results-dir DIR]\n",
               argv0);
  return 1;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dpu;
  using namespace dpu::cluster;

  std::string spec_path;
  std::string hosts_path;
  AgentConfig config;
  bool have_node = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    const char* v = next_value();
    if (v == nullptr) return usage(argv[0]);
    if (arg == "--spec") {
      spec_path = v;
    } else if (arg == "--hosts") {
      hosts_path = v;
    } else if (arg == "--node") {
      config.node = static_cast<NodeId>(std::strtoul(v, nullptr, 10));
      have_node = true;
    } else if (arg == "--incarnation") {
      config.incarnation =
          static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--epoch-ns") {
      config.epoch_ns = std::strtoll(v, nullptr, 10);
    } else if (arg == "--seed") {
      config.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--supervisor-host") {
      config.supervisor_host = v;
    } else if (arg == "--supervisor-port") {
      config.supervisor_port =
          static_cast<std::uint16_t>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--results-dir") {
      config.results_dir = v;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return usage(argv[0]);
    }
  }
  if (spec_path.empty() || hosts_path.empty() || !have_node ||
      config.supervisor_port == 0) {
    return usage(argv[0]);
  }

  try {
    config.spec =
        scenario::ScenarioSpec::from_json_text(read_file(spec_path));
    config.hosts = HostsFile::parse(read_file(hosts_path));
    return run_agent(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dpu_node n%u: %s\n", config.node, e.what());
    return 1;
  }
}

// Orphan safety and interrupt handling for the process-per-node runner.
//
// Drives the real scenario_campaign binary through a proc-engine run and
// kills it mid-run two ways: SIGKILL (nothing in userspace gets to clean
// up — the agents must die via PR_SET_PDEATHSIG) and SIGTERM (the campaign
// must kill its children, flush a partial results document marked
// "interrupted", and exit with code 3).  Both paths must leave zero
// dpu_node processes.
#include <gtest/gtest.h>

#include <dirent.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <chrono>
#include <thread>
#include <vector>

namespace dpu::cluster {
namespace {

std::string bin(const std::string& name) {
  return std::string(DPU_BIN_DIR) + "/" + name;
}

bool have_binaries() {
  return ::access(bin("scenario_campaign").c_str(), X_OK) == 0 &&
         ::access(bin("dpu_node").c_str(), X_OK) == 0;
}

/// All live processes whose parent is `parent` and whose comm is dpu_node,
/// by walking /proc (the supervisor forks agents directly, so agents are
/// immediate children of the campaign process).
std::vector<pid_t> agent_children_of(pid_t parent) {
  std::vector<pid_t> agents;
  DIR* proc = ::opendir("/proc");
  if (proc == nullptr) return agents;
  while (dirent* entry = ::readdir(proc)) {
    const std::string name = entry->d_name;
    if (name.empty() || !std::isdigit(static_cast<unsigned char>(name[0]))) {
      continue;
    }
    std::ifstream stat("/proc/" + name + "/stat");
    std::string line;
    if (!std::getline(stat, line)) continue;
    // pid (comm) state ppid ... — comm may contain spaces, so parse from
    // the closing parenthesis.
    const std::size_t open = line.find('(');
    const std::size_t close = line.rfind(')');
    if (open == std::string::npos || close == std::string::npos) continue;
    const std::string comm = line.substr(open + 1, close - open - 1);
    if (comm != "dpu_node") continue;
    std::istringstream rest(line.substr(close + 1));
    char state = 0;
    pid_t ppid = 0;
    rest >> state >> ppid;
    if (ppid == parent && state != 'Z') {
      agents.push_back(static_cast<pid_t>(std::stol(name)));
    }
  }
  ::closedir(proc);
  return agents;
}

pid_t spawn_campaign(const std::string& out_path,
                     const std::string& results_dir,
                     const std::string& base_port) {
  const std::string campaign = bin("scenario_campaign");
  const std::string node = bin("dpu_node");
  const pid_t pid = ::fork();
  if (pid == 0) {
    std::vector<std::string> args = {
        campaign,     "--scenario",    "proc-orphan-mini",
        "--seeds",    "1",             "--node-binary", node,
        "--results-dir", results_dir,  "--base-port",   base_port,
        "--out",      out_path};
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(campaign.c_str(), argv.data());
    ::_exit(126);
  }
  return pid;
}

std::vector<pid_t> wait_for_agents(pid_t campaign, std::size_t expect) {
  for (int i = 0; i < 400; ++i) {  // up to 20 s for spawn + hello
    const std::vector<pid_t> agents = agent_children_of(campaign);
    if (agents.size() >= expect) return agents;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return {};
}

bool all_gone(const std::vector<pid_t>& pids) {
  for (const pid_t pid : pids) {
    if (::kill(pid, 0) == 0 || errno != ESRCH) return false;
  }
  return true;
}

bool wait_all_gone(const std::vector<pid_t>& pids) {
  for (int i = 0; i < 100; ++i) {  // up to 5 s
    if (all_gone(pids)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return false;
}

TEST(OrphanSafety, SigkilledSupervisorLeavesNoAgents) {
  if (!have_binaries()) {
    GTEST_SKIP() << "cluster binaries not built (DPU_BUILD_BENCH=OFF)";
  }
  const std::string scratch = testing::TempDir() + "orphan-sigkill";
  const pid_t campaign = spawn_campaign(scratch + "-out.json", scratch,
                                        "23200");
  ASSERT_GT(campaign, 0);
  const std::vector<pid_t> agents = wait_for_agents(campaign, 3);
  ASSERT_EQ(agents.size(), 3u) << "agents never appeared";

  // SIGKILL: the campaign gets no chance to clean up.  The agents must
  // die anyway, via the PR_SET_PDEATHSIG they installed before exec.
  ASSERT_EQ(::kill(campaign, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(campaign, &status, 0), campaign);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_TRUE(wait_all_gone(agents)) << "orphaned dpu_node processes";
}

TEST(OrphanSafety, SigtermFlushesInterruptedDocumentAndExits3) {
  if (!have_binaries()) {
    GTEST_SKIP() << "cluster binaries not built (DPU_BUILD_BENCH=OFF)";
  }
  const std::string scratch = testing::TempDir() + "orphan-sigterm";
  const std::string out_path = scratch + "-out.json";
  std::remove(out_path.c_str());
  const pid_t campaign = spawn_campaign(out_path, scratch, "23230");
  ASSERT_GT(campaign, 0);
  const std::vector<pid_t> agents = wait_for_agents(campaign, 3);
  ASSERT_EQ(agents.size(), 3u) << "agents never appeared";

  ASSERT_EQ(::kill(campaign, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(campaign, &status, 0), campaign);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 3);
  EXPECT_TRUE(wait_all_gone(agents)) << "agents outlived the interrupt";

  // The partial document was flushed and marked.
  std::ifstream in(out_path);
  ASSERT_TRUE(in.good()) << "no partial results document at " << out_path;
  std::ostringstream text;
  text << in.rdbuf();
  EXPECT_NE(text.str().find("\"interrupted\": true"), std::string::npos)
      << text.str().substr(0, 400);
}

}  // namespace
}  // namespace dpu::cluster

// Totally-ordered chat on the real-time (threaded) engine, with a protocol
// upgrade AND a crash in the middle of the conversation.
//
// Unlike the other examples this one runs on dpu::rt — every stack has its
// own OS thread and real wall-clock timers — demonstrating that the same
// protocol modules and the same Algorithm 1 run outside the simulator.  A
// participant crashes right after the upgrade is requested; the survivors
// finish the switch and keep chatting in a consistent order.
//
//   $ ./chat_upgrade
#include <chrono>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include "app/stack_builder.hpp"
#include "rt/rt_world.hpp"

using namespace dpu;

namespace {

struct ChatLog final : AbcastListener {
  std::mutex mutex;
  std::vector<std::string> lines;
  void adeliver(NodeId sender, const Bytes& payload) override {
    const std::lock_guard<std::mutex> lock(mutex);
    lines.push_back("s" + std::to_string(sender) + "> " + to_string(payload));
  }
  std::vector<std::string> snapshot() {
    const std::lock_guard<std::mutex> lock(mutex);
    return lines;
  }
};

}  // namespace

int main() {
  constexpr std::size_t kMembers = 4;
  StandardStackOptions options;
  options.fd.heartbeat_interval = 20 * kMillisecond;
  options.fd.initial_timeout = 200 * kMillisecond;
  options.with_gm = false;
  ProtocolLibrary library = make_standard_library(options);

  RtWorld world(RtConfig{.num_stacks = kMembers, .seed = 99}, &library);
  std::vector<StandardStack> stacks;
  std::vector<ChatLog> logs(kMembers);
  for (NodeId i = 0; i < kMembers; ++i) {
    stacks.push_back(build_standard_stack(world.stack(i), options));
    world.stack(i).listen<AbcastListener>(kAbcastService, &logs[i], nullptr);
  }
  world.start();

  auto say = [&](NodeId who, const std::string& text) {
    world.post_to(who, [&world, who, text]() {
      world.stack(who).require<AbcastApi>(kAbcastService)
          .call([&text](AbcastApi& api) { api.abcast(to_bytes(text)); });
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
  };

  say(0, "anyone up for upgrading the broadcast protocol?");
  say(1, "sure, but I have messages in flight");
  say(2, "me too, do not lose them");

  std::printf("--> stack 3 requests the upgrade to abcast.ct, then crashes\n");
  world.call_on(3, [&]() {
    stacks[3].update->request_update(kAbcastService, "abcast.ct");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  world.crash(3);

  say(0, "switch done on my side");
  say(1, "mine too, same order as always");
  say(2, "and the crashed member did not take us down");

  // Let the survivors settle.
  std::this_thread::sleep_for(std::chrono::milliseconds(800));
  world.stop();

  auto reference = logs[0].snapshot();
  std::printf("\nchat as delivered on stack 0 (%zu lines):\n",
              reference.size());
  for (const auto& line : reference) std::printf("  %s\n", line.c_str());

  bool consistent = true;
  for (NodeId i = 1; i < 3; ++i) {  // survivors only
    if (logs[i].snapshot() != reference) consistent = false;
  }
  std::printf("\nsurvivors delivered identical transcripts: %s\n",
              consistent ? "yes" : "NO (bug!)");
  std::printf("protocol after upgrade: %s (seqNumber=%llu)\n",
              stacks[0].repl->current_protocol().c_str(),
              static_cast<unsigned long long>(stacks[0].repl->seq_number()));
  const bool switched = stacks[0].repl->seq_number() == 1;
  return consistent && switched ? 0 : 1;
}

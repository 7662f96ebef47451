// Chat room: the paper's motivating workload (§I cites a chat application
// tolerating an epoch of ~1 message/second). Several participants exchange
// messages across epochs on a content topic over the spam-protected relay;
// every participant counts what the relay delivers to it through its
// message handler, and one listener prints the room as it received it.
//
// Build & run:  ./build/examples/chat_room
#include <cstdio>
#include <string>
#include <vector>

#include "rln/harness.hpp"

using namespace waku;  // NOLINT

namespace {
const char* kRoomTopic = "/chatroom/1/lobby/proto";
const char* kNames[] = {"zoe", "alice", "bob", "carol", "dave", "erin"};
}  // namespace

int main() {
  std::printf("== WAKU-RLN-RELAY chat room ==\n\n");

  rln::HarnessConfig cfg;
  cfg.num_nodes = 6;  // node 0 (zoe) only listens
  cfg.degree = 3;
  cfg.block_interval_ms = 12'000;
  cfg.node.tree_depth = 16;
  cfg.node.validator.epoch.epoch_length_ms = 5'000;  // chat-friendly rate
  rln::RlnHarness net(cfg);
  net.register_all();
  net.run_ms(5'000);

  // Each participant counts the messages the relay delivers to it
  // (validated: proof, root and rate limit checked); zoe also keeps them.
  std::vector<std::size_t> received(net.size(), 0);
  std::vector<std::string> transcript;
  for (std::size_t i = 0; i < net.size(); ++i) {
    net.node(i).set_message_handler([&, i](const WakuMessage& m) {
      ++received[i];
      if (i == 0) transcript.push_back(to_string(m.payload));
    });
  }

  // Script a little conversation: (speaker, line), one epoch per round.
  const std::vector<std::pair<std::size_t, std::string>> script = {
      {1, "hey everyone, is this thing spam-proof?"},
      {2, "one message per epoch per member, cryptographically"},
      {3, "and no phone numbers or emails at signup"},
      {4, "just a stake; spam it and you lose the stake"},
      {5, "routing peers get paid to catch spammers, neat"},
      {1, "love it. privacy AND economics"},
  };

  for (const auto& [who, line] : script) {
    const auto status = net.node(who).try_publish(to_bytes(line), kRoomTopic);
    std::printf("[epoch %llu] %-7s: %s%s\n",
                static_cast<unsigned long long>(net.node(who).current_epoch()),
                kNames[who], line.c_str(),
                status == rln::WakuRlnRelayNode::PublishStatus::kOk
                    ? ""
                    : "  (REFUSED)");
    net.run_ms(cfg.node.validator.epoch.epoch_length_ms);  // next epoch
  }
  net.run_ms(5'000);

  // Everyone got every line exactly once (a speaker's own line too).
  std::printf("\nroom messages delivered per participant:");
  for (std::size_t i = 0; i < net.size(); ++i) {
    std::printf(" %s=%zu", kNames[i], received[i]);
  }

  std::printf("\n\nthe room as zoe received it:\n");
  for (const std::string& line : transcript) {
    std::printf("  | %s\n", line.c_str());
  }
  return 0;
}

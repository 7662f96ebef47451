// Light node: the resource-restricted profile the paper designs for (§I).
//
// Every peer runs with the O(log N) partial Merkle view ([18], §IV-A): it
// keeps kilobytes of tree state instead of the full replica, yet proves,
// validates and relays like any full RLN node.
//
// Build & run:  ./build/examples/light_node
#include <cstdio>

#include "rln/harness.hpp"

using namespace waku;  // NOLINT

int main() {
  std::printf("== light-node profile: partial tree view ==\n\n");

  rln::HarnessConfig cfg;
  cfg.num_nodes = 8;
  cfg.degree = 3;
  cfg.block_interval_ms = 10'000;
  cfg.node.tree_depth = 20;
  cfg.node.tree_mode = rln::TreeMode::kPartialView;
  cfg.node.validator.epoch.epoch_length_ms = 5'000;
  rln::RlnHarness net(cfg);
  net.register_all();
  net.run_ms(4'000);

  std::printf("tree state per peer (depth-20 tree, partial view [18]):\n");
  for (std::size_t i = 0; i < 3; ++i) {
    std::printf("  node %zu: %zu bytes (full replica would be ~67 MB at "
                "capacity)\n",
                i, net.node(i).group().storage_bytes());
  }

  // Members publish across epochs; every partial-view peer validates and
  // delivers each message.
  std::size_t delivered_at_0 = 0;
  net.node(0).set_message_handler([&delivered_at_0](const WakuMessage& m) {
    ++delivered_at_0;
    std::printf("  node 0 <- delivered: \"%s\" (topic %s)\n",
                to_string(m.payload).c_str(), m.content_topic.c_str());
  });
  std::printf("\npublishing from three partial-view members:\n");
  (void)net.node(1).try_publish(to_bytes("temperature spike on rack 7"),
                                "/sensor/1/alerts/proto");
  net.run_ms(cfg.node.validator.epoch.epoch_length_ms);
  (void)net.node(2).try_publish(to_bytes("cat pictures thread"),
                                "/social/1/cats/proto");
  net.run_ms(cfg.node.validator.epoch.epoch_length_ms);
  (void)net.node(3).try_publish(to_bytes("fan failure on rack 2"),
                                "/sensor/1/alerts/proto");
  net.run_ms(8'000);

  std::printf("\nnode 0 delivered %zu of 3 published messages; %llu "
              "deliveries across all %zu peers\n",
              delivered_at_0,
              static_cast<unsigned long long>(net.total_delivered()),
              net.size());
  return 0;
}

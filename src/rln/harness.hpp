// Simulation harness: wires a complete WAKU-RLN-RELAY deployment — a
// blockchain with the membership contract, a p2p network with gossip
// routers, N full nodes, and a block-production schedule — so experiments,
// integration tests, and examples share one correct setup.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "chain/blockchain.hpp"
#include "rln/node.hpp"

namespace waku::rln {

struct HarnessConfig {
  std::size_t num_nodes = 20;
  std::size_t degree = 6;              ///< target connectivity
  net::LinkConfig link;                ///< latency/jitter/loss
  std::uint64_t block_interval_ms = 12'000;
  chain::Gwei deposit_gwei = 10'000'000;  ///< 0.01 ETH membership stake
  chain::Gwei initial_balance_gwei = 100 * chain::kGweiPerEth;
  NodeConfig node;                     ///< template; account/seed set per node
  /// Per-node shard subscriptions for sharded deployments: slot i
  /// subscribes to shard_assignment(i) (within node.shards.num_shards).
  /// Unset, every node takes the template's subscription set. Applied
  /// identically on construction and restart, so a restarted node rejoins
  /// exactly its old shards.
  std::function<std::vector<shard::ShardId>(std::size_t)> shard_assignment;
  std::uint64_t seed = 42;
  /// Base directory for per-node durable state: node i persists under
  /// `<persist_dir>/node<i>`. Empty keeps every node ephemeral.
  std::string persist_dir;
};

class RlnHarness {
 public:
  explicit RlnHarness(HarnessConfig config);

  /// Submits registrations for every node and advances the simulation
  /// until all memberships are mined and synced.
  void register_all();

  /// Advances simulated time (blocks keep being mined on schedule).
  void run_ms(net::TimeMs duration);

  /// Simulated crash: detaches node `i` from the network/chain/scheduler
  /// and destroys it. Its durable state (if any) stays on disk; the chain
  /// keeps mining.
  void kill_node(std::size_t i);

  /// Brings node `i` back with the same account, seed, and persist
  /// directory (so it restores and resumes from its replay cursor), wires
  /// it to the surviving peers, and starts it.
  void restart_node(std::size_t i);

  [[nodiscard]] bool alive(std::size_t i) const {
    return nodes_[i] != nullptr;
  }

  /// Per-node attachment hook for instrumentation (message handlers, stat
  /// probes): runs immediately for every live node and again for each node
  /// restart_node() brings back — counters and handlers survive a
  /// kill/restart cycle instead of silently detaching with the dead
  /// instance.
  using NodeHook = std::function<void(std::size_t, WakuRlnRelayNode&)>;
  void set_node_hook(NodeHook hook);

  [[nodiscard]] WakuRlnRelayNode& node(std::size_t i) { return *nodes_[i]; }
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

  [[nodiscard]] net::Simulator& sim() { return sim_; }
  [[nodiscard]] net::Network& network() { return network_; }
  [[nodiscard]] chain::Blockchain& chain() { return chain_; }
  [[nodiscard]] const chain::Address& contract() const { return contract_; }
  [[nodiscard]] const HarnessConfig& config() const { return config_; }

  /// Sum of delivered-message counters across all nodes.
  [[nodiscard]] std::uint64_t total_delivered() const;
  /// Field-wise sum of every node's validation-pipeline counters —
  /// the deployment-wide view of where traffic died (or didn't).
  [[nodiscard]] ValidatorStats total_validation_stats() const;

 private:
  /// Node config/seed for slot `i` — identical at construction and on
  /// restart, so a restarted node is the same member (same identity seed,
  /// same account, same persist directory).
  [[nodiscard]] NodeConfig node_config(std::size_t i) const;
  [[nodiscard]] std::uint64_t node_seed(std::size_t i) const {
    return config_.seed * 1000 + i;
  }

  HarnessConfig config_;
  net::Simulator sim_;
  net::Network network_;
  chain::Blockchain chain_;
  chain::Address contract_;
  std::vector<std::unique_ptr<WakuRlnRelayNode>> nodes_;
  NodeHook node_hook_;
};

}  // namespace waku::rln

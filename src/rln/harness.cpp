#include "rln/harness.hpp"

#include "common/expect.hpp"

namespace waku::rln {

RlnHarness::RlnHarness(HarnessConfig config)
    : config_(config),
      network_(sim_, config.link, config.seed),
      chain_([&config] {
        chain::Blockchain::Config c;
        c.block_interval_ms = config.block_interval_ms;
        return c;
      }()) {
  contract_ = chain_.deploy(
      std::make_unique<chain::RlnMembershipContract>(config_.deposit_gwei));

  Rng rng(config_.seed);
  for (std::size_t i = 0; i < config_.num_nodes; ++i) {
    const NodeConfig nc = node_config(i);
    chain_.create_account(nc.account, config_.initial_balance_gwei);
    nodes_.push_back(std::make_unique<WakuRlnRelayNode>(
        network_, chain_, contract_, nc, node_seed(i)));
  }

  network_.connect_random(config_.degree, rng);
  for (auto& node : nodes_) node->start();

  // Block production on the configured cadence.
  sim_.schedule_every(config_.block_interval_ms,
                      [this] { chain_.mine_block(sim_.now()); });
}

void RlnHarness::register_all() {
  for (auto& node : nodes_) node->register_membership();
  // Registrations become usable after their block is mined (§IV-A delay);
  // allow a couple of block intervals plus mesh formation heartbeats.
  std::size_t guard = 0;
  for (;;) {
    run_ms(config_.block_interval_ms);
    bool all = true;
    for (auto& node : nodes_) all = all && node->is_registered();
    if (all) break;
    WAKU_ASSERT(++guard < 100);
  }
}

void RlnHarness::run_ms(net::TimeMs duration) {
  sim_.run_until(sim_.now() + duration);
}

NodeConfig RlnHarness::node_config(std::size_t i) const {
  NodeConfig nc = config_.node;
  nc.account = chain::Address::from_u64(0xACC00000 + i);
  if (config_.shard_assignment) {
    nc.shards.subscribe = config_.shard_assignment(i);
  }
  if (!config_.persist_dir.empty()) {
    nc.persist_dir = config_.persist_dir + "/node" + std::to_string(i);
  }
  return nc;
}

void RlnHarness::kill_node(std::size_t i) {
  WAKU_EXPECTS(nodes_[i] != nullptr);
  nodes_[i]->shutdown();
  nodes_[i].reset();
}

void RlnHarness::restart_node(std::size_t i) {
  WAKU_EXPECTS(nodes_[i] == nullptr);
  nodes_[i] = std::make_unique<WakuRlnRelayNode>(
      network_, chain_, contract_, node_config(i), node_seed(i));
  // Rejoin the overlay: link to every surviving peer (test-scale meshes),
  // then start — subscription frames go out to the new links and the next
  // heartbeats graft it back into the mesh.
  for (std::size_t j = 0; j < nodes_.size(); ++j) {
    if (j == i || nodes_[j] == nullptr) continue;
    network_.connect(nodes_[i]->node_id(), nodes_[j]->node_id());
  }
  nodes_[i]->start();
  // Re-attach instrumentation: the hook ran against the dead instance;
  // without this the restarted node would deliver into a void.
  if (node_hook_) node_hook_(i, *nodes_[i]);
}

void RlnHarness::set_node_hook(NodeHook hook) {
  node_hook_ = std::move(hook);
  if (!node_hook_) return;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i]) node_hook_(i, *nodes_[i]);
  }
}

std::uint64_t RlnHarness::total_delivered() const {
  std::uint64_t n = 0;
  for (const auto& node : nodes_) {
    if (node) n += node->stats().delivered;
  }
  return n;
}

ValidatorStats RlnHarness::total_validation_stats() const {
  ValidatorStats total;
  for (const auto& node : nodes_) {
    if (node) total += node->validator().stats();
  }
  return total;
}

}  // namespace waku::rln

#include "sim/probe.hpp"

namespace waku::sim {

HarnessProbe::HarnessProbe(rln::RlnHarness& harness,
                           rln::RlnHarness::NodeHook node_hook)
    : harness_(harness),
      shard_map_(harness.config().node.shards),
      num_shards_(harness.config().node.shards.num_shards),
      per_node_spam_(harness.size(), 0),
      per_node_honest_(harness.size(), 0),
      per_node_shard_spam_(harness.size() * num_shards_, 0),
      per_node_shard_honest_(harness.size() * num_shards_, 0) {
  // Delivery classification, per node and per shard (the shard the
  // delivered content topic maps to). Installed through the harness hook
  // so restart_node() re-attaches it to the fresh instance (a dead node's
  // handler dies with it).
  harness_.set_node_hook([this, node_hook = std::move(node_hook)](
                             std::size_t i, rln::WakuRlnRelayNode& node) {
    if (node_hook) node_hook(i, node);
    node.set_message_handler([this, i](const WakuMessage& msg) {
      const std::string_view payload(
          reinterpret_cast<const char*>(msg.payload.data()),
          msg.payload.size());
      const shard::ShardId shard = shard_map_.shard_of(msg.content_topic);
      if (payload.starts_with(kSpamTag)) {
        ++per_node_spam_[i];
        ++per_node_shard_spam_[i * num_shards_ + shard];
      } else if (payload.starts_with(kHonestTag)) {
        ++per_node_honest_[i];
        ++per_node_shard_honest_[i * num_shards_ + shard];
        ++honest_delivered_;
      }
      if (observer_) observer_(i, payload);
    });
  });

  chain_subscription_ =
      harness_.chain().subscribe_events([this](const chain::Event& ev) {
        if (ev.name == "MemberSlashed") {
          slashes_.push_back({ev.topics[0].limb[0], harness_.sim().now()});
        } else if (ev.name == "MemberWithdrawn") {
          withdrawals_.push_back(
              {ev.topics[0].limb[0], harness_.sim().now()});
        }
      });
}

HarnessProbe::~HarnessProbe() {
  harness_.chain().unsubscribe_events(chain_subscription_);
  // The installed handlers capture `this`; detach them so a harness that
  // outlives the probe cannot call into a dead object.
  harness_.set_node_hook(nullptr);
  for (std::size_t i = 0; i < harness_.size(); ++i) {
    if (harness_.alive(i)) harness_.node(i).set_message_handler(nullptr);
  }
}

void HarnessProbe::mark_attack_start() {
  attack_start_ms_ = harness_.sim().now();
}

}  // namespace waku::sim

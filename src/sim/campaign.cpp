#include "sim/campaign.hpp"

namespace waku::sim {

std::function<std::vector<shard::ShardId>(std::size_t)> round_robin(
    std::uint16_t shards) {
  return [shards](std::size_t i) {
    return std::vector<shard::ShardId>{
        static_cast<shard::ShardId>(i % shards)};
  };
}

std::vector<std::string> shard_topics(const shard::ShardMap& map) {
  std::vector<std::string> topics(map.num_shards());
  for (std::uint16_t s = 0; s < map.num_shards(); ++s) {
    topics[s] = shard::content_topic_for_shard(map, s);
  }
  return topics;
}

std::string topic_homed_on(const std::string& prefix, std::size_t slot,
                           const shard::ShardMap& old_map,
                           const shard::ShardMap& new_map) {
  const auto old_home =
      static_cast<shard::ShardId>(slot % old_map.num_shards());
  const auto new_home =
      static_cast<shard::ShardId>(slot % new_map.num_shards());
  for (std::uint64_t k = 0;; ++k) {
    std::string t = prefix + std::to_string(k) + "/proto";
    if (old_map.shard_of(t) == old_home && new_map.shard_of(t) == new_home) {
      return t;
    }
  }
}

Campaign::Campaign(const rln::HarnessConfig& config, std::uint64_t rng_salt,
                   net::TimeMs tick_ms, double honest_rate_per_epoch,
                   rln::RlnHarness::NodeHook node_hook)
    : harness(config),
      probe(harness, std::move(node_hook)),
      rng(config.seed ^ rng_salt),
      tick_ms_(tick_ms),
      per_tick_p_(honest_rate_per_epoch * static_cast<double>(tick_ms) /
                  static_cast<double>(
                      config.node.validator.epoch.epoch_length_ms)) {}

std::uint64_t Campaign::epoch_now() {
  return harness.config().node.validator.epoch.epoch_at(harness.sim().now());
}

bool Campaign::epoch_turned() {
  const std::uint64_t epoch = epoch_now();
  if (epoch == last_epoch_) return false;
  last_epoch_ = epoch;
  return true;
}

void Campaign::stitch_rings(std::uint16_t groups, bool chord) {
  const auto connect = [this](std::size_t a, std::size_t b) {
    harness.network().connect(harness.node(a).node_id(),
                              harness.node(b).node_id());
  };
  for (std::uint16_t s = 0; s < groups; ++s) {
    std::vector<std::size_t> hosts;
    for (std::size_t i = s; i < harness.size(); i += groups) {
      hosts.push_back(i);
    }
    for (std::size_t k = 0; k + 1 < hosts.size(); ++k) {
      connect(hosts[k], hosts[k + 1]);
    }
    if (hosts.size() > 2) {
      connect(hosts.back(), hosts.front());
      if (chord) connect(hosts[0], hosts[hosts.size() / 2]);
    }
  }
}

void Campaign::honest_tick(
    const std::function<std::string(std::size_t)>& topic_of,
    const std::function<void(std::size_t)>& on_sent,
    std::size_t max_publishers) {
  std::size_t publishers_seen = 0;
  for (std::size_t i = 0; i < harness.size(); ++i) {
    if (!honest(i) || !harness.alive(i)) continue;
    if (max_publishers != 0 && ++publishers_seen > max_publishers) break;
    if (!rng.chance(per_tick_p_)) continue;
    const auto status = harness.node(i).try_publish(
        to_bytes(std::string(kHonestTag) + "n" + std::to_string(i) + "#" +
                 std::to_string(honest_sent)),
        topic_of(i));
    if (status != rln::WakuRlnRelayNode::PublishStatus::kOk) continue;
    ++honest_sent;
    if (on_sent) on_sent(i);
  }
}

std::uint64_t Campaign::honest_hosts(std::uint16_t groups,
                                     shard::ShardId s) const {
  std::uint64_t hosts = 0;
  for (std::size_t i = s; i < harness.size(); i += groups) {
    if (honest(i)) ++hosts;
  }
  return hosts;
}

std::uint64_t Campaign::honest_delivered() const {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < harness.size(); ++i) {
    if (honest(i)) sum += probe.node_honest_delivered(i);
  }
  return sum;
}

std::uint64_t Campaign::spam_delivered() const {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < harness.size(); ++i) {
    if (honest(i)) sum += probe.node_spam_delivered(i);
  }
  return sum;
}

void Campaign::harvest_traces(obs::PropagationAssembler& assembler) {
  std::map<shard::ShardId, std::size_t> subscribers;
  for (std::size_t i = 0; i < harness.size(); ++i) {
    if (!harness.alive(i)) continue;
    rln::WakuRlnRelayNode& node = harness.node(i);
    if (!honest(i)) assembler.mark_adversary(node.node_id());
    const rln::NodeTelemetry& telemetry = node.telemetry();
    assembler.ingest(node.node_id(), telemetry.trace_dump());
    assembler.ingest_flight(node.node_id(),
                            telemetry.flight_recorder().events());
    for (const shard::ShardId s : node.validator().subscribed()) {
      ++subscribers[s];
    }
  }
  for (const auto& [s, count] : subscribers) {
    assembler.set_subscribers(s, count);
  }
}

bool Campaign::all_converged(std::uint16_t shards, std::uint32_t generation) {
  for (std::size_t i = 0; i < harness.size(); ++i) {
    if (!harness.alive(i)) continue;
    const shard::ShardMap& map = harness.node(i).shards().map();
    if (map.num_shards() != shards || map.generation() != generation ||
        harness.node(i).shards().phase() != shard::ReshardPhase::kStable) {
      return false;
    }
  }
  return true;
}

}  // namespace waku::sim

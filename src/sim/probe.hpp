// HarnessProbe: what a campaign observes of an RlnHarness deployment
// beyond the nodes' own counters. It classifies every delivery by payload
// tag (per node and per relay shard) and timestamps every MemberSlashed /
// MemberWithdrawn contract event. Node counters are not copied here: a
// scenario's Report sums the live nodes' telemetry().snapshot()s once,
// at scenario end.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>
#include <vector>

#include "rln/harness.hpp"

namespace waku::sim {

/// Payload tags the scenario engine uses to classify delivered traffic.
/// Generators and adversaries prefix payloads; the probe's per-node
/// delivery handler classifies on the prefix.
inline constexpr std::string_view kHonestTag = "ok|";
inline constexpr std::string_view kSpamTag = "spam|";

/// Delivery and slash ledger of an RlnHarness deployment:
///
///   * installs (via RlnHarness::set_node_hook, so kill/restart cycles
///     re-attach) a per-node delivery handler that classifies payloads by
///     tag into spam/honest deliveries — per node, per relay shard (via
///     the deployment's ShardMap over the delivered content topic), and
///     in aggregate;
///   * subscribes to the chain event stream to timestamp MemberSlashed /
///     MemberWithdrawn events (time-to-slash measurement).
///
/// The probe owns the harness's single node hook; `node_hook` (optional)
/// runs inside it first, so campaign per-node setup also survives
/// kill/restart.
class HarnessProbe {
 public:
  explicit HarnessProbe(rln::RlnHarness& harness,
                        rln::RlnHarness::NodeHook node_hook = nullptr);
  ~HarnessProbe();

  HarnessProbe(const HarnessProbe&) = delete;
  HarnessProbe& operator=(const HarnessProbe&) = delete;

  /// Marks "the attack started now" — slash latencies observed later are
  /// measured against this.
  void mark_attack_start();

  /// Also hands every delivery (node slot, payload) to `observer`, after
  /// classification — campaign-specific ledgers ride on the probe's
  /// handler instead of replacing it.
  using DeliveryObserver = std::function<void(std::size_t, std::string_view)>;
  void set_delivery_observer(DeliveryObserver observer) {
    observer_ = std::move(observer);
  }

  struct SlashEvent {
    std::uint64_t index;
    net::TimeMs at_ms;
  };

  [[nodiscard]] std::uint64_t honest_delivered() const {
    return honest_delivered_;
  }
  [[nodiscard]] std::uint64_t node_spam_delivered(std::size_t i) const {
    return per_node_spam_[i];
  }
  [[nodiscard]] std::uint64_t node_honest_delivered(std::size_t i) const {
    return per_node_honest_[i];
  }
  /// Per-(node, shard) delivery classification — the shard is the one the
  /// delivered message's content topic maps to under the deployment's
  /// shard layout.
  [[nodiscard]] std::uint64_t node_shard_spam_delivered(
      std::size_t i, shard::ShardId shard) const {
    return per_node_shard_spam_[i * num_shards_ + shard];
  }
  [[nodiscard]] std::uint64_t node_shard_honest_delivered(
      std::size_t i, shard::ShardId shard) const {
    return per_node_shard_honest_[i * num_shards_ + shard];
  }
  [[nodiscard]] const std::vector<SlashEvent>& slashes() const {
    return slashes_;
  }
  [[nodiscard]] const std::vector<SlashEvent>& withdrawals() const {
    return withdrawals_;
  }
  [[nodiscard]] std::optional<net::TimeMs> attack_start_ms() const {
    return attack_start_ms_;
  }

 private:
  rln::RlnHarness& harness_;
  shard::ShardMap shard_map_;  ///< the deployment's layout (node template)
  std::uint16_t num_shards_ = 1;
  std::vector<std::uint64_t> per_node_spam_;
  std::vector<std::uint64_t> per_node_honest_;
  std::vector<std::uint64_t> per_node_shard_spam_;    ///< [node * S + shard]
  std::vector<std::uint64_t> per_node_shard_honest_;  ///< [node * S + shard]
  std::uint64_t honest_delivered_ = 0;
  std::vector<SlashEvent> slashes_;
  std::vector<SlashEvent> withdrawals_;
  std::optional<net::TimeMs> attack_start_ms_;
  std::uint64_t chain_subscription_ = 0;
  DeliveryObserver observer_;
};

}  // namespace waku::sim

// Metrics registry for the adversarial scenario engine: named counters,
// gauges, and fixed-bucket histograms with per-epoch time series and JSON
// export. One registry per scenario keeps campaigns deterministic and
// comparable.
//
// The registry is fed two ways:
//   * event-driven — adversaries, traffic generators, and the HarnessProbe
//     increment counters as things happen (spam sent/delivered, slashes);
//   * sampled — HarnessProbe::sample(epoch) reads the deployment-wide
//     counters the stack already maintains (gossipsub::RouterStats,
//     rln::ValidatorStats, NullifierLog stats, PeerScore graylists,
//     NodeStats, net::TrafficStats) into gauges and snapshots every
//     counter/gauge into the per-epoch series.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "rln/harness.hpp"

namespace waku::sim {

class Counter {
 public:
  void inc(std::uint64_t d = 1) { value_ += d; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) { value_ = v; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0;
};

/// Fixed-bucket histogram: counts per upper bound plus an overflow bucket.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds = {});
  void observe(double v);
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  /// counts()[i] pairs with bounds()[i]; counts().back() is the overflow.
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const {
    return counts_;
  }
  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  double sum_ = 0;
};

class MetricsRegistry {
 public:
  /// Named lookup creates on first use; names are stable keys in the JSON
  /// export (std::map keeps the output deterministically ordered).
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  /// Bounds apply on first creation only.
  Histogram& histogram(const std::string& name,
                       std::vector<double> upper_bounds = {});

  /// Snapshots every counter and gauge into the per-epoch time series.
  /// Sampling the same epoch twice overwrites (a scenario tick can land on
  /// an epoch boundary twice).
  void sample_epoch(std::uint64_t epoch);

  struct SeriesPoint {
    std::uint64_t epoch;
    double value;
  };
  [[nodiscard]] const std::vector<SeriesPoint>& series(
      const std::string& name) const;

  [[nodiscard]] std::uint64_t counter_value(const std::string& name) const;

  /// Full JSON dump: {"counters": {...}, "gauges": {...},
  /// "histograms": {...}, "series": {...}}.
  [[nodiscard]] std::string to_json() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, std::vector<SeriesPoint>> series_;
};

/// Payload tags the scenario engine uses to classify delivered traffic.
/// Generators and adversaries prefix payloads; the probe's per-node
/// delivery handler classifies on the prefix.
inline constexpr std::string_view kHonestTag = "ok|";
inline constexpr std::string_view kSpamTag = "spam|";

/// Instrumentation bridge between an RlnHarness deployment and a
/// MetricsRegistry:
///
///   * installs (via RlnHarness::set_node_hook, so kill/restart cycles
///     re-attach) a per-node delivery handler that classifies payloads by
///     tag into spam/honest delivery counters — per node, per relay shard
///     (via the deployment's ShardMap over the delivered content topic),
///     and in aggregate;
///   * subscribes to the chain event stream to timestamp MemberSlashed /
///     MemberWithdrawn events (time-to-slash measurement);
///   * sample(epoch) reads router/pipeline/nullifier-log/peer-score/node
///     counters across the deployment into gauges (pipeline verdicts also
///     per shard) and snapshots the series.
///
/// The probe owns the harness's single node hook; `node_hook` (optional)
/// runs inside it first, so campaign per-node setup also survives
/// kill/restart.
class HarnessProbe {
 public:
  HarnessProbe(rln::RlnHarness& harness, MetricsRegistry& registry,
               rln::RlnHarness::NodeHook node_hook = nullptr);
  ~HarnessProbe();

  HarnessProbe(const HarnessProbe&) = delete;
  HarnessProbe& operator=(const HarnessProbe&) = delete;

  /// Samples deployment-wide stats into gauges and snapshots the series.
  void sample(std::uint64_t epoch);

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

  [[nodiscard]] std::uint64_t spam_delivered() const {
    return spam_delivered_;
  }
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
  [[nodiscard]] std::uint16_t num_shards() const { return num_shards_; }
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
  MetricsRegistry& registry_;
  shard::ShardMap shard_map_;  ///< the deployment's layout (node template)
  std::uint16_t num_shards_ = 1;
  std::vector<std::uint64_t> per_node_spam_;
  std::vector<std::uint64_t> per_node_honest_;
  std::vector<std::uint64_t> per_node_shard_spam_;    ///< [node * S + shard]
  std::vector<std::uint64_t> per_node_shard_honest_;  ///< [node * S + shard]
  std::uint64_t spam_delivered_ = 0;
  std::uint64_t honest_delivered_ = 0;
  std::vector<SlashEvent> slashes_;
  std::vector<SlashEvent> withdrawals_;
  std::optional<net::TimeMs> attack_start_ms_;
  std::uint64_t chain_subscription_ = 0;
  DeliveryObserver observer_;
};

}  // namespace waku::sim

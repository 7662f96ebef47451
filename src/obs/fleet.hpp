// Fleet observability plane: cross-node aggregation + declarative SLO
// anomaly rules.
//
// The paper's spam-protection guarantees (>=99% honest delivery, bounded
// time-to-slash) are FLEET-level properties no single node's
// metrics_text() can attest to. FleetAggregator consumes one
// NodeHealthSample per node per epoch — a generic struct, so this layer
// stays in waku_obs (links only waku_common) and both the simulator's
// campaigns and a single node's self-monitor can feed it — and
// materializes one FleetEpochSeries row per epoch: honest-delivery
// ratio, spam-containment drift, per-shard validate-p95 spread, quota
// saturation, nullifier-log growth. Exposition reuses PrometheusWriter
// so the fleet families obey the same format rules (and the same
// scripts/check_metrics_format.py lint) as every in-node family.
//
// AnomalyEngine evaluates declarative SLO rules over the series with
// trip/clear hysteresis — an anomaly fires after `trip_epochs`
// consecutive bad epochs and clears after `clear_epochs` good ones, so a
// single noisy epoch neither pages nor silences. Verdicts are structured
// (rule, firing, changed, observed, threshold); the owner journals
// firings to its FlightRecorder and lets the operator loop consume them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace waku::obs {

/// One node's per-shard health contribution.
struct ShardHealth {
  std::uint16_t shard = 0;
  double p95_validate_ms = 0.0;
};

/// One node's health scrape for one epoch. Counters are cumulative (the
/// aggregator diffs totals across epochs itself where growth matters).
/// The honest/spam fields are experiment ground truth only a harness
/// knows; a node self-monitoring leaves them 0 (ratio defaults to 1).
struct NodeHealthSample {
  std::uint64_t node_id = 0;
  std::uint64_t epoch = 0;
  std::uint64_t published = 0;
  std::uint64_t delivered = 0;
  std::uint64_t accepted = 0;
  std::uint64_t spam_detected = 0;
  std::uint64_t honest_delivered = 0;  ///< sim-fed; 0 = unknown
  std::uint64_t honest_ideal = 0;      ///< sim-fed; 0 = unknown
  std::uint64_t spam_sent = 0;         ///< sim-fed; 0 = unknown
  std::uint64_t spam_delivered = 0;    ///< sim-fed
  std::uint64_t log_entries = 0;
  std::uint64_t executor_rejected = 0;
  /// Fraction of this node's per-shard publish quota consumed this epoch.
  double quota_saturation = 0.0;
  std::vector<ShardHealth> shards;
};

/// One materialized fleet-level row (one epoch).
struct FleetEpochSeries {
  std::uint64_t epoch = 0;
  std::size_t nodes_reporting = 0;
  /// sum(honest_delivered) / sum(honest_ideal); 1.0 when ideal is 0.
  double honest_delivery_ratio = 1.0;
  /// 1 - sum(spam_delivered)/sum(spam_sent); 1.0 when no spam was sent.
  double containment_ratio = 1.0;
  /// Previous epoch's containment minus this one (positive = regression).
  double containment_drift = 0.0;
  /// max - min across every (node, shard) p95 that reported (> 0).
  double p95_spread_ms = 0.0;
  double max_p95_ms = 0.0;
  /// Mean per-node quota saturation.
  double quota_saturation = 0.0;
  std::uint64_t total_log_entries = 0;
  /// Delta of total_log_entries vs the previous row (memory slope).
  double log_growth_per_epoch = 0.0;
  std::uint64_t executor_rejected = 0;
  /// Mesh-level propagation health, fed by set_propagation() from a
  /// PropagationAssembler rollup. All-defaults (p95 = 0) means no
  /// tracing lane feeds this aggregator — a node self-monitoring without
  /// cross-node traces stays healthy on the propagation SLO rule.
  double propagation_p95_ms = 0.0;
  double propagation_redundancy = 0.0;
  double propagation_reachability = 1.0;
  std::uint64_t propagation_incomplete = 0;

  [[nodiscard]] std::string to_json() const;
};

struct FleetAggregatorConfig {
  /// Rows kept; the oldest is dropped past this (bounded like every ring).
  std::size_t history = 128;
};

class FleetAggregator {
 public:
  FleetAggregator() = default;
  explicit FleetAggregator(FleetAggregatorConfig config) : config_(config) {}

  /// Buffers one node's scrape for the epoch being assembled.
  void ingest(NodeHealthSample sample);

  /// Latest mesh-level propagation rollup (from a PropagationAssembler
  /// summary); stamped onto every subsequently closed row until updated.
  /// p95 is in milliseconds of virtual time.
  void set_propagation(double p95_ms, double redundancy, double reachability,
                       std::uint64_t incomplete_trees);

  /// Folds every buffered sample into one FleetEpochSeries row for
  /// `epoch`, appends it to history, and clears the buffer. Returns
  /// nullptr when nothing was ingested since the last close.
  const FleetEpochSeries* close_epoch(std::uint64_t epoch);

  [[nodiscard]] const std::vector<FleetEpochSeries>& history() const {
    return history_;
  }
  [[nodiscard]] const FleetEpochSeries* latest() const {
    return history_.empty() ? nullptr : &history_.back();
  }

  /// Prometheus text for the latest row (waku_fleet_* families); empty
  /// until the first close_epoch.
  [[nodiscard]] std::string to_prometheus() const;
  /// JSON array of every retained row, oldest first — the fleet-health
  /// timeline embedded in scenario verdicts.
  [[nodiscard]] std::string timeline_json() const;

 private:
  FleetAggregatorConfig config_;
  std::vector<NodeHealthSample> pending_;
  std::vector<FleetEpochSeries> history_;
  double propagation_p95_ms_ = 0.0;
  double propagation_redundancy_ = 0.0;
  double propagation_reachability_ = 1.0;
  std::uint64_t propagation_incomplete_ = 0;
};

// -- Declarative SLO rules ----------------------------------------------------

enum class AnomalyRule : std::uint8_t {
  kDeliverySloBurn = 0,        ///< honest delivery below the SLO
  kP95BudgetBreach = 1,        ///< worst shard p95 past the latency budget
  kContainmentRegression = 2,  ///< spam containment slipping
  kMemorySlope = 3,            ///< nullifier-log growth past the cap
  kPropagationLatency = 4,     ///< mesh publish->delivery p95 past budget
};

[[nodiscard]] const char* anomaly_rule_name(AnomalyRule rule);

struct AnomalyEngineConfig {
  double delivery_slo = 0.99;          ///< the paper's >=99% bound
  double p95_budget_ms = 250.0;        ///< matches ShardLoadTracker's budget
  double containment_floor = 0.99;
  double log_growth_cap = 4096.0;      ///< entries/epoch
  /// Mesh-level publish->last-delivery p95 budget (virtual ms). Looser
  /// than the per-shard validate budget: propagation spans hops. A row
  /// with propagation_p95_ms == 0 (no tracing lane) is always healthy.
  double propagation_p95_budget_ms = 750.0;
  /// Consecutive bad epochs before a rule fires / good epochs before it
  /// clears — the hysteresis that keeps one noisy epoch from flapping.
  std::size_t trip_epochs = 2;
  std::size_t clear_epochs = 2;
};

struct AnomalyVerdict {
  AnomalyRule rule = AnomalyRule::kDeliverySloBurn;
  std::uint64_t epoch = 0;
  bool firing = false;
  bool changed = false;  ///< firing state flipped at this evaluation
  double observed = 0.0;
  double threshold = 0.0;
};

class AnomalyEngine {
 public:
  AnomalyEngine() = default;
  explicit AnomalyEngine(AnomalyEngineConfig config) : config_(config) {}

  /// Evaluates every rule against one series row; returns one verdict per
  /// rule (in AnomalyRule order) with the hysteresis state advanced.
  std::vector<AnomalyVerdict> evaluate(const FleetEpochSeries& series);

  [[nodiscard]] bool any_firing() const;
  [[nodiscard]] bool firing(AnomalyRule rule) const {
    return rules_[static_cast<std::size_t>(rule)].firing;
  }
  /// Total fire transitions (off -> on) across all rules.
  [[nodiscard]] std::uint64_t fired_total() const { return fired_total_; }
  [[nodiscard]] const AnomalyEngineConfig& config() const { return config_; }

 private:
  struct RuleState {
    std::size_t consecutive_bad = 0;
    std::size_t consecutive_good = 0;
    bool firing = false;
  };
  static constexpr std::size_t kRules = 5;

  AnomalyVerdict step(AnomalyRule rule, std::uint64_t epoch, bool bad,
                      double observed, double threshold);

  AnomalyEngineConfig config_;
  RuleState rules_[kRules];
  std::uint64_t fired_total_ = 0;
};

}  // namespace waku::obs

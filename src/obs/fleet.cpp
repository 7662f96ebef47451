#include "obs/fleet.hpp"

#include <algorithm>

#include "obs/json.hpp"
#include "obs/telemetry.hpp"

namespace waku::obs {

std::string FleetEpochSeries::to_json() const {
  JsonWriter w;
  w.obj().key("epoch").u64(epoch).key("nodes_reporting").u64(nodes_reporting);
  w.key("honest_delivery_ratio").num(honest_delivery_ratio);
  w.key("containment_ratio").num(containment_ratio);
  w.key("containment_drift").num(containment_drift);
  w.key("p95_spread_ms").num(p95_spread_ms).key("max_p95_ms").num(max_p95_ms);
  w.key("quota_saturation").num(quota_saturation);
  w.key("total_log_entries").u64(total_log_entries);
  w.key("log_growth_per_epoch").num(log_growth_per_epoch);
  w.key("executor_rejected").u64(executor_rejected);
  w.key("propagation_p95_ms").num(propagation_p95_ms);
  w.key("propagation_redundancy").num(propagation_redundancy);
  w.key("propagation_reachability").num(propagation_reachability);
  w.key("propagation_incomplete").u64(propagation_incomplete);
  return std::move(w).take();
}

void FleetAggregator::ingest(NodeHealthSample sample) {
  pending_.push_back(std::move(sample));
}

void FleetAggregator::set_propagation(double p95_ms, double redundancy,
                                      double reachability,
                                      std::uint64_t incomplete_trees) {
  propagation_p95_ms_ = p95_ms;
  propagation_redundancy_ = redundancy;
  propagation_reachability_ = reachability;
  propagation_incomplete_ = incomplete_trees;
}

const FleetEpochSeries* FleetAggregator::close_epoch(std::uint64_t epoch) {
  if (pending_.empty()) return nullptr;

  FleetEpochSeries row;
  row.epoch = epoch;
  row.nodes_reporting = pending_.size();

  std::uint64_t honest_delivered = 0;
  std::uint64_t honest_ideal = 0;
  std::uint64_t spam_sent = 0;
  std::uint64_t spam_delivered = 0;
  double saturation_sum = 0.0;
  double min_p95 = 0.0;
  double max_p95 = 0.0;
  bool any_p95 = false;
  for (const NodeHealthSample& s : pending_) {
    honest_delivered += s.honest_delivered;
    honest_ideal += s.honest_ideal;
    spam_sent += s.spam_sent;
    spam_delivered += s.spam_delivered;
    row.total_log_entries += s.log_entries;
    row.executor_rejected += s.executor_rejected;
    saturation_sum += s.quota_saturation;
    for (const ShardHealth& sh : s.shards) {
      if (sh.p95_validate_ms <= 0.0) continue;  // shard never reported
      if (!any_p95) {
        min_p95 = max_p95 = sh.p95_validate_ms;
        any_p95 = true;
      } else {
        min_p95 = std::min(min_p95, sh.p95_validate_ms);
        max_p95 = std::max(max_p95, sh.p95_validate_ms);
      }
    }
  }
  if (honest_ideal > 0) {
    row.honest_delivery_ratio = static_cast<double>(honest_delivered) /
                                static_cast<double>(honest_ideal);
  }
  if (spam_sent > 0) {
    row.containment_ratio = 1.0 - static_cast<double>(spam_delivered) /
                                      static_cast<double>(spam_sent);
  }
  if (any_p95) {
    row.p95_spread_ms = max_p95 - min_p95;
    row.max_p95_ms = max_p95;
  }
  row.quota_saturation =
      saturation_sum / static_cast<double>(row.nodes_reporting);
  row.propagation_p95_ms = propagation_p95_ms_;
  row.propagation_redundancy = propagation_redundancy_;
  row.propagation_reachability = propagation_reachability_;
  row.propagation_incomplete = propagation_incomplete_;
  if (!history_.empty()) {
    const FleetEpochSeries& prev = history_.back();
    row.containment_drift = prev.containment_ratio - row.containment_ratio;
    row.log_growth_per_epoch =
        static_cast<double>(row.total_log_entries) -
        static_cast<double>(prev.total_log_entries);
  }
  pending_.clear();
  history_.push_back(row);
  while (history_.size() > config_.history) {
    history_.erase(history_.begin());
  }
  return &history_.back();
}

std::string FleetAggregator::to_prometheus() const {
  if (history_.empty()) return {};
  const FleetEpochSeries& row = history_.back();
  PrometheusWriter w;
  w.help_type("waku_fleet_epoch", "gauge", "Epoch of the latest fleet row");
  w.gauge("waku_fleet_epoch", "", static_cast<double>(row.epoch));
  w.help_type("waku_fleet_nodes_reporting", "gauge",
              "Nodes scraped into the latest fleet row");
  w.gauge("waku_fleet_nodes_reporting", "",
          static_cast<double>(row.nodes_reporting));
  w.help_type("waku_fleet_honest_delivery_ratio", "gauge",
              "Cross-node honest delivered/ideal (1 when ideal unknown)");
  w.gauge("waku_fleet_honest_delivery_ratio", "", row.honest_delivery_ratio);
  w.help_type("waku_fleet_containment_ratio", "gauge",
              "1 - spam delivered/sent across the fleet");
  w.gauge("waku_fleet_containment_ratio", "", row.containment_ratio);
  w.help_type("waku_fleet_containment_drift", "gauge",
              "Containment change vs the previous epoch (positive = worse)");
  w.gauge("waku_fleet_containment_drift", "", row.containment_drift);
  w.help_type("waku_fleet_p95_spread_seconds", "gauge",
              "Max - min per-shard validate p95 across nodes");
  w.gauge("waku_fleet_p95_spread_seconds", "", row.p95_spread_ms * 1e-3);
  w.help_type("waku_fleet_p95_max_seconds", "gauge",
              "Worst per-shard validate p95 across nodes");
  w.gauge("waku_fleet_p95_max_seconds", "", row.max_p95_ms * 1e-3);
  w.help_type("waku_fleet_quota_saturation", "gauge",
              "Mean fraction of per-shard publish quota consumed");
  w.gauge("waku_fleet_quota_saturation", "", row.quota_saturation);
  w.help_type("waku_fleet_log_entries", "gauge",
              "Total nullifier-log entries across the fleet");
  w.gauge("waku_fleet_log_entries", "",
          static_cast<double>(row.total_log_entries));
  w.help_type("waku_fleet_log_growth_per_epoch", "gauge",
              "Fleet nullifier-log entry delta vs the previous epoch");
  w.gauge("waku_fleet_log_growth_per_epoch", "", row.log_growth_per_epoch);
  w.help_type("waku_fleet_executor_rejected_total", "counter",
              "Backpressure-rejected windows across the fleet");
  w.counter("waku_fleet_executor_rejected_total", "", row.executor_rejected);
  w.help_type("waku_propagation_p95_seconds", "gauge",
              "Mesh publish->last-delivery p95 from assembled trace trees");
  w.gauge("waku_propagation_p95_seconds", "", row.propagation_p95_ms * 1e-3);
  w.help_type("waku_propagation_redundancy_ratio", "gauge",
              "Duplicate rx / useful rx across assembled trees");
  w.gauge("waku_propagation_redundancy_ratio", "", row.propagation_redundancy);
  w.help_type("waku_propagation_reachability", "gauge",
              "Delivered / subscribed across assembled trees");
  w.gauge("waku_propagation_reachability", "", row.propagation_reachability);
  w.help_type("waku_propagation_incomplete_trees", "gauge",
              "Sampled trees the assembler could not fully reconstruct");
  w.gauge("waku_propagation_incomplete_trees", "",
          static_cast<double>(row.propagation_incomplete));
  return w.text();
}

std::string FleetAggregator::timeline_json() const {
  JsonWriter w;
  w.arr();
  for (const FleetEpochSeries& row : history_) w.raw(row.to_json());
  return std::move(w).take();
}

// -- AnomalyEngine ------------------------------------------------------------

const char* anomaly_rule_name(AnomalyRule rule) {
  switch (rule) {
    case AnomalyRule::kDeliverySloBurn:
      return "delivery_slo_burn";
    case AnomalyRule::kP95BudgetBreach:
      return "p95_budget_breach";
    case AnomalyRule::kContainmentRegression:
      return "containment_regression";
    case AnomalyRule::kMemorySlope:
      return "memory_slope";
    case AnomalyRule::kPropagationLatency:
      return "propagation_latency";
  }
  return "unknown";
}

AnomalyVerdict AnomalyEngine::step(AnomalyRule rule, std::uint64_t epoch,
                                   bool bad, double observed,
                                   double threshold) {
  RuleState& st = rules_[static_cast<std::size_t>(rule)];
  if (bad) {
    ++st.consecutive_bad;
    st.consecutive_good = 0;
  } else {
    ++st.consecutive_good;
    st.consecutive_bad = 0;
  }
  bool changed = false;
  if (!st.firing && st.consecutive_bad >= config_.trip_epochs) {
    st.firing = true;
    changed = true;
    ++fired_total_;
  } else if (st.firing && st.consecutive_good >= config_.clear_epochs) {
    st.firing = false;
    changed = true;
  }
  AnomalyVerdict v;
  v.rule = rule;
  v.epoch = epoch;
  v.firing = st.firing;
  v.changed = changed;
  v.observed = observed;
  v.threshold = threshold;
  return v;
}

std::vector<AnomalyVerdict> AnomalyEngine::evaluate(
    const FleetEpochSeries& s) {
  std::vector<AnomalyVerdict> out;
  out.reserve(kRules);
  out.push_back(step(AnomalyRule::kDeliverySloBurn, s.epoch,
                     s.honest_delivery_ratio < config_.delivery_slo,
                     s.honest_delivery_ratio, config_.delivery_slo));
  out.push_back(step(AnomalyRule::kP95BudgetBreach, s.epoch,
                     s.max_p95_ms > config_.p95_budget_ms, s.max_p95_ms,
                     config_.p95_budget_ms));
  out.push_back(step(AnomalyRule::kContainmentRegression, s.epoch,
                     s.containment_ratio < config_.containment_floor,
                     s.containment_ratio, config_.containment_floor));
  out.push_back(step(AnomalyRule::kMemorySlope, s.epoch,
                     s.log_growth_per_epoch > config_.log_growth_cap,
                     s.log_growth_per_epoch, config_.log_growth_cap));
  out.push_back(step(AnomalyRule::kPropagationLatency, s.epoch,
                     s.propagation_p95_ms > config_.propagation_p95_budget_ms,
                     s.propagation_p95_ms, config_.propagation_p95_budget_ms));
  return out;
}

bool AnomalyEngine::any_firing() const {
  for (const RuleState& st : rules_) {
    if (st.firing) return true;
  }
  return false;
}

}  // namespace waku::obs

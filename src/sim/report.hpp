// Per-scenario verdicts: the containment numbers the paper's claims are
// judged on, computed by Scenario::run() and exported as JSON (single
// report or a campaign file the perf trajectory tracks).
//
//   spam_containment_ratio   spam deliveries at honest nodes, normalized
//                            per honest node per spam message — 0 is
//                            perfect containment, 1 means every spam
//                            message reached every honest node;
//   time_to_slash            first MemberSlashed after the attack began;
//   honest_delivery_ratio    honest deliveries at honest nodes over the
//                            ideal (every sender reaches every honest
//                            node, sender included);
//   honest_false_positive_rate  honest members slashed / honest members.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "rln/node.hpp"

namespace waku::sim {

/// Flat JSON object writer shared by every verdict, outcome and metrics
/// export: `"key": value` pairs joined by ", ". Keys are code-controlled
/// identifiers, emitted without escaping; doubles print through the
/// caller's printf format ("%.4f", "%.6g", ...).
class JsonObject {
 public:
  JsonObject& integer(std::string_view key, std::uint64_t v) {
    return add(key, std::to_string(v));
  }
  JsonObject& number(std::string_view key, double v, const char* format);
  JsonObject& boolean(std::string_view key, bool v) {
    return add(key, v ? "true" : "false");
  }
  JsonObject& string(std::string_view key, const std::string& v) {
    return add(key, "\"" + v + "\"");
  }
  /// `null` when empty.
  JsonObject& optional(std::string_view key,
                       const std::optional<std::uint64_t>& v) {
    return add(key, v.has_value() ? std::to_string(*v) : "null");
  }
  /// Pre-rendered JSON; `fallback` when `json` is empty.
  JsonObject& raw(std::string_view key, const std::string& json,
                  const char* fallback) {
    return add(key, json.empty() ? fallback : json);
  }
  JsonObject& integers(std::string_view key,
                       const std::vector<std::uint64_t>& v);
  JsonObject& numbers(std::string_view key, const std::vector<double>& v,
                      const char* format);
  [[nodiscard]] std::string str() const { return out_ + "}"; }

 private:
  JsonObject& add(std::string_view key, const std::string& value);

  std::string out_ = "{";
};

/// Per-adversary breakdown for coalition campaigns (several strategies
/// attacking in one scenario): each strategy gets its own slash
/// attribution and latency so one verdict JSON answers "who was caught,
/// and how fast" per attacker, not just in aggregate.
struct AdversaryVerdict {
  std::string name;
  std::uint64_t spam_sent = 0;
  std::uint64_t controlled_nodes = 0;
  std::uint64_t slashes = 0;  ///< MemberSlashed on this adversary's indices
  std::optional<std::uint64_t> time_to_slash_ms;

  [[nodiscard]] std::string to_json() const;
};

struct ScenarioVerdict {
  std::string scenario;
  std::uint64_t seed = 0;
  std::uint64_t nodes = 0;
  std::uint64_t honest_nodes = 0;
  std::uint64_t adversary_nodes = 0;

  std::uint64_t spam_sent = 0;
  std::uint64_t spam_delivered_honest = 0;
  double spam_containment_ratio = 0;

  std::uint64_t honest_sent = 0;
  std::uint64_t honest_delivered_honest = 0;
  double honest_delivery_ratio = 0;

  std::uint64_t slashes = 0;
  std::uint64_t adversary_slashes = 0;
  std::uint64_t honest_slashes = 0;
  double honest_false_positive_rate = 0;
  std::uint64_t withdrawals = 0;

  std::optional<std::uint64_t> time_to_slash_ms;
  std::optional<std::uint64_t> time_to_slash_epochs;

  /// One entry per distinct adversary in the campaign (coalitions get one
  /// each); empty for adversary-free scenarios.
  std::vector<AdversaryVerdict> per_adversary;

  /// Per-epoch fleet-health rows (obs::FleetAggregator::timeline_json):
  /// honest-delivery ratio, containment drift, p95 spread, quota
  /// saturation, log growth — the whole campaign's trajectory, not just
  /// the end-of-run numbers above. A JSON array; "[]" when the scenario
  /// never sampled an epoch.
  std::string fleet_timeline_json = "[]";

  /// Cross-node propagation rollup (obs::PropagationAssembler
  /// summary_json): tree counts, publish->delivery quantiles, hop
  /// histogram, redundancy, reachability, plus per-tree detail. "{}"
  /// when the scenario ran without tracing (sample_every == 0).
  std::string propagation_json = "{}";

  [[nodiscard]] std::string to_json() const;
};

struct Report {
  ScenarioVerdict verdict;
  /// Field-wise sum of the live nodes' telemetry().snapshot()s at
  /// scenario end: the same counters each node exports, fleet-wide.
  rln::NodeTelemetrySnapshot deployment;
  net::TrafficStats traffic;  ///< network().total_stats() at scenario end

  /// {"verdict": {...}, "metrics": {"node", "router", "pipeline",
  /// "executor", "trace", "operator" (each as in metrics_json()), "net"}}
  [[nodiscard]] std::string to_json() const;
};

}  // namespace waku::sim

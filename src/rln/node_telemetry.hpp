// NodeTelemetry: the node's observability part (src/obs wired to one
// node). It owns the metric registry, the resolved telemetry clock, the
// per-shard stage-histogram bundles, the sampled-span TraceCollector, the
// flight recorder, the single-node self-monitor (FleetAggregator +
// AnomalyEngine) and the last postmortem, and renders the node's
// Prometheus / JSON exposition from one coherent NodeTelemetrySnapshot.
//
// The node calls it where telemetry happens (validator wiring, the relay's
// validate/deliver callbacks, publish, the upkeep tick, lifecycle events);
// callers reach it through WakuRlnRelayNode::telemetry(). Nothing here
// feeds a protocol decision except the anomaly flags the operator loop
// reads, and every timestamp comes from the resolved clock, so telemetry-on
// runs under the simulator stay byte-identical.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/config.hpp"
#include "obs/fleet.hpp"
#include "obs/recorder.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "rln/operator_loop.hpp"
#include "rln/validation_pipeline.hpp"
#include "shard/sharded_validator.hpp"
#include "waku/relay.hpp"

namespace waku::rln {

struct NodeStats {
  std::uint64_t published = 0;
  std::uint64_t publish_rate_limited = 0;  ///< honest self-throttle hits
  std::uint64_t publish_wrong_shard = 0;   ///< publishes on unhosted shards
  std::uint64_t delivered = 0;
  std::uint64_t slash_commits = 0;
  std::uint64_t slash_reveals = 0;
  std::uint64_t slash_rewards = 0;  ///< MemberSlashed where we were payee
  std::uint64_t slashes_expired = 0;  ///< pending slashes dropped by expiry
};

/// One coherent read of every counter family the node maintains: what
/// metrics_{text,json}() render, and what a deployment sums (operator+=)
/// into a fleet-wide view that renders through the same tables.
struct NodeTelemetrySnapshot {
  gossipsub::RouterStats router;
  NodeStats node;
  ValidatorStats pipeline;  ///< aggregate across subscribed shards
  ExecutorStats executor;
  std::map<shard::ShardId, ValidatorStats> per_shard;
  std::uint64_t graylisted = 0;  ///< peers currently below the graylist bar
  std::uint64_t pending_validation = 0;  ///< messages buffered in windows
  obs::TraceCollectorStats trace;
  std::uint64_t trace_open = 0;  ///< lifecycle spans currently open
  OperatorLoop::Bookkeeping operator_loop;
  std::uint64_t flight_recorded = 0;  ///< flight-recorder events, ever
  std::uint64_t flight_evicted = 0;   ///< ... dropped off the ring
  std::uint64_t anomalies_fired = 0;  ///< self-monitor fire transitions

  /// Accumulates `o` by the merge rule of each exported scalar (counters
  /// and gauges sum, the operator's last_action_epoch takes the maximum),
  /// plus ValidatorStats::operator+= for the pipeline and per shard id.
  /// Sub-struct fields that are never exported (RouterStats::ihave_sent,
  /// Bookkeeping::phase_entered_epoch, ...) are not merged.
  NodeTelemetrySnapshot& operator+=(const NodeTelemetrySnapshot& o);
};

/// One section of metrics_json() rendered from `t` alone ("node",
/// "router", "pipeline", "executor", "trace" or "operator") as a JSON
/// object, so a deployment-wide sum renders exactly as one node does.
[[nodiscard]] std::string telemetry_section_json(
    const NodeTelemetrySnapshot& t, std::string_view section);

class NodeTelemetry {
 public:
  /// What the snapshot reads besides the part's own state. `validator`
  /// is the node's current-generation container member: the drop-old swap
  /// move-assigns into it, so the reference stays valid.
  struct Sources {
    const WakuRelay& relay;
    const shard::ShardedValidator& validator;
    const NodeStats& stats;
    const OperatorLoop& operator_loop;
  };

  /// `virtual_now_ns` is the node's own virtual time, the clock when
  /// ObsConfig::clock is null; with `persist_dir` set, postmortems are
  /// also written to `<persist_dir>/postmortem.json`.
  NodeTelemetry(const obs::ObsConfig& config, const std::string& persist_dir,
                std::function<std::uint64_t()> virtual_now_ns,
                Sources sources);

  // -- Wiring (called by the node) -------------------------------------------

  /// Points `validator`'s executor and every subscribed pipeline at the
  /// clock and the shard's stage histograms. The bundles are shared across
  /// pipeline generations of the same shard id, so a live reshard extends
  /// a shard's series instead of forking it.
  void attach(shard::ShardedValidator& validator);
  /// `msg`'s trace key when tracing is on and the key samples into the
  /// 1-in-N, else nullopt: the one check per message, so unsampled
  /// messages pay only the key hash and never a detail string or a clock
  /// read.
  [[nodiscard]] std::optional<obs::TraceKey> sampled_key(
      const WakuMessage& msg) const;
  /// Appends a span event / closes the span of a key sampled_key() gave.
  void trace(obs::TraceKey key, const char* stage, std::string detail);
  void finish(obs::TraceKey key, std::string outcome);
  /// With tracing on, installs the router's hop-direction hook: the
  /// router alone sees which peer an outbound publish targets ("fwd") or
  /// which peer a duplicate came from ("dup").
  void trace_hops(gossipsub::GossipSubRouter& router);
  /// Appends one lifecycle event to the flight recorder (no-op with
  /// telemetry disabled: the recorder follows the obs master switch).
  void record_flight(std::uint64_t epoch, const char* kind,
                     std::string detail);
  /// Per-epoch self-monitor step (no-op with telemetry disabled): the
  /// executor's new backpressure rejects become a flight event, and
  /// `sample()` folds through the single-node FleetAggregator +
  /// AnomalyEngine; fire transitions land in the flight recorder and
  /// trigger a postmortem.
  void end_epoch(std::uint64_t epoch,
                 const std::function<obs::NodeHealthSample()>& sample);
  /// Renders the flight recorder's postmortem into last_postmortem()
  /// and, for persistent nodes, `<persist_dir>/postmortem.json`.
  void dump_postmortem(const std::string& reason);
  /// The shard's p95 whole-window validation latency in ms (0 until the
  /// shard validated anything, or with telemetry off).
  [[nodiscard]] double shard_p95_validate_ms(shard::ShardId shard) const;
  [[nodiscard]] const obs::AnomalyEngine& anomalies() const {
    return anomaly_;
  }

  // -- Reading ---------------------------------------------------------------

  /// Coherent counter snapshot across every subsystem (also what the
  /// node's health_sample() reads).
  [[nodiscard]] NodeTelemetrySnapshot snapshot() const;
  /// Prometheus text exposition: the node/router/executor/trace/operator
  /// scalars, per-shard verdict-reason counters and pipeline families,
  /// root-cache counters, executor lane queue-wait / service-time
  /// histograms and depth high-watermarks, per-stage p50/p95/p99 quantile
  /// gauges, then the self-monitor fleet families and the registry's
  /// histograms. Lintable by scripts/check_metrics_format.py.
  [[nodiscard]] std::string metrics_text() const;
  /// The same data as one JSON object (histogram quantiles included).
  [[nodiscard]] std::string metrics_json() const;

  /// A registry histogram, registered on first use (the stage series are
  /// "waku_pipeline_stage_seconds" / "waku_pipeline_validate_seconds").
  obs::Histogram& histogram(const std::string& family,
                            const std::string& labels = "") {
    return registry_.histogram(family, labels);
  }
  /// The clock telemetry reads (virtual time under the simulator);
  /// nullptr when telemetry is disabled.
  [[nodiscard]] const obs::Clock* clock() const { return clock_; }
  /// Sampled message-lifecycle spans (1-in-N; see ObsConfig::trace).
  [[nodiscard]] const obs::TraceCollector& tracer() const { return tracer_; }
  /// Every retained sampled trace (completed ring then slow ring) — the
  /// per-node dump a cross-node obs::PropagationAssembler ingests tagged
  /// with the node id. Ring overlap is fine: assembler ingestion is
  /// idempotent per (node, key) and keeps the richest version.
  [[nodiscard]] std::vector<obs::Trace> trace_dump() const;
  /// Bounded ring of structured lifecycle events (reshard transitions,
  /// slashes, backpressure, anomaly firings, operator decisions).
  [[nodiscard]] const obs::FlightRecorder& flight_recorder() const {
    return recorder_;
  }
  /// The most recent postmortem dump ("" until an anomaly fires or a
  /// crash-restart is detected).
  [[nodiscard]] const std::string& last_postmortem() const {
    return last_postmortem_;
  }
  /// Feeds the latest mesh-level propagation rollup (from an assembler
  /// summary) into the self-monitor, arming the propagation-latency SLO
  /// rule for the operator loop. Harness-fed; a standalone node leaves it
  /// unset and the rule stays healthy.
  void set_propagation_health(double p95_ms, double redundancy,
                              double reachability,
                              std::uint64_t incomplete_trees) {
    self_fleet_.set_propagation(p95_ms, redundancy, reachability,
                                incomplete_trees);
  }

 private:
  /// The shard's stage-histogram bundle, registering the series on first
  /// use. Address-stable (node-based map).
  [[nodiscard]] PipelineMetrics& metrics_for_shard(shard::ShardId shard);

  Sources src_;
  std::string postmortem_path_;  ///< "" for ephemeral nodes
  obs::Telemetry registry_;
  obs::TraceCollector tracer_;
  /// Owns the default virtual-time clock when ObsConfig::clock is null.
  std::unique_ptr<obs::FnClock> sim_clock_;
  /// What the pipelines/executor read; nullptr = telemetry disabled (the
  /// hot paths then skip every clock read).
  const obs::Clock* clock_ = nullptr;
  std::map<shard::ShardId, PipelineMetrics> pipeline_metrics_;

  obs::FlightRecorder recorder_;
  /// Single-node aggregator + SLO rules over this node's own epoch rows
  /// (the fleet-wide instance lives in the sim/deployment layer).
  obs::FleetAggregator self_fleet_;
  obs::AnomalyEngine anomaly_;
  std::string last_postmortem_;
  /// Last executor rejected-counter value seen by end_epoch; the delta
  /// per epoch becomes a backpressure flight event.
  std::uint64_t executor_rejected_seen_ = 0;
};

}  // namespace waku::rln

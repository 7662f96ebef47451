#include "rln/node_telemetry.hpp"

#include <algorithm>
#include <cstdio>

#include "waku/message.hpp"

namespace waku::rln {

namespace {

using S = NodeTelemetrySnapshot;

/// How one scalar is read from a snapshot and merged into a sum.
struct ScalarAccess {
  std::uint64_t (*get)(const S&);
  void (*merge)(S&, const S&);
};
/// The merge rules; `Path` is the member-pointer path from the snapshot
/// to the field. sum: counters and gauges add across nodes...
template <auto... Path>
constexpr ScalarAccess sum{
    [](const S& t) -> std::uint64_t { return (t .* ... .* Path); },
    [](S& t, const S& o) { (t .* ... .* Path) += (o .* ... .* Path); }};
/// ...max: an epoch anchor keeps the latest node's value.
template <auto... Path>
constexpr ScalarAccess max{
    [](const S& t) -> std::uint64_t { return (t .* ... .* Path); },
    [](S& t, const S& o) {
      (t .* ... .* Path) = std::max((t .* ... .* Path), (o .* ... .* Path));
    }};

using Router = gossipsub::RouterStats;
using Executor = ExecutorStats;
using TraceStats = obs::TraceCollectorStats;
using Operator = OperatorLoop::Bookkeeping;

/// One node-level scalar: the single list that metrics_text() and
/// telemetry_section_json() render and that operator+= merges.
struct ScalarField {
  const char* section;    ///< metrics_json() object
  const char* json_key;   ///< nullptr: Prometheus only
  const char* prom_name;  ///< nullptr: JSON only
  bool gauge;             ///< Prometheus type (else counter)
  const char* help;
  ScalarAccess at;
};

// Row order is exposition order within each section.
constexpr ScalarField kScalarFields[] = {
    {"node", "published", "waku_node_published_total", false,
     "Messages this node published", sum<&S::node, &NodeStats::published>},
    {"node", "publish_rate_limited", "waku_node_publish_rate_limited_total",
     false, "Honest publishes refused by the 1-per-epoch-per-shard quota",
     sum<&S::node, &NodeStats::publish_rate_limited>},
    {"node", "publish_wrong_shard", "waku_node_publish_wrong_shard_total",
     false, "Publishes refused: topic maps to an unhosted shard",
     sum<&S::node, &NodeStats::publish_wrong_shard>},
    {"node", "delivered", "waku_node_delivered_total", false,
     "Validated messages delivered locally",
     sum<&S::node, &NodeStats::delivered>},
    {"node", "slash_commits", "waku_node_slash_commits_total", false,
     "Slash commitments submitted", sum<&S::node, &NodeStats::slash_commits>},
    {"node", "slash_reveals", "waku_node_slash_reveals_total", false,
     "Slash reveals submitted", sum<&S::node, &NodeStats::slash_reveals>},
    {"node", "slash_rewards", "waku_node_slash_rewards_total", false,
     "MemberSlashed events paying us",
     sum<&S::node, &NodeStats::slash_rewards>},
    {"node", "slashes_expired", "waku_node_slashes_expired_total", false,
     "Pending slashes dropped by the expiry window",
     sum<&S::node, &NodeStats::slashes_expired>},

    {"router", "delivered", "waku_router_delivered_total", false,
     "Unique valid messages delivered", sum<&S::router, &Router::delivered>},
    {"router", "duplicates", "waku_router_duplicates_total", false,
     "Already-seen publishes received", sum<&S::router, &Router::duplicates>},
    {"router", "rejected", "waku_router_rejected_total", false,
     "Validation rejects", sum<&S::router, &Router::rejected>},
    {"router", "ignored", "waku_router_ignored_total", false,
     "Validation ignores", sum<&S::router, &Router::ignored>},
    {"router", "forwarded", "waku_router_forwarded_total", false,
     "Publishes relayed onward", sum<&S::router, &Router::forwarded>},
    {"router", "validation_windows_flushed",
     "waku_router_validation_windows_flushed_total", false,
     "Batched-validation windows handed to a validator",
     sum<&S::router, &Router::validation_windows_flushed>},
    {"router", "pending_validation", "waku_router_pending_validation", true,
     "Messages buffered awaiting batched validation",
     sum<&S::pending_validation>},
    {"router", nullptr, "waku_score_graylisted", true,
     "Peers currently below the graylist threshold", sum<&S::graylisted>},

    {"executor", "submitted", "waku_executor_submitted_total", false,
     "Windows accepted (queued or inline)",
     sum<&S::executor, &Executor::submitted>},
    {"executor", "executed", "waku_executor_executed_total", false,
     "Windows completed", sum<&S::executor, &Executor::executed>},
    {"executor", "rejected", "waku_executor_rejected_total", false,
     "Windows refused by backpressure", sum<&S::executor, &Executor::rejected>},
    {"executor", "blocked", "waku_executor_blocked_total", false,
     "Submits that waited on a full queue",
     sum<&S::executor, &Executor::blocked>},
    {"executor", "workers", "waku_executor_workers", true,
     "Worker pool size (0 = deterministic/inline)",
     sum<&S::executor, &Executor::workers>},

    {"trace", "sampled", "waku_trace_sampled_total", false,
     "Lifecycle spans opened", sum<&S::trace, &TraceStats::sampled>},
    {"trace", "finished", "waku_trace_finished_total", false,
     "Spans closed normally", sum<&S::trace, &TraceStats::finished>},
    {"trace", "evicted", "waku_trace_evicted_total", false,
     "Completed-ring evictions", sum<&S::trace, &TraceStats::evicted>},
    {"trace", "truncated", "waku_trace_truncated_total", false,
     "Open spans force-closed (cap hit)",
     sum<&S::trace, &TraceStats::truncated>},
    {"trace", "open", "waku_trace_open", true, "Spans currently open",
     sum<&S::trace_open>},

    // Operator loop / flight recorder / self-monitor anomalies.
    {"operator", "decisions", "waku_operator_decisions_total", false,
     "Autonomous operator begin/advance decisions",
     sum<&S::operator_loop, &Operator::decisions>},
    {"operator", "last_action_epoch", nullptr, false, nullptr,
     max<&S::operator_loop, &Operator::last_action_epoch>},
    {"operator", "consecutive_recommend", nullptr, false, nullptr,
     sum<&S::operator_loop, &Operator::consecutive_recommend>},
    {"operator", "flight_recorded", "waku_flight_events_total", false,
     "Lifecycle events recorded to the flight ring", sum<&S::flight_recorded>},
    {"operator", "flight_evicted", "waku_flight_evicted_total", false,
     "Flight events dropped off the bounded ring", sum<&S::flight_evicted>},
    {"operator", "anomalies_fired", "waku_anomaly_fired_total", false,
     "Self-monitor anomaly rule fire transitions", sum<&S::anomalies_fired>},
};

/// The exported ValidatorStats fields, in exposition order: the
/// waku_pipeline_verdicts_total reason series, the per-shard families, and
/// the keys of metrics_json()'s deployment-wide "pipeline" section.
using V = ValidatorStats;
struct PipelineField {
  std::uint64_t V::* field;
  const char* json_key;   ///< nullptr: Prometheus only
  const char* reason;     ///< verdict reason label, else...
  const char* prom_name;  ///< ...a per-shard family of its own
  bool gauge;
  const char* help;
};
constexpr PipelineField kPipelineFields[] = {
    {&V::accepted, "accepted", "accept", nullptr, false, nullptr},
    {&V::epoch_gap, "epoch_gap", "epoch_gap", nullptr, false, nullptr},
    {&V::duplicates, "duplicates", "duplicate", nullptr, false, nullptr},
    {&V::no_proof, "no_proof", "no_proof", nullptr, false, nullptr},
    {&V::bad_proof, "bad_proof", "bad_proof", nullptr, false, nullptr},
    {&V::stale_root, "stale_root", "stale_root", nullptr, false, nullptr},
    {&V::spam_detected, "spam_detected", "spam", nullptr, false, nullptr},
    {&V::batches, "batches", nullptr, "waku_pipeline_batches_total", false,
     "validate_batch windows run"},
    {&V::batch_aggregated, "batch_aggregated", nullptr,
     "waku_pipeline_batch_aggregated_total", false,
     "Windows settled by one RLC-aggregated Groth16 check"},
    {&V::batch_fallbacks, "batch_fallbacks", nullptr,
     "waku_pipeline_batch_fallbacks_total", false,
     "Windows that isolated per proof"},
    {&V::miller_loops, "miller_loops", nullptr,
     "waku_pipeline_miller_loops_total", false,
     "Miller loops the Groth16 stage priced"},
    {&V::final_exps, "final_exps", nullptr, "waku_pipeline_final_exps_total",
     false, "Final exponentiations the Groth16 stage priced"},
    {&V::precheck_duplicates, "precheck_duplicates", nullptr,
     "waku_pipeline_precheck_duplicates_total", false,
     "Gossip echoes dropped before the verifier"},
    {&V::log_entries, "log_entries", nullptr, "waku_nullifier_log_entries",
     true, "Live (epoch, nullifier) records"},
    {&V::log_buckets, nullptr, nullptr, "waku_nullifier_log_buckets", true,
     "Live epoch buckets"},
    {&V::log_conflicts, "log_conflicts", nullptr,
     "waku_nullifier_log_conflicts_total", false, "Double-signals observed"},
    {&V::log_min_epoch, nullptr, nullptr, "waku_nullifier_log_min_epoch", true,
     "GC watermark"},
};

/// The pipeline stages with a latency histogram, in registration and
/// exposition order.
struct StageRef {
  const char* name;
  obs::Histogram* PipelineMetrics::* member;
};
constexpr StageRef kStages[] = {
    {"epoch_gate", &PipelineMetrics::epoch_gate},
    {"root_check", &PipelineMetrics::root_check},
    {"nullifier_precheck", &PipelineMetrics::nullifier_precheck},
    {"groth16_batch", &PipelineMetrics::groth16_batch},
    {"groth16_fallback", &PipelineMetrics::groth16_fallback},
    {"double_signal", &PipelineMetrics::double_signal},
};

/// The per-shard counter families after the pipeline ones, in exposition
/// order: the pipeline's root-window mirror.
struct ShardCounterFamily {
  const char* prom_name;
  const char* help;
  std::uint64_t RootCacheStats::* root_cache;
};
constexpr ShardCounterFamily kShardCounterFamilies[] = {
    {"waku_root_cache_hits_total",
     "Root checks answered from the shard-local window copy",
     &RootCacheStats::hits},
    {"waku_root_cache_misses_total",
     "Root checks that missed the rolling window", &RootCacheStats::misses},
    {"waku_root_cache_refreshes_total",
     "Window copies rebuilt after membership events",
     &RootCacheStats::refreshes},
};

/// The per-lane executor families, in exposition order: two histograms
/// and the queue-depth high watermark.
struct LaneFamily {
  const char* prom_name;
  const char* help;
  obs::HistogramSnapshot LaneObsSnapshot::* histogram;  ///< nullptr: depth
};
constexpr LaneFamily kLaneFamilies[] = {
    {"waku_executor_queue_wait_seconds",
     "Window time from enqueue to pop, per lane",
     &LaneObsSnapshot::queue_wait},
    {"waku_executor_service_seconds", "Window execution time, per lane",
     &LaneObsSnapshot::service},
    {"waku_executor_lane_depth_high_watermark",
     "Deepest the lane's queue has ever been", nullptr},
};

void write_sample(obs::PrometheusWriter& w, const char* name, bool gauge,
                  const std::string& labels, std::uint64_t value) {
  if (gauge) {
    w.gauge(name, labels, static_cast<double>(value));
  } else {
    w.counter(name, labels, value);
  }
}

std::string shard_label(shard::ShardId s) {
  return "shard=\"" + std::to_string(s) + "\"";
}

}  // namespace

NodeTelemetrySnapshot& NodeTelemetrySnapshot::operator+=(
    const NodeTelemetrySnapshot& o) {
  for (const ScalarField& f : kScalarFields) f.at.merge(*this, o);
  pipeline += o.pipeline;
  for (const auto& [s, stats] : o.per_shard) per_shard[s] += stats;
  return *this;
}

std::string telemetry_section_json(const NodeTelemetrySnapshot& t,
                                   std::string_view section) {
  std::string out = "{";
  const auto field = [&out](const char* key, std::uint64_t v) {
    if (out.size() > 1) out += ",";
    out.append("\"").append(key).append("\":").append(std::to_string(v));
  };
  if (section == "pipeline") {
    for (const PipelineField& f : kPipelineFields) {
      if (f.json_key != nullptr) field(f.json_key, t.pipeline.*(f.field));
    }
  } else {
    for (const ScalarField& f : kScalarFields) {
      if (f.json_key != nullptr && section == f.section) {
        field(f.json_key, f.at.get(t));
      }
    }
  }
  return out + "}";
}

NodeTelemetry::NodeTelemetry(const obs::ObsConfig& config,
                             const std::string& persist_dir,
                             std::function<std::uint64_t()> virtual_now_ns,
                             Sources sources)
    : src_(sources),
      postmortem_path_(persist_dir.empty() ? ""
                                           : persist_dir + "/postmortem.json"),
      tracer_(config.trace),
      recorder_(config.recorder) {
  if (!config.enabled) return;
  if (config.clock != nullptr) {
    clock_ = config.clock;
    return;
  }
  // Default: the node's own virtual time. Under the deterministic
  // simulator every execution makes identical clock observations, so
  // telemetry-on runs stay bit-for-bit reproducible; benches/deployments
  // inject obs::steady_clock() for wall time.
  sim_clock_ = std::make_unique<obs::FnClock>(std::move(virtual_now_ns));
  clock_ = sim_clock_.get();
}

void NodeTelemetry::attach(shard::ShardedValidator& validator) {
  validator.set_executor_clock(clock_);
  for (const shard::ShardId s : validator.subscribed()) {
    validator.pipeline(s).set_telemetry(
        clock_, clock_ != nullptr ? &metrics_for_shard(s) : nullptr);
  }
}

PipelineMetrics& NodeTelemetry::metrics_for_shard(shard::ShardId shard) {
  const auto it = pipeline_metrics_.find(shard);
  if (it != pipeline_metrics_.end()) return it->second;
  PipelineMetrics& m = pipeline_metrics_[shard];
  for (const StageRef& stage : kStages) {
    m.*(stage.member) = &registry_.histogram(
        "waku_pipeline_stage_seconds",
        std::string("stage=\"") + stage.name + "\"," + shard_label(shard),
        "Per-stage validation latency");
  }
  m.window = &registry_.histogram("waku_pipeline_validate_seconds",
                                  shard_label(shard),
                                  "Whole validate_batch window latency");
  return m;
}

std::optional<obs::TraceKey> NodeTelemetry::sampled_key(
    const WakuMessage& msg) const {
  if (clock_ == nullptr || tracer_.config().sample_every == 0) {
    return std::nullopt;
  }
  const obs::TraceKey key = waku::trace_key(msg);
  if (!tracer_.sampled(key)) return std::nullopt;
  return key;
}

void NodeTelemetry::trace(obs::TraceKey key, const char* stage,
                          std::string detail) {
  tracer_.record(key, clock_->now_ns(), stage, std::move(detail));
}

void NodeTelemetry::finish(obs::TraceKey key, std::string outcome) {
  tracer_.finish(key, clock_->now_ns(), std::move(outcome));
}

void NodeTelemetry::trace_hops(gossipsub::GossipSubRouter& router) {
  if (clock_ == nullptr || tracer_.config().sample_every == 0) return;
  // Both kinds fire after the local span closed (gossipsub delivers
  // locally before relaying; a duplicate by definition follows the first
  // rx), so they annotate the open-or-completed trace rather than opening
  // a junk second span.
  router.set_trace_hook([this](const char* kind, net::NodeId peer,
                               const gossipsub::PubSubMessage& m) {
    WakuMessage msg;
    try {
      msg = WakuMessage::deserialize(m.data);
    } catch (...) {
      return;  // non-Waku frame: never traced
    }
    const std::optional<obs::TraceKey> key = sampled_key(msg);
    if (!key.has_value()) return;
    const bool fwd = kind[0] == 'f';
    tracer_.annotate(*key, clock_->now_ns(), kind,
                     "node=" + std::to_string(src_.relay.node_id()) +
                         (fwd ? ",to=" : ",from=") + std::to_string(peer));
  });
}

std::vector<obs::Trace> NodeTelemetry::trace_dump() const {
  std::vector<obs::Trace> out = tracer_.completed();
  const std::vector<obs::Trace> slow = tracer_.slowest();
  out.insert(out.end(), slow.begin(), slow.end());
  return out;
}

void NodeTelemetry::record_flight(std::uint64_t epoch, const char* kind,
                                  std::string detail) {
  // Disabled telemetry means no clock, and a timestamp-less black box
  // would break the deterministic byte-identity the recorder promises.
  if (clock_ == nullptr) return;
  recorder_.record(clock_->now_ns(), epoch, kind, std::move(detail));
}

void NodeTelemetry::end_epoch(
    std::uint64_t epoch,
    const std::function<obs::NodeHealthSample()>& sample) {
  if (clock_ == nullptr) return;
  // Backpressure rejects are a lifecycle event, not just a counter: the
  // per-epoch delta joins the flight ring so a postmortem shows WHEN the
  // executor started shedding.
  const std::uint64_t rejected = src_.validator.executor_stats().rejected;
  if (rejected > executor_rejected_seen_) {
    record_flight(epoch, "backpressure",
                  "rejected_delta=" +
                      std::to_string(rejected - executor_rejected_seen_));
  }
  executor_rejected_seen_ = rejected;

  self_fleet_.ingest(sample());
  const obs::FleetEpochSeries* row = self_fleet_.close_epoch(epoch);
  if (row == nullptr) return;
  for (const obs::AnomalyVerdict& v : anomaly_.evaluate(*row)) {
    if (!v.changed) continue;
    record_flight(epoch, "anomaly",
                  std::string(obs::anomaly_rule_name(v.rule)) +
                      (v.firing ? " firing" : " cleared") +
                      " observed=" + obs::format_double(v.observed));
    if (v.firing) {
      dump_postmortem(std::string("anomaly:") +
                      obs::anomaly_rule_name(v.rule));
    }
  }
}

void NodeTelemetry::dump_postmortem(const std::string& reason) {
  last_postmortem_ = recorder_.postmortem_json(reason);
  if (postmortem_path_.empty()) return;
  FILE* f = std::fopen(postmortem_path_.c_str(), "w");
  if (f == nullptr) return;  // best-effort: the in-memory copy survives
  std::fwrite(last_postmortem_.data(), 1, last_postmortem_.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
}

double NodeTelemetry::shard_p95_validate_ms(shard::ShardId shard) const {
  const auto it = pipeline_metrics_.find(shard);
  if (it == pipeline_metrics_.end() || it->second.window == nullptr) {
    return 0.0;
  }
  return static_cast<double>(it->second.window->snapshot().p95) / 1e6;
}

NodeTelemetrySnapshot NodeTelemetry::snapshot() const {
  const shard::ShardedValidator& v = src_.validator;
  NodeTelemetrySnapshot t;
  t.router = src_.relay.stats();
  t.node = src_.stats;
  t.pipeline = v.stats();
  t.executor = v.executor_stats();
  for (const shard::ShardId s : v.subscribed()) {
    t.per_shard.emplace(s, v.pipeline(s).stats());
  }
  t.graylisted = src_.relay.router().scores().graylist_count();
  t.pending_validation = src_.relay.router().pending_validation_total();
  t.trace = tracer_.stats();
  t.trace_open = tracer_.open_count();
  t.operator_loop = src_.operator_loop.bookkeeping();
  t.flight_recorded = recorder_.recorded();
  t.flight_evicted = recorder_.evicted();
  t.anomalies_fired = anomaly_.fired_total();
  return t;
}

std::string NodeTelemetry::metrics_text() const {
  const NodeTelemetrySnapshot t = snapshot();
  const shard::ShardedValidator& v = src_.validator;
  obs::PrometheusWriter w;
  const auto render = [&](std::string_view section) {
    for (const ScalarField& f : kScalarFields) {
      if (f.prom_name == nullptr || section != f.section) continue;
      w.help_type(f.prom_name, f.gauge ? "gauge" : "counter", f.help);
      write_sample(w, f.prom_name, f.gauge, "", f.at.get(t));
    }
  };
  render("node");
  render("router");

  // Per-shard verdict-reason counters (one family, labelled series), then
  // one family per remaining pipeline field.
  w.help_type("waku_pipeline_verdicts_total", "counter",
              "Validation verdicts by reason, per rate-limit domain");
  for (const auto& [s, stats] : t.per_shard) {
    for (const PipelineField& f : kPipelineFields) {
      if (f.reason == nullptr) continue;
      w.counter("waku_pipeline_verdicts_total",
                shard_label(s) + ",reason=\"" + f.reason + "\"",
                stats.*(f.field));
    }
  }
  for (const PipelineField& f : kPipelineFields) {
    if (f.prom_name == nullptr) continue;
    w.help_type(f.prom_name, f.gauge ? "gauge" : "counter", f.help);
    for (const auto& [s, stats] : t.per_shard) {
      write_sample(w, f.prom_name, f.gauge, shard_label(s), stats.*(f.field));
    }
  }

  for (const ShardCounterFamily& f : kShardCounterFamilies) {
    w.help_type(f.prom_name, "counter", f.help);
    for (const shard::ShardId s : v.subscribed()) {
      w.counter(f.prom_name, shard_label(s),
                v.pipeline(s).root_cache_stats().*(f.root_cache));
    }
  }

  // Executor: pool counters plus per-lane queue-wait/service histograms.
  render("executor");
  const std::vector<LaneObsSnapshot> lanes = v.executor_lane_stats();
  for (const LaneFamily& f : kLaneFamilies) {
    w.help_type(f.prom_name, f.histogram != nullptr ? "histogram" : "gauge",
                f.help);
    for (const LaneObsSnapshot& lane : lanes) {
      const std::string label = "lane=\"" + std::to_string(lane.lane) + "\"";
      if (f.histogram != nullptr) {
        w.histogram(f.prom_name, label, lane.*(f.histogram), 1e-9);
      } else {
        w.gauge(f.prom_name, label,
                static_cast<double>(lane.depth_high_watermark));
      }
    }
  }

  // Per-stage latency quantiles (the registry's histogram families carry
  // the full buckets; these gauges answer p50/p95/p99 directly).
  w.help_type("waku_pipeline_stage_quantile_seconds", "gauge",
              "Per-stage latency quantiles (<=2x log2-bucket overestimate)");
  for (const auto& [s, m] : pipeline_metrics_) {
    for (const StageRef& stage : kStages) {
      const obs::Histogram* h = m.*(stage.member);
      if (h == nullptr) continue;
      const obs::HistogramSnapshot snap = h->snapshot();
      const std::string base = std::string("stage=\"") + stage.name + "\"," +
                               shard_label(s) + ",quantile=\"";
      w.gauge("waku_pipeline_stage_quantile_seconds", base + "0.5\"",
              static_cast<double>(snap.p50) * 1e-9);
      w.gauge("waku_pipeline_stage_quantile_seconds", base + "0.95\"",
              static_cast<double>(snap.p95) * 1e-9);
      w.gauge("waku_pipeline_stage_quantile_seconds", base + "0.99\"",
              static_cast<double>(snap.p99) * 1e-9);
    }
  }
  w.help_type("waku_shard_p95_validate_seconds", "gauge",
              "p95 whole-window validation latency per shard");
  for (const auto& [s, m] : pipeline_metrics_) {
    w.gauge("waku_shard_p95_validate_seconds", shard_label(s),
            shard_p95_validate_ms(s) * 1e-3);
  }

  render("trace");
  render("operator");

  // The registry renders itself (stage/window latency histograms); the
  // single-node fleet view appends its waku_fleet_* families once the
  // first epoch closed.
  return w.text() + self_fleet_.to_prometheus() + registry_.to_prometheus();
}

std::string NodeTelemetry::metrics_json() const {
  const NodeTelemetrySnapshot t = snapshot();
  std::string out = "{";
  std::string sep;  // between the fields of the object being written
  const auto begin = [&] {
    out += out.back() == '[' ? "{" : ",{";
    sep = "";
  };
  const auto u64 = [&](const char* key, std::uint64_t v) {
    out += sep + "\"" + key + "\":" + std::to_string(v);
    sep = ",";
  };
  const auto section = [&](const char* name) {
    out.append("\"").append(name).append("\":");
    out += telemetry_section_json(t, name) + ",";
  };

  section("node");
  section("router");
  section("pipeline");
  out += "\"per_shard\":[";
  for (const auto& [s, stats] : t.per_shard) {
    begin();
    u64("shard", s);
    u64("accepted", stats.accepted);
    u64("spam_detected", stats.spam_detected);
    u64("stale_root", stats.stale_root);
    u64("log_entries", stats.log_entries);
    char p95[64];
    std::snprintf(p95, sizeof p95, ",\"p95_validate_ms\":%.3f}",
                  shard_p95_validate_ms(s));
    out += p95;
  }
  out += "],";

  section("executor");
  out += "\"executor_lanes\":[";
  const std::vector<LaneObsSnapshot> lanes =
      src_.validator.executor_lane_stats();
  for (const LaneObsSnapshot& lane : lanes) {
    begin();
    u64("lane", lane.lane);
    u64("queue_wait_count", lane.queue_wait.count);
    u64("queue_wait_p95_ns", lane.queue_wait.p95);
    u64("service_count", lane.service.count);
    u64("service_p95_ns", lane.service.p95);
    u64("depth_high_watermark", lane.depth_high_watermark);
    out += "}";
  }
  out += "],";

  section("trace");
  section("operator");
  out += "\"fleet\":" + self_fleet_.timeline_json() + ",";
  out += "\"registry\":" + registry_.to_json() + "}";
  return out;
}

}  // namespace waku::rln

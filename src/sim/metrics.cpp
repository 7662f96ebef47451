#include "sim/metrics.hpp"

#include "sim/report.hpp"

namespace waku::sim {

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), counts_(bounds_.size() + 1, 0) {}

void Histogram::observe(double v) {
  std::size_t i = 0;
  while (i < bounds_.size() && v > bounds_[i]) ++i;
  ++counts_[i];
  ++total_;
  sum_ += v;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> upper_bounds) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.emplace(name, Histogram(std::move(upper_bounds)))
      .first->second;
}

void MetricsRegistry::sample_epoch(std::uint64_t epoch) {
  const auto record = [this, epoch](const std::string& name, double value) {
    std::vector<SeriesPoint>& points = series_[name];
    if (!points.empty() && points.back().epoch == epoch) {
      points.back().value = value;  // same-epoch resample overwrites
    } else {
      points.push_back({epoch, value});
    }
  };
  for (const auto& [name, c] : counters_) {
    record(name, static_cast<double>(c.value()));
  }
  for (const auto& [name, g] : gauges_) record(name, g.value());
}

const std::vector<MetricsRegistry::SeriesPoint>& MetricsRegistry::series(
    const std::string& name) const {
  static const std::vector<SeriesPoint> kEmpty;
  const auto it = series_.find(name);
  return it != series_.end() ? it->second : kEmpty;
}

std::uint64_t MetricsRegistry::counter_value(const std::string& name) const {
  const auto it = counters_.find(name);
  return it != counters_.end() ? it->second.value() : 0;
}

std::string MetricsRegistry::to_json() const {
  JsonObject counters;
  for (const auto& [name, c] : counters_) counters.integer(name, c.value());
  JsonObject gauges;
  for (const auto& [name, g] : gauges_) gauges.number(name, g.value(), "%.6g");
  JsonObject histograms;
  for (const auto& [name, h] : histograms_) {
    histograms.raw(name,
                   JsonObject()
                       .numbers("bounds", h.bounds(), "%.6g")
                       .integers("counts", h.counts())
                       .integer("total", h.total())
                       .number("sum", h.sum(), "%.6g")
                       .str(),
                   "{}");
  }
  JsonObject series;
  for (const auto& [name, points] : series_) {
    std::string array = "[";
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (i > 0) array += ", ";
      array += JsonObject()
                   .integer("epoch", points[i].epoch)
                   .number("value", points[i].value, "%.6g")
                   .str();
    }
    series.raw(name, array + "]", "[]");
  }
  return "{\n\"counters\": " + counters.str() + ",\n\"gauges\": " +
         gauges.str() + ",\n\"histograms\": " + histograms.str() +
         ",\n\"series\": " + series.str() + "\n}";
}

// -- HarnessProbe ------------------------------------------------------------

HarnessProbe::HarnessProbe(rln::RlnHarness& harness, MetricsRegistry& registry,
                           rln::RlnHarness::NodeHook node_hook)
    : harness_(harness),
      registry_(registry),
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
      const std::string shard_suffix =
          ".shard" + std::to_string(shard);
      if (payload.starts_with(kSpamTag)) {
        ++per_node_spam_[i];
        ++per_node_shard_spam_[i * num_shards_ + shard];
        ++spam_delivered_;
        registry_.counter("spam.delivered").inc();
        registry_.counter("spam.delivered" + shard_suffix).inc();
      } else if (payload.starts_with(kHonestTag)) {
        ++per_node_honest_[i];
        ++per_node_shard_honest_[i * num_shards_ + shard];
        ++honest_delivered_;
        registry_.counter("honest.delivered").inc();
        registry_.counter("honest.delivered" + shard_suffix).inc();
      } else {
        registry_.counter("other.delivered").inc();
      }
      if (observer_) observer_(i, payload);
    });
  });

  chain_subscription_ =
      harness_.chain().subscribe_events([this](const chain::Event& ev) {
        if (ev.name == "MemberSlashed") {
          const SlashEvent event{ev.topics[0].limb[0], harness_.sim().now()};
          slashes_.push_back(event);
          registry_.counter("chain.slashes").inc();
          if (attack_start_ms_.has_value()) {
            registry_
                .histogram("slash.latency_ms",
                           {5'000, 15'000, 30'000, 60'000, 120'000})
                .observe(static_cast<double>(event.at_ms -
                                             *attack_start_ms_));
          }
        } else if (ev.name == "MemberWithdrawn") {
          withdrawals_.push_back(
              {ev.topics[0].limb[0], harness_.sim().now()});
          registry_.counter("chain.withdrawals").inc();
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

void HarnessProbe::sample(std::uint64_t epoch) {
  // One telemetry_snapshot() per node is the whole read: the node is the
  // authority on its own counters (router, pipeline, executor, traces),
  // so the probe only aggregates — it no longer re-derives any sum from
  // subsystem accessors.
  gossipsub::RouterStats router;
  rln::NodeStats nodes;
  rln::ValidatorStats pipeline;
  rln::ExecutorStats executor;
  std::size_t graylisted = 0;
  std::uint64_t traces_sampled = 0;
  std::uint64_t traces_finished = 0;
  std::map<shard::ShardId, rln::ValidatorStats> per_shard;
  // Every configured shard gets a gauge even when unhosted/idle (series
  // continuity across kill/restart cycles).
  for (std::uint16_t s = 0; s < num_shards_; ++s) per_shard[s];
  for (std::size_t i = 0; i < harness_.size(); ++i) {
    if (!harness_.alive(i)) continue;
    const rln::NodeTelemetrySnapshot t = harness_.node(i).telemetry_snapshot();
    router.delivered += t.router.delivered;
    router.duplicates += t.router.duplicates;
    router.rejected += t.router.rejected;
    router.ignored += t.router.ignored;
    router.forwarded += t.router.forwarded;
    router.validation_windows_flushed += t.router.validation_windows_flushed;
    nodes.published += t.node.published;
    nodes.publish_rate_limited += t.node.publish_rate_limited;
    nodes.slash_commits += t.node.slash_commits;
    nodes.slash_reveals += t.node.slash_reveals;
    nodes.slash_rewards += t.node.slash_rewards;
    pipeline += t.pipeline;
    executor.submitted += t.executor.submitted;
    executor.executed += t.executor.executed;
    executor.rejected += t.executor.rejected;
    executor.blocked += t.executor.blocked;
    executor.workers += t.executor.workers;
    graylisted += t.graylisted;
    traces_sampled += t.trace.sampled;
    traces_finished += t.trace.finished;
    for (const auto& [s, stats] : t.per_shard) per_shard[s] += stats;
  }

  const auto set = [this](const std::string& name, std::uint64_t v) {
    registry_.gauge(name).set(static_cast<double>(v));
  };
  set("router.delivered", router.delivered);
  set("router.duplicates", router.duplicates);
  set("router.rejected", router.rejected);
  set("router.ignored", router.ignored);
  set("router.forwarded", router.forwarded);
  set("router.validation_windows", router.validation_windows_flushed);
  set("score.graylisted", graylisted);
  set("pipeline.accepted", pipeline.accepted);
  set("pipeline.epoch_gap", pipeline.epoch_gap);
  set("pipeline.duplicates", pipeline.duplicates);
  set("pipeline.no_proof", pipeline.no_proof);
  set("pipeline.bad_proof", pipeline.bad_proof);
  set("pipeline.stale_root", pipeline.stale_root);
  set("pipeline.spam_detected", pipeline.spam_detected);
  set("pipeline.batches", pipeline.batches);
  set("pipeline.batch_fallbacks", pipeline.batch_fallbacks);
  set("pipeline.precheck_duplicates", pipeline.precheck_duplicates);
  set("log.entries", pipeline.log_entries);
  set("log.conflicts", pipeline.log_conflicts);
  set("node.published", nodes.published);
  set("node.publish_rate_limited", nodes.publish_rate_limited);
  set("node.slash_commits", nodes.slash_commits);
  set("node.slash_reveals", nodes.slash_reveals);
  set("node.slash_rewards", nodes.slash_rewards);
  set("executor.submitted", executor.submitted);
  set("executor.executed", executor.executed);
  set("executor.rejected", executor.rejected);
  set("executor.blocked", executor.blocked);
  set("executor.workers", executor.workers);
  set("trace.sampled", traces_sampled);
  set("trace.finished", traces_finished);
  const net::TrafficStats traffic = harness_.network().total_stats();
  set("net.messages_sent", traffic.messages_sent);
  set("net.bytes_sent", traffic.bytes_sent);

  // Per-shard pipeline view: where traffic died on each rate-limit
  // domain. Each node reports only the shards it hosts, so the merge is
  // already subscription-filtered.
  for (const auto& [s, shard_stats] : per_shard) {
    const std::string suffix = ".shard" + std::to_string(s);
    set("pipeline.accepted" + suffix, shard_stats.accepted);
    set("pipeline.stale_root" + suffix, shard_stats.stale_root);
    set("pipeline.spam_detected" + suffix, shard_stats.spam_detected);
    set("log.entries" + suffix, shard_stats.log_entries);
  }

  registry_.sample_epoch(epoch);
}

}  // namespace waku::sim

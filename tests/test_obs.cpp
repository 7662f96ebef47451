// Observability layer tests (src/obs + node wiring): log2 histogram
// bucket boundaries and quantile reconstruction, histogram sums under
// real threads (the TSan target of this suite), deterministic 1-in-N
// trace sampling, bounded trace rings, the nullifier log's aggregated
// bucket_sizes, and the node-level
// exposition — a sampled span covering publish -> rx -> verdict ->
// deliver, Prometheus families in metrics_text(), the guarantee that
// telemetry-on runs stay deterministic under the simulator, the pinned
// bytes of every examples/metrics_dump.cpp output, and the deployment
// sum of node snapshots.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>
#include <vector>

#include "hash/sha256.hpp"
#include "obs/clock.hpp"
#include "obs/fleet.hpp"
#include "obs/json.hpp"
#include "obs/propagation.hpp"
#include "obs/recorder.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "rln/harness.hpp"
#include "rln/nullifier_log.hpp"
#include "shard/reshard.hpp"

namespace waku::obs {
namespace {

// -- Histogram: log2 bucket boundaries ---------------------------------------

TEST(Histogram, Log2BucketBoundaries) {
  Histogram h;
  // bucket 0 = {0}; bucket i (i>=1) = [2^(i-1), 2^i - 1].
  h.record(0);
  h.record(1);
  h.record(2);
  h.record(3);
  h.record(4);
  h.record(7);
  h.record(8);
  h.record((std::uint64_t{1} << 38));  // bucket 39 (bit_width = 39)

  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 8u);
  EXPECT_EQ(s.bucket_counts[0], 1u);  // {0}
  EXPECT_EQ(s.bucket_counts[1], 1u);  // {1}
  EXPECT_EQ(s.bucket_counts[2], 2u);  // {2,3}
  EXPECT_EQ(s.bucket_counts[3], 2u);  // {4..7}
  EXPECT_EQ(s.bucket_counts[4], 1u);  // {8..15}
  EXPECT_EQ(s.bucket_counts[39], 1u);
  EXPECT_EQ(s.sum, 0u + 1 + 2 + 3 + 4 + 7 + 8 + (std::uint64_t{1} << 38));

  // Upper bounds: 0, 1, 3, 7, 15, ... and saturation at/above 64 bits.
  EXPECT_EQ(HistogramSnapshot::bucket_upper(0), 0u);
  EXPECT_EQ(HistogramSnapshot::bucket_upper(1), 1u);
  EXPECT_EQ(HistogramSnapshot::bucket_upper(2), 3u);
  EXPECT_EQ(HistogramSnapshot::bucket_upper(10), 1023u);
  EXPECT_EQ(HistogramSnapshot::bucket_upper(64), ~std::uint64_t{0});
}

TEST(Histogram, OverflowValuesLandInLastBucket) {
  Histogram h;
  h.record(~std::uint64_t{0});  // bit_width 64 >> kBuckets
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.bucket_counts[Histogram::kBuckets - 1], 1u);
}

TEST(Histogram, QuantilesAreBucketUpperBounds) {
  Histogram h;
  // 90 observations of ~100ns (bucket 7: [64,127]) and 10 of ~1000ns
  // (bucket 10: [512,1023]). p50 resolves in the low bucket, p95/p99 in
  // the high one; each is the bucket's inclusive upper bound (the <=2x
  // overestimate the log2 layout guarantees).
  for (int i = 0; i < 90; ++i) h.record(100);
  for (int i = 0; i < 10; ++i) h.record(1000);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.p50, 127u);
  EXPECT_EQ(s.p95, 1023u);
  EXPECT_EQ(s.p99, 1023u);
  EXPECT_EQ(h.snapshot().p50, s.p50);  // snapshot is repeatable at rest
}

TEST(Histogram, EmptySnapshotIsZero) {
  Histogram h;
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.p50, 0u);
  EXPECT_EQ(s.p99, 0u);
}

// -- Registry under threads (the TSan target) --------------------------------

TEST(Telemetry, ConcurrentRecordsSumExactly) {
  Telemetry reg;
  Histogram& h = reg.histogram("waku_test_latency_seconds", "", "test hist");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.record(static_cast<std::uint64_t>(t * 100 + 1));
      }
    });
  }
  // Concurrent reads must be safe (and monotone) while writers run.
  std::uint64_t last = 0;
  for (int probe = 0; probe < 100; ++probe) {
    const std::uint64_t now = h.count();
    EXPECT_GE(now, last);
    last = now;
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Telemetry, RegistrationIsIdempotent) {
  Telemetry reg;
  Histogram& a = reg.histogram("waku_test_seconds", "shard=\"0\"");
  Histogram& b = reg.histogram("waku_test_seconds", "shard=\"0\"");
  EXPECT_EQ(&a, &b);  // same series, stable address
  a.record(3);
  EXPECT_EQ(b.count(), 1u);
}

TEST(Telemetry, PrometheusExpositionScalesSecondsFamilies) {
  Telemetry reg;
  reg.histogram("waku_test_stage_seconds", "stage=\"x\"").record(1'000'000'000);
  const std::string text = reg.to_prometheus();
  // 1e9 ns lands in bucket 30 (upper 2^30-1 ns ~ 1.07s); the le label is
  // rendered in seconds.
  EXPECT_NE(text.find("# TYPE waku_test_stage_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(text.find("waku_test_stage_seconds_count{stage=\"x\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("waku_test_stage_seconds_sum{stage=\"x\"} 1"),
            std::string::npos);

  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"waku_test_stage_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
}

// -- Trace sampling ----------------------------------------------------------

TEST(TraceCollector, SamplingIsDeterministicAcrossCollectors) {
  TraceCollectorConfig cfg;
  cfg.sample_every = 16;
  const TraceCollector a(cfg);
  const TraceCollector b(cfg);
  std::size_t selected = 0;
  for (std::uint64_t key = 0; key < 4096; ++key) {
    EXPECT_EQ(a.sampled(key), b.sampled(key)) << key;
    if (a.sampled(key)) ++selected;
  }
  // ~1-in-16 of 4096 = 256; the splitmix mix keeps it near uniform even
  // on sequential keys. Wide margin: this asserts "sampling", not an
  // exact binomial tail.
  EXPECT_GT(selected, 128u);
  EXPECT_LT(selected, 512u);

  TraceCollectorConfig off;
  off.sample_every = 0;
  EXPECT_FALSE(TraceCollector(off).sampled(0));
  TraceCollectorConfig all;
  all.sample_every = 1;
  EXPECT_TRUE(TraceCollector(all).sampled(12345));
}

TEST(TraceCollector, CompletedRingIsBoundedAndSlowRingKeepsWorst) {
  TraceCollectorConfig cfg;
  cfg.sample_every = 1;
  cfg.completed_ring = 4;
  cfg.slow_ring = 2;
  TraceCollector tc(cfg);
  // 8 traces with end-to-end durations 10, 20, ..., 80 ns.
  for (std::uint64_t i = 1; i <= 8; ++i) {
    tc.record(i, 1000 * i, "publish");
    tc.record(i, 1000 * i + 5 * i, "rx", "hop");
    tc.finish(i, 1000 * i + 10 * i, "deliver");
  }
  const TraceCollectorStats stats = tc.stats();
  EXPECT_EQ(stats.sampled, 8u);
  EXPECT_EQ(stats.finished, 8u);
  EXPECT_EQ(stats.evicted, 4u);  // 8 finished - ring of 4

  const std::vector<Trace> completed = tc.completed();
  ASSERT_EQ(completed.size(), 4u);
  // Oldest-first ring holding the most recent 4 (keys 5..8).
  EXPECT_EQ(completed.front().key, 5u);
  EXPECT_EQ(completed.back().key, 8u);
  ASSERT_EQ(completed.back().events.size(), 2u);
  EXPECT_EQ(completed.back().events[0].stage, "publish");
  EXPECT_EQ(completed.back().events[1].stage, "rx");
  EXPECT_EQ(completed.back().outcome, "deliver");

  const std::vector<Trace> slow = tc.slowest();
  ASSERT_EQ(slow.size(), 2u);
  EXPECT_EQ(slow[0].key, 8u);  // worst first: 80ns then 70ns
  EXPECT_EQ(slow[1].key, 7u);
  EXPECT_EQ(slow[0].duration_ns(), 80u);

  const std::string json = tc.to_json();
  EXPECT_NE(json.find("\"completed\""), std::string::npos);
  EXPECT_NE(json.find("\"slowest\""), std::string::npos);
  EXPECT_NE(json.find("\"deliver\""), std::string::npos);
}

TEST(TraceCollector, OpenTraceCapTruncatesOldest) {
  TraceCollectorConfig cfg;
  cfg.sample_every = 1;
  cfg.max_open = 4;
  TraceCollector tc(cfg);
  for (std::uint64_t i = 1; i <= 6; ++i) tc.record(i, i, "publish");
  EXPECT_EQ(tc.open_count(), 4u);
  EXPECT_EQ(tc.stats().truncated, 2u);
  // A truncated trace is closed; finishing it again is a no-op.
  tc.finish(1, 100, "deliver");
  EXPECT_EQ(tc.stats().finished, 0u);
}

TEST(TraceCollector, UnsampledKeysRecordNothing) {
  TraceCollectorConfig cfg;
  cfg.sample_every = 16;
  TraceCollector tc(cfg);
  std::uint64_t sampled_key = 0;
  std::uint64_t unsampled_key = 0;
  for (std::uint64_t k = 1; k < 1000; ++k) {
    if (tc.sampled(k) && sampled_key == 0) sampled_key = k;
    if (!tc.sampled(k) && unsampled_key == 0) unsampled_key = k;
  }
  ASSERT_NE(sampled_key, 0u);
  ASSERT_NE(unsampled_key, 0u);
  tc.record(unsampled_key, 1, "publish");
  tc.finish(unsampled_key, 2, "deliver");
  EXPECT_EQ(tc.stats().sampled, 0u);
  tc.record(sampled_key, 1, "publish");
  EXPECT_EQ(tc.stats().sampled, 1u);
}

// -- FnClock -----------------------------------------------------------------

TEST(Clock, FnClockReadsInjectedSource) {
  std::uint64_t t = 42;
  const FnClock clock([&t] { return t; });
  EXPECT_EQ(clock.now_ns(), 42u);
  t = 99;
  EXPECT_EQ(clock.now_ns(), 99u);
  EXPECT_GT(steady_clock().now_ns(), 0u);
}

// -- FlightRecorder ----------------------------------------------------------

TEST(FlightRecorder, RingIsBoundedAndCountsEvictions) {
  FlightRecorderConfig cfg;
  cfg.capacity = 4;
  FlightRecorder rec(cfg);
  for (std::uint64_t i = 0; i < 10; ++i) {
    rec.record(/*at_ns=*/i * 100, /*epoch=*/i, "reshard",
               "event " + std::to_string(i));
  }
  EXPECT_EQ(rec.recorded(), 10u);
  EXPECT_EQ(rec.evicted(), 6u);

  const std::vector<FlightEvent> events = rec.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest first, and the oldest survivor is event 6 (0..5 evicted).
  EXPECT_EQ(events.front().epoch, 6u);
  EXPECT_EQ(events.back().epoch, 9u);
  EXPECT_EQ(events.back().detail, "event 9");
}

TEST(JsonWriter, PlacesCommasAndClosesOpenContainers) {
  JsonWriter w;
  w.obj().key("a").arr().u64(1).i64(-2).obj().end().arr().end().end();
  w.key("s").str("q\"\n").key("b").boolean(false).key("n").null();
  w.key("d").num(0.5).key("f").fmt("%.3f", 1.0).key("r").raw("[]");
  w.key("open").arr().str("x");  // take() closes the array and the object
  EXPECT_EQ(std::move(w).take(),
            R"({"a":[1,-2,{},[]],"s":"q\"\n","b":false,"n":null,"d":0.5,)"
            R"("f":1.000,"r":[],"open":["x"]})");
}

TEST(FlightRecorder, PostmortemJsonEscapesAndStructures) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("line\nbreak"), "line\\nbreak");

  FlightRecorder rec;
  rec.record(42, 7, "slash", "index=3 \"quoted\"");
  const std::string dump = rec.postmortem_json("unit \"test\"");
  EXPECT_NE(dump.find("\"reason\":\"unit \\\"test\\\"\""), std::string::npos);
  EXPECT_NE(dump.find("\"recorded\":1"), std::string::npos);
  EXPECT_NE(dump.find("\"evicted\":0"), std::string::npos);
  EXPECT_NE(dump.find("\"kind\":\"slash\""), std::string::npos);
  EXPECT_NE(dump.find("index=3 \\\"quoted\\\""), std::string::npos);
  // The event's own renderer emits the same escaped tuple.
  const std::string ev = rec.events().front().to_json();
  EXPECT_NE(ev.find("\"epoch\":7"), std::string::npos);
  EXPECT_NE(ev.find("\"at_ns\":42"), std::string::npos);
}

// -- FleetAggregator ---------------------------------------------------------

NodeHealthSample fleet_sample(std::uint64_t node, std::uint64_t honest_del,
                              std::uint64_t honest_ideal,
                              std::uint64_t spam_del, std::uint64_t spam_sent,
                              double p95_ms, std::uint64_t log_entries) {
  NodeHealthSample s;
  s.node_id = node;
  s.honest_delivered = honest_del;
  s.honest_ideal = honest_ideal;
  s.spam_delivered = spam_del;
  s.spam_sent = spam_sent;
  s.log_entries = log_entries;
  s.quota_saturation = 0.5;
  s.shards.push_back({/*shard=*/0, p95_ms});
  return s;
}

TEST(FleetAggregator, FoldsSamplesIntoEpochRows) {
  FleetAggregator agg;
  EXPECT_EQ(agg.close_epoch(1), nullptr);  // nothing ingested yet

  agg.ingest(fleet_sample(0, 90, 100, 1, 10, 12.0, 40));
  agg.ingest(fleet_sample(1, 100, 100, 0, 10, 4.0, 60));
  const FleetEpochSeries* row = agg.close_epoch(5);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->epoch, 5u);
  EXPECT_EQ(row->nodes_reporting, 2u);
  EXPECT_DOUBLE_EQ(row->honest_delivery_ratio, 190.0 / 200.0);
  EXPECT_DOUBLE_EQ(row->containment_ratio, 1.0 - 1.0 / 20.0);
  EXPECT_DOUBLE_EQ(row->p95_spread_ms, 8.0);
  EXPECT_DOUBLE_EQ(row->max_p95_ms, 12.0);
  EXPECT_DOUBLE_EQ(row->quota_saturation, 0.5);
  EXPECT_EQ(row->total_log_entries, 100u);

  // Second epoch: drift is prev-minus-current containment, log growth is
  // the entry delta.
  agg.ingest(fleet_sample(0, 50, 100, 5, 10, 12.0, 90));
  agg.ingest(fleet_sample(1, 50, 100, 5, 10, 12.0, 110));
  const FleetEpochSeries* next = agg.close_epoch(6);
  ASSERT_NE(next, nullptr);
  EXPECT_DOUBLE_EQ(next->containment_ratio, 0.5);
  EXPECT_DOUBLE_EQ(next->containment_drift, 0.95 - 0.5);
  EXPECT_DOUBLE_EQ(next->log_growth_per_epoch, 100.0);
  EXPECT_EQ(agg.latest(), next);
}

TEST(FleetAggregator, HistoryIsBoundedAndExpositionRenders) {
  FleetAggregatorConfig cfg;
  cfg.history = 3;
  FleetAggregator agg(cfg);
  for (std::uint64_t e = 0; e < 5; ++e) {
    agg.ingest(fleet_sample(0, 99, 100, 0, 1, 10.0, 10 * (e + 1)));
    ASSERT_NE(agg.close_epoch(e), nullptr);
  }
  ASSERT_EQ(agg.history().size(), 3u);
  EXPECT_EQ(agg.history().front().epoch, 2u);
  EXPECT_EQ(agg.history().back().epoch, 4u);

  const std::string prom = agg.to_prometheus();
  EXPECT_NE(prom.find("# TYPE waku_fleet_epoch gauge"), std::string::npos);
  EXPECT_NE(prom.find("waku_fleet_honest_delivery_ratio"), std::string::npos);
  EXPECT_NE(prom.find("waku_fleet_p95_spread_seconds"), std::string::npos);
  EXPECT_NE(prom.find("waku_fleet_executor_rejected_total"),
            std::string::npos);

  const std::string timeline = agg.timeline_json();
  EXPECT_EQ(timeline.front(), '[');
  EXPECT_EQ(timeline.back(), ']');
  EXPECT_NE(timeline.find("\"epoch\":2"), std::string::npos);
  EXPECT_NE(timeline.find("\"honest_delivery_ratio\""), std::string::npos);
  // Evicted rows are gone from the timeline too.
  EXPECT_EQ(timeline.find("\"epoch\":0,"), std::string::npos);
}

// -- AnomalyEngine -----------------------------------------------------------

FleetEpochSeries healthy_row(std::uint64_t epoch) {
  FleetEpochSeries row;
  row.epoch = epoch;
  row.honest_delivery_ratio = 1.0;
  row.containment_ratio = 1.0;
  row.max_p95_ms = 1.0;
  row.log_growth_per_epoch = 0.0;
  return row;
}

TEST(AnomalyEngine, TripAndClearHysteresis) {
  AnomalyEngineConfig cfg;
  cfg.trip_epochs = 2;
  cfg.clear_epochs = 2;
  AnomalyEngine eng(cfg);

  FleetEpochSeries bad = healthy_row(1);
  bad.honest_delivery_ratio = 0.9;  // below the 0.99 SLO

  // One bad epoch: armed but not firing (hysteresis).
  std::vector<AnomalyVerdict> v = eng.evaluate(bad);
  ASSERT_EQ(v.size(), 5u);
  EXPECT_EQ(v[0].rule, AnomalyRule::kDeliverySloBurn);
  EXPECT_FALSE(v[0].firing);
  EXPECT_EQ(eng.fired_total(), 0u);

  // Second consecutive bad epoch: fires, exactly once.
  bad.epoch = 2;
  v = eng.evaluate(bad);
  EXPECT_TRUE(v[0].firing);
  EXPECT_TRUE(v[0].changed);
  EXPECT_DOUBLE_EQ(v[0].observed, 0.9);
  EXPECT_DOUBLE_EQ(v[0].threshold, cfg.delivery_slo);
  EXPECT_TRUE(eng.any_firing());
  EXPECT_TRUE(eng.firing(AnomalyRule::kDeliverySloBurn));
  EXPECT_EQ(eng.fired_total(), 1u);
  // The other rules stayed quiet.
  EXPECT_FALSE(eng.firing(AnomalyRule::kP95BudgetBreach));
  EXPECT_FALSE(v[1].firing);

  // One good epoch does not clear it...
  v = eng.evaluate(healthy_row(3));
  EXPECT_TRUE(v[0].firing);
  EXPECT_FALSE(v[0].changed);
  // ...two do.
  v = eng.evaluate(healthy_row(4));
  EXPECT_FALSE(v[0].firing);
  EXPECT_TRUE(v[0].changed);
  EXPECT_FALSE(eng.any_firing());
  EXPECT_EQ(eng.fired_total(), 1u);  // clears are not fire transitions

  // An interrupted bad streak never fires: bad, good, bad, good.
  for (std::uint64_t e = 5; e < 9; ++e) {
    FleetEpochSeries row = healthy_row(e);
    if (e % 2 == 1) row.max_p95_ms = 10'000.0;
    eng.evaluate(row);
  }
  EXPECT_FALSE(eng.firing(AnomalyRule::kP95BudgetBreach));
  EXPECT_EQ(eng.fired_total(), 1u);
}

TEST(AnomalyEngine, EveryRuleTripsOnItsOwnSignal) {
  AnomalyEngineConfig cfg;
  cfg.trip_epochs = 1;
  AnomalyEngine eng(cfg);
  FleetEpochSeries row = healthy_row(1);
  row.honest_delivery_ratio = 0.5;
  row.containment_ratio = 0.5;
  row.max_p95_ms = 10'000.0;
  row.log_growth_per_epoch = 1e9;
  row.propagation_p95_ms = 10'000.0;  // past the 750 ms mesh budget
  const std::vector<AnomalyVerdict> v = eng.evaluate(row);
  ASSERT_EQ(v.size(), 5u);
  for (const AnomalyVerdict& verdict : v) {
    EXPECT_TRUE(verdict.firing) << anomaly_rule_name(verdict.rule);
    EXPECT_TRUE(verdict.changed) << anomaly_rule_name(verdict.rule);
    EXPECT_EQ(verdict.epoch, 1u);
  }
  // One verdict per rule, in rule order, each with its own signal.
  EXPECT_EQ(v[0].rule, AnomalyRule::kDeliverySloBurn);
  EXPECT_DOUBLE_EQ(v[0].observed, 0.5);
  EXPECT_EQ(v[1].rule, AnomalyRule::kP95BudgetBreach);
  EXPECT_DOUBLE_EQ(v[1].observed, 10'000.0);
  EXPECT_EQ(v[2].rule, AnomalyRule::kContainmentRegression);
  EXPECT_DOUBLE_EQ(v[2].observed, 0.5);
  EXPECT_EQ(v[3].rule, AnomalyRule::kMemorySlope);
  EXPECT_DOUBLE_EQ(v[3].observed, 1e9);
  EXPECT_EQ(v[4].rule, AnomalyRule::kPropagationLatency);
  EXPECT_DOUBLE_EQ(v[4].observed, 10'000.0);
  EXPECT_EQ(eng.fired_total(), 5u);
}

TEST(AnomalyEngine, PropagationSloTripsAndClears) {
  AnomalyEngineConfig cfg;
  cfg.trip_epochs = 2;
  cfg.clear_epochs = 2;
  AnomalyEngine eng(cfg);

  // A row with no tracing lane (p95 == 0, the default) never trips.
  (void)eng.evaluate(healthy_row(1));
  (void)eng.evaluate(healthy_row(2));
  EXPECT_FALSE(eng.firing(AnomalyRule::kPropagationLatency));

  // Mesh p95 past the budget for trip_epochs consecutive rows: fires.
  FleetEpochSeries slow = healthy_row(3);
  slow.propagation_p95_ms = cfg.propagation_p95_budget_ms + 1.0;
  (void)eng.evaluate(slow);
  EXPECT_FALSE(eng.firing(AnomalyRule::kPropagationLatency));  // armed only
  slow.epoch = 4;
  std::vector<AnomalyVerdict> v = eng.evaluate(slow);
  EXPECT_TRUE(eng.firing(AnomalyRule::kPropagationLatency));
  const AnomalyVerdict& pv = v[static_cast<std::size_t>(
      AnomalyRule::kPropagationLatency)];
  EXPECT_EQ(pv.rule, AnomalyRule::kPropagationLatency);
  EXPECT_TRUE(pv.firing);
  EXPECT_DOUBLE_EQ(pv.threshold, cfg.propagation_p95_budget_ms);

  // Back under budget for clear_epochs rows: clears.
  (void)eng.evaluate(healthy_row(5));
  EXPECT_TRUE(eng.firing(AnomalyRule::kPropagationLatency));
  (void)eng.evaluate(healthy_row(6));
  EXPECT_FALSE(eng.firing(AnomalyRule::kPropagationLatency));
  EXPECT_EQ(eng.fired_total(), 1u);
}

// -- Cross-node propagation assembly -----------------------------------------

Trace make_trace(TraceKey key, std::vector<TraceEvent> events,
                 std::string outcome = "deliver") {
  Trace t;
  t.key = key;
  t.events = std::move(events);
  t.start_ns = t.events.front().at_ns;
  t.end_ns = t.events.back().at_ns;
  t.outcome = std::move(outcome);
  return t;
}

TEST(PropagationAssembler, LinearChainTreeAndRollups) {
  // 1 publishes; 2 receives from 1; 3 receives from 2 — a 3-node chain.
  PropagationAssembler a;
  a.ingest(1, {make_trace(0xABC, {{1'000, "publish", "node=1,topic=t,shard=0"},
                                  {1'100, "deliver", "node=1"},
                                  {1'200, "fwd", "node=1,to=2"}})});
  a.ingest(2, {make_trace(0xABC, {{2'000, "rx", "node=2,shard=0,gen=1,from=1"},
                                  {2'050, "verdict", "accept"},
                                  {2'100, "deliver", "node=2"},
                                  {2'200, "fwd", "node=2,to=3"}})});
  a.ingest(3, {make_trace(0xABC, {{3'000, "rx", "node=3,shard=0,gen=1,from=2"},
                                  {3'050, "verdict", "accept"},
                                  {3'100, "deliver", "node=3"}})});
  a.set_subscribers(0, 3);

  const std::vector<PropagationTree> trees = a.assemble();
  ASSERT_EQ(trees.size(), 1u);
  const PropagationTree& tree = trees[0];
  EXPECT_TRUE(tree.has_origin);
  EXPECT_EQ(tree.origin_node, 1u);
  EXPECT_EQ(tree.publish_ns, 1'000u);
  EXPECT_TRUE(tree.has_shard);
  EXPECT_EQ(tree.shard, 0u);
  EXPECT_TRUE(tree.complete);
  EXPECT_FALSE(tree.rejected);
  EXPECT_EQ(tree.deliveries, 3u);
  EXPECT_EQ(tree.useful_rx, 2u);
  EXPECT_EQ(tree.duplicate_rx, 0u);
  EXPECT_EQ(tree.max_delivery_depth, 2);  // node 3 sits two hops out
  EXPECT_EQ(tree.latency_ns(), 3'100u - 1'000u);
  ASSERT_EQ(tree.nodes.size(), 3u);  // sorted by node id
  EXPECT_EQ(tree.nodes[0].depth, 0);
  EXPECT_EQ(tree.nodes[1].depth, 1);
  EXPECT_EQ(tree.nodes[1].from, 1u);
  EXPECT_EQ(tree.nodes[2].depth, 2);
  EXPECT_EQ(tree.nodes[0].forwards, 1u);

  const PropagationSummary s = a.summary();
  EXPECT_EQ(s.trees, 1u);
  EXPECT_EQ(s.complete_trees, 1u);
  EXPECT_EQ(s.incomplete_trees, 0u);
  EXPECT_EQ(s.p95_ns, 2'100u);
  EXPECT_DOUBLE_EQ(s.redundancy_ratio, 0.0);
  EXPECT_DOUBLE_EQ(s.reachability, 1.0);  // 3 delivered / 3 subscribed
  ASSERT_EQ(s.hop_histogram.size(), 3u);
  EXPECT_EQ(s.hop_histogram[0], 1u);
  EXPECT_EQ(s.hop_histogram[1], 1u);
  EXPECT_EQ(s.hop_histogram[2], 1u);
}

TEST(PropagationAssembler, DiamondFanOutCountsDuplicateRx) {
  // 1 -> {2, 3} -> 4: node 4 hears the message twice; the second receipt
  // is a router-level duplicate ("dup"), the mesh-redundancy signal.
  PropagationAssembler a;
  a.ingest(1, {make_trace(0x0D1A, {{1'000, "publish", "node=1,shard=0"},
                                   {1'010, "deliver", "node=1"},
                                   {1'020, "fwd", "node=1,to=2"},
                                   {1'030, "fwd", "node=1,to=3"}})});
  a.ingest(2, {make_trace(0x0D1A, {{2'000, "rx", "node=2,shard=0,from=1"},
                                   {2'010, "deliver", "node=2"},
                                   {2'020, "fwd", "node=2,to=4"}})});
  a.ingest(3, {make_trace(0x0D1A, {{2'100, "rx", "node=3,shard=0,from=1"},
                                   {2'110, "deliver", "node=3"},
                                   {2'120, "fwd", "node=3,to=4"}})});
  a.ingest(4, {make_trace(0x0D1A, {{3'000, "rx", "node=4,shard=0,from=2"},
                                   {3'010, "deliver", "node=4"},
                                   {3'100, "dup", "node=4,from=3"}})});
  a.set_subscribers(0, 4);

  const std::vector<PropagationTree> trees = a.assemble();
  ASSERT_EQ(trees.size(), 1u);
  EXPECT_TRUE(trees[0].complete);
  EXPECT_EQ(trees[0].deliveries, 4u);
  EXPECT_EQ(trees[0].useful_rx, 3u);
  EXPECT_EQ(trees[0].duplicate_rx, 1u);
  EXPECT_EQ(trees[0].max_delivery_depth, 2);

  const PropagationSummary s = a.summary();
  EXPECT_DOUBLE_EQ(s.redundancy_ratio, 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(s.reachability, 1.0);
}

TEST(PropagationAssembler, SpamRejectDepthShallowAndDeep) {
  PropagationAssembler a;
  // Attack A: rejected right at the first hop (depth 1).
  a.ingest(10, {make_trace(0xA7, {{1'000, "publish", "node=10,shard=0"},
                                  {1'020, "fwd", "node=10,to=11"}},
                           "spam")});
  a.ingest(11, {make_trace(0xA7, {{2'000, "rx", "node=11,shard=0,from=10"},
                                  {2'050, "verdict", "spam"}},
                           "spam")});
  // Attack B: relayed unvalidated for two hops, killed at depth 3.
  a.ingest(10, {make_trace(0xB7, {{5'000, "publish", "node=10,shard=0"},
                                  {5'020, "fwd", "node=10,to=12"}},
                           "spam")});
  a.ingest(12, {make_trace(0xB7, {{6'000, "rx", "node=12,shard=0,from=10"},
                                  {6'020, "fwd", "node=12,to=13"}},
                           "truncated")});
  a.ingest(13, {make_trace(0xB7, {{7'000, "rx", "node=13,shard=0,from=12"},
                                  {7'020, "fwd", "node=13,to=14"}},
                           "truncated")});
  a.ingest(14, {make_trace(0xB7, {{8'000, "rx", "node=14,shard=0,from=13"},
                                  {8'050, "verdict", "spam"}},
                           "spam")});

  const std::vector<PropagationTree> trees = a.assemble();
  ASSERT_EQ(trees.size(), 2u);  // sorted by key: 0xA7 then 0xB7
  EXPECT_TRUE(trees[0].rejected);
  EXPECT_EQ(trees[0].reject_depth, 1);
  EXPECT_TRUE(trees[1].rejected);
  EXPECT_EQ(trees[1].reject_depth, 3);

  const PropagationSummary s = a.summary();
  EXPECT_EQ(s.rejected_trees, 2u);
  EXPECT_EQ(s.complete_trees, 0u);

  // Forensics: each rejected tree becomes an attack record whose slash
  // chain keeps only events at/after ITS publish.
  a.ingest_flight(11, {{2'500, 1, "slash", "commit index=10"},
                       {9'000, 2, "slash", "member_slashed index=10"},
                       {100, 0, "reshard", "unrelated"}});
  const std::string forensics = a.forensics_json();
  EXPECT_NE(forensics.find("\"attacks\":["), std::string::npos);
  EXPECT_NE(forensics.find("\"reject_depth\":1"), std::string::npos);
  EXPECT_NE(forensics.find("\"reject_depth\":3"), std::string::npos);
  EXPECT_NE(forensics.find("member_slashed index=10"), std::string::npos);
  EXPECT_EQ(forensics.find("unrelated"), std::string::npos);
  // Attack B published at 5000ns: the 2500ns commit is outside its
  // causal window, so "commit" shows up exactly once (attack A's chain),
  // while the later member_slashed appears in both chains.
  std::size_t commit_count = 0;
  for (std::size_t pos = forensics.find("commit index=10");
       pos != std::string::npos;
       pos = forensics.find("commit index=10", pos + 1)) {
    ++commit_count;
  }
  EXPECT_EQ(commit_count, 1u);
  std::size_t slashed_count = 0;
  for (std::size_t pos = forensics.find("member_slashed index=10");
       pos != std::string::npos;
       pos = forensics.find("member_slashed index=10", pos + 1)) {
    ++slashed_count;
  }
  EXPECT_EQ(slashed_count, 2u);
  EXPECT_NE(forensics.find("\"slash_events\":2"), std::string::npos);
  // The whole record, byte for byte.
  EXPECT_EQ(forensics,
            R"({"attacks":[{"key":"00000000000000a7","origin_node":10,)"
            R"("publish_ns":1000,"reject_depth":1,"observations":[)"
            R"({"node":11,"rx_ns":2000,"verdict":"spam"}],"slash_chain":[)"
            R"({"node":11,"at_ns":2500,"epoch":1,"detail":"commit index=10"},)"
            R"({"node":11,"at_ns":9000,"epoch":2,)"
            R"("detail":"member_slashed index=10"}]},)"
            R"({"key":"00000000000000b7","origin_node":10,"publish_ns":5000,)"
            R"("reject_depth":3,"observations":[)"
            R"({"node":12,"rx_ns":6000,"verdict":""},)"
            R"({"node":13,"rx_ns":7000,"verdict":""},)"
            R"({"node":14,"rx_ns":8000,"verdict":"spam"}],"slash_chain":[)"
            R"({"node":11,"at_ns":9000,"epoch":2,)"
            R"("detail":"member_slashed index=10"}]}],"slash_events":2})");
}

TEST(PropagationAssembler, MarkedAdversaryAnchorsRootlessTrees) {
  // A flooder injects below the traced publish path: its own node shows
  // only deliver/fwd (no publish, no rx), and — within quota — the spam
  // is ACCEPTED fleet-wide. Unmarked, that tree has no origin and would
  // count as a failed honest reconstruction; marked, it is attack
  // evidence and feeds forensics.
  PropagationAssembler a;
  a.ingest(7, {make_trace(0x5AD, {{1'000, "deliver", "node=7"},
                                  {1'020, "fwd", "node=7,to=8"}})});
  a.ingest(8, {make_trace(0x5AD, {{2'000, "rx", "node=8,shard=0,from=7"},
                                  {2'050, "verdict", "accept"},
                                  {2'100, "deliver", "node=8"}})});
  // An honest tree that merely ROUTES THROUGH the adversary must keep
  // its classification: node 7 has a real rx there.
  a.ingest(1, {make_trace(0x0E5, {{3'000, "publish", "node=1,shard=0"},
                                  {3'010, "deliver", "node=1"},
                                  {3'020, "fwd", "node=1,to=7"}})});
  a.ingest(7, {make_trace(0x0E5, {{4'000, "rx", "node=7,shard=0,from=1"},
                                  {4'050, "verdict", "accept"},
                                  {4'100, "deliver", "node=7"}})});

  PropagationSummary before = a.summary();
  EXPECT_EQ(before.incomplete_trees, 1u);
  EXPECT_EQ(before.adversary_trees, 0u);

  a.mark_adversary(7);
  const PropagationSummary s = a.summary();
  EXPECT_EQ(s.trees, 2u);
  EXPECT_EQ(s.adversary_trees, 1u);
  EXPECT_EQ(s.incomplete_trees, 0u);
  EXPECT_EQ(s.complete_trees, 1u);  // the through-traffic tree survives

  const std::vector<PropagationTree> trees = a.assemble();
  ASSERT_EQ(trees.size(), 2u);  // sorted by key: 0x0E5 then 0x5AD
  EXPECT_FALSE(trees[0].adversary_origin);
  EXPECT_TRUE(trees[0].complete);
  EXPECT_TRUE(trees[1].adversary_origin);

  // Adversary-anchored trees join the forensics attack list even when
  // no validator rejected them (under-quota spam).
  EXPECT_NE(a.forensics_json().find("\"key\":\"00000000000005ad\""),
            std::string::npos);
  EXPECT_EQ(a.forensics_json().find("\"key\":\"00000000000000e5\""),
            std::string::npos);
  // A rootless record renders its unknown origin as null.
  EXPECT_EQ(a.forensics_json(),
            R"({"attacks":[{"key":"00000000000005ad","origin_node":null,)"
            R"("publish_ns":0,"reject_depth":-1,"observations":[)"
            R"({"node":8,"rx_ns":2000,"verdict":"accept"}],)"
            R"("slash_chain":[]}],"slash_events":0})");
}

TEST(PropagationAssembler, IncompleteTreesAreSurfacedNotSkipped) {
  PropagationAssembler a;
  // A receiver-side fragment with no origin trace: incomplete, counted.
  a.ingest(2, {make_trace(0xF00, {{2'000, "rx", "node=2,shard=0,from=1"},
                                  {2'100, "deliver", "node=2"}})});
  const PropagationSummary s = a.summary();
  EXPECT_EQ(s.trees, 1u);
  EXPECT_EQ(s.incomplete_trees, 1u);
  EXPECT_EQ(s.complete_trees, 0u);
  EXPECT_EQ(a.assemble()[0].max_delivery_depth, -1);  // unresolvable chain
}

TEST(PropagationAssembler, IngestIsIdempotentAndRichestWins) {
  PropagationAssembler a;
  const Trace lean =
      make_trace(0xEE, {{1'000, "publish", "node=1,shard=0"}}, "deliver");
  Trace rich = lean;
  rich.events.push_back({1'200, "fwd", "node=1,to=2"});
  rich.end_ns = 1'200;

  a.ingest(1, {lean});
  a.ingest(1, {lean});  // per-epoch re-collection: no duplication
  EXPECT_EQ(a.ingested_traces(), 1u);
  EXPECT_EQ(a.assemble()[0].nodes[0].forwards, 0u);

  a.ingest(1, {rich});  // later harvest with the late fwd annotation
  EXPECT_EQ(a.ingested_traces(), 1u);
  EXPECT_EQ(a.assemble()[0].nodes[0].forwards, 1u);

  a.ingest(1, {lean});  // stale re-offer never regresses the tree
  EXPECT_EQ(a.assemble()[0].nodes[0].forwards, 1u);
}

TEST(PropagationAssembler, ChromeTraceExportShape) {
  PropagationAssembler a;
  a.ingest(1, {make_trace(0xCC, {{1'000, "publish", "node=1,shard=0"},
                                 {1'100, "deliver", "node=1"}})});
  a.ingest(2, {make_trace(0xCC, {{2'000, "rx", "node=2,shard=0,from=1"},
                                 {2'100, "deliver", "node=2"}})});
  const std::string json = a.chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // process names
  EXPECT_NE(json.find("\"name\":\"node 1\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // spans
  EXPECT_NE(json.find("\"cat\":\"propagation\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
}

}  // namespace
}  // namespace waku::obs

namespace waku::rln {
namespace {

// -- Nullifier log: aggregated stats -----------------------------------------

TEST(NullifierLogStats, BucketSizesCoverEveryEpoch) {
  NullifierLog log;
  // 5 epochs x 40 nullifiers.
  std::size_t expected_entries = 0;
  for (std::uint64_t epoch = 100; epoch < 105; ++epoch) {
    for (std::uint64_t n = 0; n < 40; ++n) {
      sss::Share share{ff::Fr::from_u64(n + 1), ff::Fr::from_u64(epoch)};
      EXPECT_EQ(
          log.observe(epoch, ff::Fr::from_u64(epoch * 1000 + n), share).outcome,
          NullifierLog::Outcome::kNew);
      ++expected_entries;
    }
  }
  const NullifierLog::Stats stats = log.stats();
  EXPECT_EQ(stats.entries, expected_entries);
  EXPECT_EQ(stats.buckets, 5u);
  EXPECT_EQ(stats.min_epoch, 100u);

  // bucket_sizes must see every epoch, and its sum must equal the
  // entry count.
  const auto buckets = log.bucket_sizes();
  ASSERT_EQ(buckets.size(), 5u);
  std::size_t sum = 0;
  for (const auto& [epoch, size] : buckets) {
    EXPECT_EQ(size, 40u) << "epoch " << epoch;
    sum += size;
  }
  EXPECT_EQ(sum, stats.entries);
}

// -- Node-level exposition and spans -----------------------------------------

HarnessConfig obs_config(std::uint32_t sample_every) {
  HarnessConfig cfg;
  cfg.num_nodes = 3;
  cfg.degree = 2;
  cfg.block_interval_ms = 2'000;
  cfg.node.tree_depth = 10;
  cfg.node.validator.epoch.epoch_length_ms = 5'000;
  cfg.node.validator.max_epoch_gap = 2;
  cfg.node.obs.trace.sample_every = sample_every;
  cfg.seed = 0x0B5;
  return cfg;
}

TEST(NodeObservability, SampledTraceCoversPublishToDeliver) {
  RlnHarness h(obs_config(/*sample_every=*/1));
  h.register_all();
  h.run_ms(5'000);
  ASSERT_EQ(h.node(0).try_publish(to_bytes("traced hello")),
            WakuRlnRelayNode::PublishStatus::kOk);
  h.run_ms(10'000);
  EXPECT_EQ(h.total_delivered(), h.size());

  // Per-node rings merge by trace key into one cross-node view: the
  // publisher contributes the publish span, every receiver an
  // rx -> verdict -> deliver chain. All nodes agreed to sample it
  // (the decision is a pure function of the content-derived key).
  std::set<std::string> stages;
  std::size_t finished_nodes = 0;
  for (std::size_t i = 0; i < h.size(); ++i) {
    for (const obs::Trace& t : h.node(i).telemetry().tracer().completed()) {
      for (const obs::TraceEvent& ev : t.events) stages.insert(ev.stage);
      if (t.outcome == "deliver") ++finished_nodes;
    }
  }
  EXPECT_TRUE(stages.contains("publish"));
  EXPECT_TRUE(stages.contains("rx"));
  EXPECT_TRUE(stages.contains("verdict"));
  EXPECT_TRUE(stages.contains("deliver"));
  EXPECT_EQ(finished_nodes, h.size());  // every node closed its span

  const obs::TraceCollectorStats stats =
      h.node(1).telemetry().tracer().stats();
  EXPECT_GE(stats.sampled, 1u);
  EXPECT_GE(stats.finished, 1u);
}

TEST(NodeObservability, MetricsTextExposesPipelineAndExecutorFamilies) {
  RlnHarness h(obs_config(/*sample_every=*/1));
  h.register_all();
  h.run_ms(5'000);
  ASSERT_EQ(h.node(0).try_publish(to_bytes("measured hello")),
            WakuRlnRelayNode::PublishStatus::kOk);
  h.run_ms(10'000);

  const std::string text = h.node(1).telemetry().metrics_text();
  // Stage latency histograms with per-shard labels (registry-rendered).
  EXPECT_NE(text.find("# TYPE waku_pipeline_stage_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("stage=\"epoch_gate\""), std::string::npos);
  EXPECT_NE(text.find("stage=\"root_check\""), std::string::npos);
  EXPECT_NE(text.find("waku_pipeline_validate_seconds"), std::string::npos);
  // p50/p95/p99 quantile gauges per stage and shard.
  EXPECT_NE(text.find("waku_pipeline_stage_quantile_seconds"),
            std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.99\""), std::string::npos);
  // Verdict-reason counters and executor lane families.
  EXPECT_NE(text.find("waku_pipeline_verdicts_total"), std::string::npos);
  EXPECT_NE(text.find("reason=\"accept\""), std::string::npos);
  EXPECT_NE(text.find("waku_executor_queue_wait_seconds"), std::string::npos);
  EXPECT_NE(text.find("waku_executor_service_seconds"), std::string::npos);
  EXPECT_NE(text.find("waku_executor_lane_depth_high_watermark"),
            std::string::npos);
  // Nullifier-log and trace families.
  EXPECT_NE(text.find("waku_nullifier_log_entries"), std::string::npos);
  EXPECT_NE(text.find("waku_root_cache_hits_total"), std::string::npos);
  EXPECT_NE(text.find("waku_trace_sampled_total"), std::string::npos);

  const std::string json = h.node(1).telemetry().metrics_json();
  EXPECT_NE(json.find("\"pipeline\""), std::string::npos);
  EXPECT_NE(json.find("\"executor_lanes\""), std::string::npos);
  EXPECT_NE(json.find("\"registry\""), std::string::npos);

  // The coherent snapshot matches what exposition rendered from.
  const NodeTelemetrySnapshot snap = h.node(1).telemetry().snapshot();
  EXPECT_GE(snap.pipeline.accepted, 1u);
  EXPECT_GE(snap.node.delivered, 1u);
  EXPECT_EQ(snap.per_shard.size(), 1u);

  // Epoch-boundary history accumulated as self-monitor fleet rows.
  EXPECT_NE(json.find("\"fleet\":[{\"epoch\":"), std::string::npos);
}

TEST(NodeObservability, TelemetryOnRunsStayDeterministic) {
  // Two identical runs with telemetry + full tracing must produce
  // byte-identical exposition: every recorded latency flows through the
  // virtual clock, so the histograms are pure functions of the seed.
  auto run = [] {
    RlnHarness h(obs_config(/*sample_every=*/1));
    h.register_all();
    h.run_ms(5'000);
    EXPECT_EQ(h.node(0).try_publish(to_bytes("deterministic")),
              WakuRlnRelayNode::PublishStatus::kOk);
    h.run_ms(10'000);
    const NodeTelemetry& telemetry = h.node(2).telemetry();
    return telemetry.metrics_text() + telemetry.metrics_json();
  };
  EXPECT_EQ(run(), run());
}

TEST(NodeObservability, DisabledTelemetryKeepsCountersButNoStageSeries) {
  HarnessConfig cfg = obs_config(/*sample_every=*/0);
  cfg.node.obs.enabled = false;
  RlnHarness h(cfg);
  h.register_all();
  h.run_ms(5'000);
  ASSERT_EQ(h.node(0).try_publish(to_bytes("unmeasured hello")),
            WakuRlnRelayNode::PublishStatus::kOk);
  h.run_ms(10'000);
  EXPECT_EQ(h.total_delivered(), h.size());

  EXPECT_EQ(h.node(1).telemetry().clock(), nullptr);
  EXPECT_NE(h.node(1).telemetry().metrics_json().find("\"fleet\":[]"),
            std::string::npos);
  const std::string text = h.node(1).telemetry().metrics_text();
  // The always-cheap counters still render...
  EXPECT_NE(text.find("waku_node_delivered_total"), std::string::npos);
  EXPECT_NE(text.find("waku_pipeline_verdicts_total"), std::string::npos);
  // ...but no stage histograms were ever registered or recorded.
  EXPECT_EQ(text.find("waku_pipeline_stage_seconds_bucket"),
            std::string::npos);
  EXPECT_EQ(h.node(1).telemetry().tracer().stats().sampled, 0u);
}

// -- Cross-node propagation: assembly from real harness rings ----------------

TEST(NodeObservability, PropagationTreeAssemblesFromNodeRings) {
  RlnHarness h(obs_config(/*sample_every=*/1));
  h.register_all();
  h.run_ms(5'000);
  ASSERT_EQ(h.node(0).try_publish(to_bytes("hop graph")),
            WakuRlnRelayNode::PublishStatus::kOk);
  h.run_ms(10'000);
  ASSERT_EQ(h.total_delivered(), h.size());

  obs::PropagationAssembler a;
  for (std::size_t i = 0; i < h.size(); ++i) {
    a.ingest(h.node(i).node_id(), h.node(i).telemetry().trace_dump());
  }
  a.set_default_subscribers(h.size());

  const std::vector<obs::PropagationTree> trees = a.assemble();
  ASSERT_EQ(trees.size(), 1u);
  const obs::PropagationTree& tree = trees[0];
  EXPECT_TRUE(tree.complete);
  EXPECT_TRUE(tree.has_origin);
  EXPECT_EQ(tree.origin_node, h.node(0).node_id());
  EXPECT_EQ(tree.deliveries, h.size());
  EXPECT_GT(tree.latency_ns(), 0u);
  // Hop provenance made it through the wire hooks: every receiver knows
  // who it first heard the message from, and someone forwarded it.
  std::size_t forwards = 0;
  for (const obs::PropagationNodeView& v : tree.nodes) {
    if (v.node != tree.origin_node) {
      EXPECT_NE(v.from, obs::kNoPeer);
      EXPECT_GE(v.depth, 1);
    }
    forwards += v.forwards;
  }
  EXPECT_GE(forwards, 1u);
  EXPECT_EQ(a.summary().complete_trees, 1u);
  EXPECT_DOUBLE_EQ(a.summary().reachability, 1.0);
}

TEST(NodeObservability, PropagationAssemblySurvivesNodeKill) {
  RlnHarness h(obs_config(/*sample_every=*/1));
  h.register_all();
  h.run_ms(5'000);
  ASSERT_EQ(h.node(0).try_publish(to_bytes("pre-kill message")),
            WakuRlnRelayNode::PublishStatus::kOk);
  h.run_ms(10'000);

  // Epoch harvest BEFORE the kill: node 2's ring is captured while it is
  // alive, exactly like the per-epoch collection a campaign runs.
  obs::PropagationAssembler a;
  for (std::size_t i = 0; i < h.size(); ++i) {
    a.ingest(h.node(i).node_id(), h.node(i).telemetry().trace_dump());
  }
  h.kill_node(2);
  h.run_ms(5'000);
  // Post-kill harvest (the dead node contributes nothing new): trees
  // assembled from earlier harvests must not regress.
  for (std::size_t i = 0; i < h.size(); ++i) {
    if (!h.alive(i)) continue;
    a.ingest(h.node(i).node_id(), h.node(i).telemetry().trace_dump());
  }
  const std::vector<obs::PropagationTree> trees = a.assemble();
  ASSERT_EQ(trees.size(), 1u);
  EXPECT_TRUE(trees[0].complete);
  EXPECT_EQ(trees[0].deliveries, 3u);  // includes the now-dead node's view
}

std::string sha256_hex(const std::string& s) {
  return to_hex(hash::sha256(to_bytes(s)));
}

TEST(NodeObservability, PropagationOutputsAreByteIdentical) {
  // The assembler only iterates sorted containers; two identical runs
  // must render byte-identical summary, chrome-trace, and forensics JSON,
  // and those bytes are pinned so a change to the JSON encoding shows.
  auto run = [] {
    RlnHarness h(obs_config(/*sample_every=*/1));
    h.register_all();
    h.run_ms(5'000);
    EXPECT_EQ(h.node(0).try_publish(to_bytes("deterministic tree")),
              WakuRlnRelayNode::PublishStatus::kOk);
    h.run_ms(10'000);
    obs::PropagationAssembler a;
    for (std::size_t i = 0; i < h.size(); ++i) {
      a.ingest(h.node(i).node_id(), h.node(i).telemetry().trace_dump());
      a.ingest_flight(h.node(i).node_id(),
                      h.node(i).telemetry().flight_recorder().events());
    }
    a.set_default_subscribers(h.size());
    return a.summary_json() + a.chrome_trace_json() + a.forensics_json();
  };
  const std::string first = run();
  EXPECT_EQ(first, run());
  EXPECT_EQ(sha256_hex(first),
            "8e981115ef60c30de72202d06183548162ed29651c006aa7a8f018a3272f9e9e");
}

// -- Flight recorder + operator loop (node wiring) ---------------------------

std::string fresh_obs_dir(const std::string& name) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "waku_obs_tests" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// Harness tuned so a driver- or operator-run cutover completes quickly:
/// the load budget sits well under the ~0.2 msg/s a one-publish-per-epoch
/// workload realizes, so recommend() trips deterministically.
HarnessConfig operator_config() {
  HarnessConfig cfg = obs_config(/*sample_every=*/0);
  cfg.node.operator_loop.enabled = true;
  cfg.node.operator_loop.trip_epochs = 2;
  cfg.node.operator_loop.phase_dwell_epochs = 1;
  cfg.node.operator_loop.cooldown_epochs = 1'000;  // one action per run
  cfg.node.load_tracker.overload_msgs_per_sec = 0.05;
  return cfg;
}

TEST(NodeFlightRecorder, CutoverLeavesContinuousEventTrail) {
  RlnHarness h(obs_config(/*sample_every=*/0));
  h.register_all();
  h.run_ms(5'000);

  for (std::size_t i = 0; i < h.size(); ++i) {
    ASSERT_TRUE(h.node(i).begin_reshard(2, {}));
  }
  h.run_ms(5'000);
  for (int step = 0; step < 3; ++step) {
    for (std::size_t i = 0; i < h.size(); ++i) {
      ASSERT_TRUE(h.node(i).advance_reshard());
    }
    h.run_ms(5'000);
  }
  // Past linger (max_epoch_gap + 1 epochs) the coordinator folds back.
  h.run_ms(25'000);
  EXPECT_EQ(h.node(0).shards().map().num_shards(), 2u);

  // Every phase of the lifecycle shows up in the ring, in order.
  std::vector<std::string> reshard_details;
  for (const obs::FlightEvent& ev :
       h.node(2).telemetry().flight_recorder().events()) {
    if (ev.kind == "reshard") reshard_details.push_back(ev.detail);
  }
  ASSERT_EQ(reshard_details.size(), 5u);
  EXPECT_EQ(reshard_details[0], "phase=announce target=2");
  EXPECT_EQ(reshard_details[1], "phase=overlap");
  EXPECT_EQ(reshard_details[2], "phase=drain");
  EXPECT_EQ(reshard_details[3], "phase=stable");
  EXPECT_EQ(reshard_details[4], "linger_end");

  // Ring accounting stays coherent and the families render.
  const obs::FlightRecorder& rec = h.node(2).telemetry().flight_recorder();
  EXPECT_EQ(rec.recorded(), rec.events().size() + rec.evicted());
  const std::string text = h.node(2).telemetry().metrics_text();
  EXPECT_NE(text.find("waku_flight_events_total"), std::string::npos);
  EXPECT_NE(text.find("waku_operator_decisions_total 0"), std::string::npos);
  EXPECT_NE(text.find("waku_anomaly_fired_total"), std::string::npos);
  const std::string json = h.node(2).telemetry().metrics_json();
  EXPECT_NE(json.find("\"operator\""), std::string::npos);
  EXPECT_NE(json.find("\"fleet\""), std::string::npos);
}

TEST(NodeFlightRecorder, OperatorDecisionsSurviveKillRestart) {
  namespace fs = std::filesystem;
  const std::string dir = fresh_obs_dir("operator_restart");
  HarnessConfig cfg = operator_config();
  cfg.persist_dir = dir;
  // WAL-only durability: no automatic snapshots, so every operator
  // decision must come back through kOperatorDecision replay.
  cfg.node.persist.snapshot_every_records = 0;
  RlnHarness h(cfg);
  h.register_all();
  h.run_ms(5'000);

  // One publish per epoch keeps the hot shard over the tuned budget;
  // the operator loop begins and walks the cutover on its own.
  for (int e = 0; e < 14; ++e) {
    (void)h.node(static_cast<std::size_t>(e) % h.size())
        .try_publish(to_bytes("load " + std::to_string(e)));
    h.run_ms(5'000);
  }
  const std::uint64_t decisions =
      h.node(1).operator_loop().bookkeeping().decisions;
  ASSERT_GE(decisions, 4u);  // begin + 3 advances, at least
  ASSERT_EQ(h.node(1).shards().phase(), shard::ReshardPhase::kStable);
  const std::uint16_t shards_after = h.node(1).shards().map().num_shards();
  ASSERT_GT(shards_after, 1u);

  h.kill_node(1);
  h.restart_node(1);

  // Bookkeeping replayed exactly: same decision count, same layout.
  EXPECT_EQ(h.node(1).operator_loop().bookkeeping().decisions, decisions);
  EXPECT_EQ(h.node(1).shards().map().num_shards(), shards_after);
  EXPECT_EQ(h.node(1).shards().phase(), shard::ReshardPhase::kStable);

  // The fresh ring was re-seeded from the WAL and stamped with the boot.
  bool saw_restart = false;
  bool saw_replayed_decision = false;
  for (const obs::FlightEvent& ev :
       h.node(1).telemetry().flight_recorder().events()) {
    if (ev.kind == "restart") saw_restart = true;
    if (ev.kind == "operator" &&
        ev.detail.find("(wal replay)") != std::string::npos) {
      saw_replayed_decision = true;
    }
  }
  EXPECT_TRUE(saw_restart);
  EXPECT_TRUE(saw_replayed_decision);

  // The crash-restart postmortem was rendered and persisted.
  const std::string& postmortem = h.node(1).telemetry().last_postmortem();
  EXPECT_NE(postmortem.find("\"reason\":\"crash-restart\""),
            std::string::npos);
  EXPECT_NE(postmortem.find("\"kind\":\"operator\""), std::string::npos);
  EXPECT_TRUE(fs::exists(fs::path(dir) / "node1" / "postmortem.json"));

  // Cooldown came back with the snapshot-free replay: more quiet epochs
  // must not re-trigger a begin.
  h.run_ms(20'000);
  EXPECT_EQ(h.node(1).operator_loop().bookkeeping().decisions, decisions);
}

TEST(NodeFlightRecorder, OperatorAndRecorderRunsStayDeterministic) {
  // The whole observe -> decide -> act loop rides the virtual clock, so
  // two identical runs must agree byte-for-byte on exposition AND on the
  // flight ring — the property that makes postmortems trustworthy.
  auto run = [] {
    RlnHarness h(operator_config());
    h.register_all();
    h.run_ms(5'000);
    for (int e = 0; e < 12; ++e) {
      (void)h.node(static_cast<std::size_t>(e) % h.size())
          .try_publish(to_bytes("det " + std::to_string(e)));
      h.run_ms(5'000);
    }
    EXPECT_GE(h.node(2).operator_loop().bookkeeping().decisions, 4u);
    const NodeTelemetry& telemetry = h.node(2).telemetry();
    std::string out = telemetry.metrics_text() + telemetry.metrics_json();
    out += telemetry.flight_recorder().postmortem_json("determinism-check");
    return out;
  };
  EXPECT_EQ(run(), run());
}

// -- Exposition pins and the deployment sum -----------------------------------

/// The deployment examples/metrics_dump.cpp runs: three nodes, two epochs
/// of honest traffic, then one double-signal.
void run_metrics_dump_deployment(RlnHarness& net) {
  net.register_all();
  net.run_ms(5'000);
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < net.size(); ++i) {
      (void)net.node(i).try_publish(
          to_bytes("metrics round " + std::to_string(round) + " from " +
                   std::to_string(i)));
    }
    net.run_ms(5'000);
  }
  (void)net.node(2).force_publish(to_bytes("spam a"));
  (void)net.node(2).force_publish(to_bytes("spam b"));
  net.run_ms(10'000);
}

/// The pinned SHA-256 of `output` in scripts/identity_manifest.txt (one
/// `<sha256>  <output>` line each), which scripts/check_identity.sh checks
/// against the example's real stdout.
std::string manifest_hash(const std::string& output) {
  std::ifstream manifest(WAKU_SOURCE_DIR "/scripts/identity_manifest.txt");
  std::string digest;
  std::string name;
  while (manifest >> digest >> name) {
    if (name == output) return digest;
  }
  ADD_FAILURE() << "no " << output << " line in identity_manifest.txt";
  return "";
}

TEST(NodeObservability, MetricsDumpOutputsArePinned) {
  // Every exposition byte of node 0, hashed exactly as the example prints
  // it (text as-is, the JSON dumps with a trailing newline). A refactor
  // of the telemetry plumbing must leave all five untouched.
  HarnessConfig cfg = obs_config(/*sample_every=*/1);
  cfg.seed = 0xD0;
  RlnHarness net(cfg);
  run_metrics_dump_deployment(net);
  const NodeTelemetry& telemetry = net.node(0).telemetry();

  obs::FleetAggregator fleet;
  for (std::size_t i = 0; i < net.size(); ++i) {
    fleet.ingest(net.node(i).health_sample());
  }
  fleet.close_epoch(net.node(0).current_epoch());

  EXPECT_EQ(sha256_hex(telemetry.metrics_text()),
            manifest_hash("example_metrics_dump.text"));
  EXPECT_EQ(sha256_hex(telemetry.metrics_json() + "\n"),
            manifest_hash("example_metrics_dump.json"));
  EXPECT_EQ(sha256_hex(telemetry.tracer().to_json() + "\n"),
            manifest_hash("example_metrics_dump.traces"));
  EXPECT_EQ(sha256_hex(fleet.timeline_json() + "\n"),
            manifest_hash("example_metrics_dump.fleet"));
  EXPECT_EQ(
      sha256_hex(telemetry.flight_recorder().postmortem_json("metrics-dump") +
                 "\n"),
      manifest_hash("example_metrics_dump.postmortem"));
}

constexpr const char* kSnapshotSections[] = {"node",     "router", "pipeline",
                                             "executor", "trace",  "operator"};

TEST(NodeTelemetrySum, SumIntoEmptyRendersLikeTheSnapshot) {
  HarnessConfig cfg = obs_config(/*sample_every=*/1);
  cfg.seed = 0xD0;
  RlnHarness net(cfg);
  run_metrics_dump_deployment(net);
  const NodeTelemetrySnapshot snap = net.node(0).telemetry().snapshot();
  ASSERT_GE(snap.pipeline.spam_detected + snap.node.slash_commits, 1u);

  NodeTelemetrySnapshot sum;
  sum += snap;
  for (const char* section : kSnapshotSections) {
    EXPECT_EQ(telemetry_section_json(sum, section),
              telemetry_section_json(snap, section))
        << section;
  }
  EXPECT_EQ(sum.per_shard.size(), snap.per_shard.size());
}

TEST(NodeTelemetrySum, TwoNodeSumAddsCountersAndTakesTheLatestAction) {
  // An operator-run cutover gives every node a non-zero last_action_epoch,
  // so a sum that added it would read twice the epoch.
  RlnHarness h(operator_config());
  h.register_all();
  h.run_ms(5'000);
  for (int e = 0; e < 12; ++e) {
    (void)h.node(static_cast<std::size_t>(e) % h.size())
        .try_publish(to_bytes("sum " + std::to_string(e)));
    h.run_ms(5'000);
  }
  const NodeTelemetrySnapshot a = h.node(0).telemetry().snapshot();
  const NodeTelemetrySnapshot b = h.node(1).telemetry().snapshot();
  ASSERT_GT(a.operator_loop.last_action_epoch, 0u);
  ASSERT_GT(b.operator_loop.last_action_epoch, 0u);

  NodeTelemetrySnapshot sum;
  sum += a;
  sum += b;
  EXPECT_EQ(sum.node.published, a.node.published + b.node.published);
  EXPECT_EQ(sum.node.delivered, a.node.delivered + b.node.delivered);
  EXPECT_EQ(sum.router.forwarded, a.router.forwarded + b.router.forwarded);
  EXPECT_EQ(sum.pipeline.accepted, a.pipeline.accepted + b.pipeline.accepted);
  EXPECT_EQ(sum.executor.submitted,
            a.executor.submitted + b.executor.submitted);
  EXPECT_EQ(sum.operator_loop.decisions,
            a.operator_loop.decisions + b.operator_loop.decisions);
  EXPECT_EQ(sum.flight_recorded, a.flight_recorded + b.flight_recorded);
  EXPECT_EQ(sum.operator_loop.last_action_epoch,
            std::max(a.operator_loop.last_action_epoch,
                     b.operator_loop.last_action_epoch));
  // Per-shard stats merge by shard id.
  std::uint64_t per_shard_accepted = 0;
  for (const auto& [s, stats] : sum.per_shard) {
    per_shard_accepted += stats.accepted;
  }
  EXPECT_EQ(per_shard_accepted, sum.pipeline.accepted);
}

}  // namespace
}  // namespace waku::rln

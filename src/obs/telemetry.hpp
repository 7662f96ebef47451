// Lock-cheap in-node telemetry: log2 latency histograms and a named
// registry with Prometheus-text / JSON exposition. Counters and gauges are
// not registry series: they are read from snapshots at exposition time
// and rendered through PrometheusWriter.
//
// Design constraints:
//   * the record path takes NO locks — histograms are arrays of relaxed
//     atomics;
//   * registration is rare and mutex-protected; returned references are
//     stable for the registry's lifetime (unique_ptr storage);
//   * histograms bucket by log2 of the recorded value (nanoseconds on
//     every latency family) and reconstruct p50/p95/p99 from the bucket
//     counts at snapshot time — a snapshot is a read of ~40 atomics, no
//     stop-the-world.
//
// Metric naming scheme (see src/obs/README.md): families are
// `waku_<subsystem>_<what>[_unit][_total]`, labels are rendered into the
// registered name at registration time (`waku_pipeline_verdicts_total`
// + `{shard="0",reason="accept"}`). Counters end in `_total`, latency
// histograms in `_seconds` (recorded in ns, scaled 1e-9 at exposition).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace waku::obs {

// ---------------------------------------------------------------------------
// Histogram: log2-bucketed, lock-free. Bucket i holds values v with
// bit_width(v) == i, i.e. bucket 0 is {0}, bucket i (i>=1) is
// [2^(i-1), 2^i - 1]; everything with bit_width > kBuckets-1 lands in
// the overflow bucket. Upper bound of bucket i is 2^i - 1 (inclusive),
// which is what the quantile walk and the Prometheus `le` labels use.

struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;  // same unit as recorded values (ns for latency)
  std::uint64_t p50 = 0;
  std::uint64_t p95 = 0;
  std::uint64_t p99 = 0;
  // bucket_counts[i] = observations in bucket i (NOT cumulative).
  std::vector<std::uint64_t> bucket_counts;

  // Upper (inclusive) bound of bucket i: 0 for bucket 0, else 2^i - 1.
  [[nodiscard]] static std::uint64_t bucket_upper(std::size_t i) noexcept {
    if (i == 0) return 0;
    if (i >= 64) return ~std::uint64_t{0};
    return (std::uint64_t{1} << i) - 1;
  }
};

class Histogram {
 public:
  // 40 finite buckets cover [0, 2^39-1] ns ≈ 9.2 min — far beyond any
  // per-stage latency; the last slot is the overflow bucket.
  static constexpr std::size_t kBuckets = 40;

  void record(std::uint64_t v) noexcept {
    std::size_t i = static_cast<std::size_t>(std::bit_width(v));
    if (i >= kBuckets) i = kBuckets - 1;
    buckets_[i].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }

  // Quantiles are the upper bound of the bucket the target rank falls
  // in — a <=2x overestimate by construction, which is the precision the
  // log2 layout buys. Taken against a self-consistent copy of the
  // bucket array (concurrent records may land between the loads; the
  // quantile walk uses its own bucket sum so ranks always resolve).
  [[nodiscard]] HistogramSnapshot snapshot() const {
    HistogramSnapshot s;
    s.bucket_counts.resize(kBuckets);
    for (std::size_t i = 0; i < kBuckets; ++i) {
      s.bucket_counts[i] = buckets_[i].load(std::memory_order_relaxed);
      s.count += s.bucket_counts[i];
    }
    s.sum = sum_.load(std::memory_order_relaxed);
    s.p50 = quantile(s, 0.50);
    s.p95 = quantile(s, 0.95);
    s.p99 = quantile(s, 0.99);
    return s;
  }

 private:
  static std::uint64_t quantile(const HistogramSnapshot& s, double q) {
    if (s.count == 0) return 0;
    const auto target = static_cast<std::uint64_t>(
        q * static_cast<double>(s.count - 1)) + 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < s.bucket_counts.size(); ++i) {
      seen += s.bucket_counts[i];
      if (seen >= target) return HistogramSnapshot::bucket_upper(i);
    }
    return HistogramSnapshot::bucket_upper(s.bucket_counts.size() - 1);
  }

  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

// ---------------------------------------------------------------------------
// Telemetry registry. Names are full series names with labels already
// rendered (e.g. `waku_pipeline_stage_seconds{stage="root_check",shard="0"}`
// is registered under family "waku_pipeline_stage_seconds" with label
// string `stage="root_check",shard="0"`). Registration takes the mutex;
// the returned references are stable and lock-free to use.

class Telemetry {
 public:
  Telemetry();
  ~Telemetry();  // out-of-line: Family is incomplete here
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  Histogram& histogram(const std::string& family,
                       const std::string& labels = "",
                       const std::string& help = "");

  // Prometheus text exposition of every registered family. Families
  // registered with a name ending in "_seconds" are assumed to record
  // nanoseconds and are scaled by 1e-9.
  [[nodiscard]] std::string to_prometheus() const;

  // JSON object {family: [series...]} of the same data (quantiles
  // included).
  [[nodiscard]] std::string to_json() const;

 private:
  struct Family;

  mutable std::mutex mu_;
  // map keeps exposition ordering deterministic.
  std::map<std::string, std::unique_ptr<Family>> families_;
};

// ---------------------------------------------------------------------------
// PrometheusWriter: the exposition primitives, shared between the
// registry and ad-hoc snapshot metrics (executor lanes, nullifier-log
// gauges) so every emitted family goes through the same formatting —
// and therefore the same scripts/check_metrics_format.py rules.

class PrometheusWriter {
 public:
  void help_type(const std::string& family, const std::string& type,
                 const std::string& help);
  void counter(const std::string& family, const std::string& labels,
               std::uint64_t value);
  void gauge(const std::string& family, const std::string& labels,
             double value);
  // scale multiplies bucket bounds and sum (1e-9 renders ns as seconds).
  void histogram(const std::string& family, const std::string& labels,
                 const HistogramSnapshot& snap, double scale);

  [[nodiscard]] const std::string& text() const { return out_; }

 private:
  void sample(const std::string& family, const std::string& labels,
              const std::string& value);
  std::string out_;
};

[[nodiscard]] std::string format_double(double v);

}  // namespace waku::obs

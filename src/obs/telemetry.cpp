#include "telemetry.hpp"

#include <cinttypes>
#include <cstdio>

#include "obs/json.hpp"

namespace waku::obs {

std::string format_double(double v) {
  char buf[64];
  // %.17g round-trips; trim to %g-style readability for the common
  // integral / short-fraction cases.
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Registry internals

struct Telemetry::Family {
  std::string help;
  // map (keyed by label string) for deterministic series order.
  std::map<std::string, std::unique_ptr<Histogram>> series;
};

Telemetry::Telemetry() = default;
Telemetry::~Telemetry() = default;

Histogram& Telemetry::histogram(const std::string& family,
                                const std::string& labels,
                                const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& fam = families_[family];
  if (!fam) fam = std::make_unique<Family>();
  // The first non-empty help string wins.
  if (fam->help.empty()) fam->help = help;
  auto& h = fam->series[labels];
  if (!h) h = std::make_unique<Histogram>();
  return *h;
}

std::string Telemetry::to_prometheus() const {
  PrometheusWriter w;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, fam] : families_) {
    w.help_type(name, "histogram", fam->help);
    // Latency histograms are recorded in ns and exposed in seconds;
    // the convention is encoded in the family suffix.
    const bool seconds = name.size() >= 8 &&
                         name.compare(name.size() - 8, 8, "_seconds") == 0;
    for (const auto& [labels, h] : fam->series) {
      w.histogram(name, labels, h->snapshot(), seconds ? 1e-9 : 1.0);
    }
  }
  return w.text();
}

std::string Telemetry::to_json() const {
  JsonWriter w;
  w.obj();
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, fam] : families_) {
    w.key(name).arr();
    for (const auto& [labels, h] : fam->series) {
      const auto snap = h->snapshot();
      w.obj().key("labels").str(labels).key("count").u64(snap.count);
      w.key("sum").u64(snap.sum).key("p50").u64(snap.p50);
      w.key("p95").u64(snap.p95).key("p99").u64(snap.p99).end();
    }
    w.end();
  }
  return std::move(w).take();
}

// ---------------------------------------------------------------------------
// PrometheusWriter

void PrometheusWriter::help_type(const std::string& family,
                                 const std::string& type,
                                 const std::string& help) {
  out_ += "# HELP " + family + " " +
          (help.empty() ? std::string("(no help)") : help) + "\n";
  out_ += "# TYPE " + family + " " + type + "\n";
}

void PrometheusWriter::sample(const std::string& family,
                              const std::string& labels,
                              const std::string& value) {
  out_ += family;
  if (!labels.empty()) {
    out_ += "{" + labels + "}";
  }
  out_ += " " + value + "\n";
}

void PrometheusWriter::counter(const std::string& family,
                               const std::string& labels,
                               std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  sample(family, labels, buf);
}

void PrometheusWriter::gauge(const std::string& family,
                             const std::string& labels, double value) {
  sample(family, labels, format_double(value));
}

void PrometheusWriter::histogram(const std::string& family,
                                 const std::string& labels,
                                 const HistogramSnapshot& snap, double scale) {
  // Collapse the log2 buckets to the non-empty prefix plus one empty
  // tail bucket, so a fresh histogram is 2 lines, not 41. The +Inf
  // bucket always closes the series.
  std::size_t last = 0;
  for (std::size_t i = 0; i < snap.bucket_counts.size(); ++i) {
    if (snap.bucket_counts[i] != 0) last = i + 1;
  }
  if (last >= snap.bucket_counts.size()) last = snap.bucket_counts.size() - 1;
  std::uint64_t cumulative = 0;
  char buf[64];
  for (std::size_t i = 0; i <= last; ++i) {
    cumulative += snap.bucket_counts[i];
    const double le =
        static_cast<double>(HistogramSnapshot::bucket_upper(i)) * scale;
    std::string ls = labels.empty() ? "" : labels + ",";
    ls += "le=\"" + format_double(le) + "\"";
    std::snprintf(buf, sizeof(buf), "%" PRIu64, cumulative);
    sample(family + "_bucket", ls, buf);
  }
  {
    std::string ls = labels.empty() ? "" : labels + ",";
    ls += "le=\"+Inf\"";
    std::snprintf(buf, sizeof(buf), "%" PRIu64, snap.count);
    sample(family + "_bucket", ls, buf);
  }
  sample(family + "_sum", labels,
         format_double(static_cast<double>(snap.sum) * scale));
  std::snprintf(buf, sizeof(buf), "%" PRIu64, snap.count);
  sample(family + "_count", labels, buf);
}

}  // namespace waku::obs

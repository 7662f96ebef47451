#include "telemetry.hpp"

#include <cinttypes>
#include <cstdio>
#include <stdexcept>

namespace waku::obs {

namespace {

constexpr int kKindCounter = 0;
constexpr int kKindHistogram = 1;

}  // namespace

std::string format_double(double v) {
  char buf[64];
  // %.17g round-trips; trim to %g-style readability for the common
  // integral / short-fraction cases.
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Registry internals

struct Telemetry::Series {
  std::string labels;
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Histogram> histogram;
};

struct Telemetry::Family {
  int kind = kKindCounter;
  std::string help;
  // map for deterministic series order within the family.
  std::map<std::string, std::unique_ptr<Series>> series;
};

Telemetry::Telemetry() = default;
Telemetry::~Telemetry() = default;

Telemetry::Series& Telemetry::series(const std::string& family,
                                     const std::string& labels,
                                     const std::string& help, int kind) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& fam = families_[family];
  if (!fam) {
    fam = std::make_unique<Family>();
    fam->kind = kind;
    fam->help = help;
  } else if (fam->kind != kind) {
    throw std::logic_error("telemetry family '" + family +
                           "' registered with two different kinds");
  }
  if (!fam->help.empty() && !help.empty() && fam->help != help) {
    // keep the first help string; mismatches are harmless.
  } else if (fam->help.empty()) {
    fam->help = help;
  }
  auto& s = fam->series[labels];
  if (!s) {
    s = std::make_unique<Series>();
    s->labels = labels;
    if (kind == kKindCounter) {
      s->counter = std::make_unique<Counter>();
    } else {
      s->histogram = std::make_unique<Histogram>();
    }
  }
  return *s;
}

Counter& Telemetry::counter(const std::string& family,
                            const std::string& labels,
                            const std::string& help) {
  return *series(family, labels, help, kKindCounter).counter;
}

Histogram& Telemetry::histogram(const std::string& family,
                                const std::string& labels,
                                const std::string& help) {
  return *series(family, labels, help, kKindHistogram).histogram;
}

std::string Telemetry::to_prometheus() const {
  PrometheusWriter w;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, fam] : families_) {
    const bool counter = fam->kind == kKindCounter;
    w.help_type(name, counter ? "counter" : "histogram", fam->help);
    // Latency histograms are recorded in ns and exposed in seconds;
    // the convention is encoded in the family suffix.
    const bool seconds = name.size() >= 8 &&
                         name.compare(name.size() - 8, 8, "_seconds") == 0;
    for (const auto& [labels, s] : fam->series) {
      if (counter) {
        w.counter(name, labels, s->counter->value());
      } else {
        w.histogram(name, labels, s->histogram->snapshot(),
                    seconds ? 1e-9 : 1.0);
      }
    }
  }
  return w.text();
}

std::string Telemetry::to_json() const {
  std::string out = "{";
  std::lock_guard<std::mutex> lock(mu_);
  bool first_fam = true;
  for (const auto& [name, fam] : families_) {
    if (!first_fam) out += ",";
    first_fam = false;
    out += "\"" + name + "\":[";
    bool first = true;
    for (const auto& [labels, s] : fam->series) {
      if (!first) out += ",";
      first = false;
      out += "{\"labels\":\"";
      for (char c : labels) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
      }
      out += "\",";
      char buf[160];
      if (fam->kind == kKindCounter) {
        std::snprintf(buf, sizeof(buf), "\"value\":%" PRIu64,
                      s->counter->value());
      } else {
        const auto snap = s->histogram->snapshot();
        std::snprintf(buf, sizeof(buf),
                      "\"count\":%" PRIu64 ",\"sum\":%" PRIu64
                      ",\"p50\":%" PRIu64 ",\"p95\":%" PRIu64
                      ",\"p99\":%" PRIu64,
                      snap.count, snap.sum, snap.p50, snap.p95, snap.p99);
      }
      out += buf;
      out += "}";
    }
    out += "]";
  }
  out += "}";
  return out;
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

// bench_critical_path: one wall-clock benchmark for publish -> relay ->
// deliver through the real stack, on four workloads.
//
//   critical_path --workload W [--seed N] [--seconds S] [--trace 0|1]
//                 [--out doc.json] [--workdir DIR]
//
// Plain runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) alternate plain and wall-clock-instrumented reps, replay a
// sample of the run's inputs through each layer, and report the
// per-layer metrics. Every metric is printed as `name value unit`; the
// last stdout line is one JSON object {correct, attempted, failed,
// metrics}. A broken invariant makes the run exit 1.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "layers.hpp"

namespace cp {
namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "critical_path: %s\n"
               "usage: critical_path --workload W [--seed N] [--seconds S]"
               " [--trace 0|1] [--out FILE] [--workdir DIR]\n"
               "workloads:",
               why.c_str());
  for (const std::string& w : workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value());
    } else if (arg == "--trace") {
      o.traced = value() != "0";
    } else if (arg == "--out") {
      o.out = value();
    } else if (arg == "--workdir") {
      o.workdir = value();
    } else {
      usage("unknown argument " + arg);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

/// Peak resident set (VmHWM) of this process, in MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0;
}

std::string cpu_model() {
  std::ifstream info("/proc/cpuinfo");
  std::string line;
  while (std::getline(info, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.12g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + json_string(metrics[i].name) +
           ": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

/// Throughput of the reps with the given tracing mode: the 90th percentile
/// of their segment rates. On a shared host, interference slows a share of
/// segments that changes from run to run; the fastest decile is the rate
/// the code sustains undisturbed, which repeats across runs where the
/// median follows the host's load.
double throughput(const std::vector<Rep>& reps, bool traced) {
  std::vector<double> rates;
  for (const Rep& r : reps) {
    if (r.traced != traced) continue;
    for (const Segment& s : r.segments) {
      if (s.wall_s > 0) rates.push_back(s.ops / s.wall_s);
    }
  }
  return quantile(std::move(rates), 0.90);
}

/// Reps until the budget is spent: at least three plain reps (set-up is a
/// median), or two of each kind when tracing, alternating. Stops at the
/// first broken invariant, recorded in `broken`.
std::vector<Rep> run_reps(Workload& workload, const Options& opts,
                          std::string& broken) {
  std::vector<Rep> reps;
  const Clock::time_point start = Clock::now();
  double prepare_s = 0;
  for (std::size_t i = 0;; ++i) {
    reps.push_back(workload.run_rep(opts.traced && i % 2 == 1));
    const Rep& rep = reps.back();
    prepare_s += rep.prepare_s;
    if (!rep.broken.empty()) {
      broken = rep.broken;
      break;
    }
    if (!(rep.protocol == reps.front().protocol)) {
      broken = std::string(rep.traced ? "traced" : "plain") +
               " rep did not reproduce rep 0's protocol counters";
      break;
    }
    const bool enough = reps.size() >= (opts.traced ? 4 : 3);
    if (enough && since_s(start) - prepare_s >= opts.seconds) break;
  }
  return reps;
}

/// Sums over a run's reps.
struct Totals {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t spam_chances = 0;  ///< spam sent x honest receivers
  std::uint64_t spam_leaks = 0;
  double prepare_s = 0;
  std::vector<double> deploy_s;
  std::vector<double> op_ms;  ///< per-operation samples of the plain reps
};

Totals totals(const std::vector<Rep>& reps) {
  Totals t;
  for (const Rep& r : reps) {
    t.attempted += r.attempted;
    t.failed += r.failed;
    t.spam_chances += r.spam_sent * r.spam_receivers;
    t.spam_leaks += r.spam_leaks;
    t.prepare_s += r.prepare_s;
    t.deploy_s.push_back(r.deploy_s);
    if (r.traced) continue;
    t.op_ms.insert(t.op_ms.end(), r.op_ms.begin(), r.op_ms.end());
  }
  return t;
}

/// The per-run JSON document: the result plus what is needed to read it
/// later (machine, build, failure ratios, set-up breakdown, layer table).
void write_document(const Options& opts, const Totals& t, std::size_t reps,
                    const std::string& broken, double keypair_s,
                    const std::vector<LayerRow>& table,
                    const std::string& metrics_json) {
  const auto ratio = [](std::uint64_t num, std::uint64_t den) {
    return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
  };
  std::ostringstream doc;
  doc << "{\"workload\": " << json_string(opts.workload)
      << ", \"seed\": " << opts.seed
      << ", \"seconds\": " << json_number(opts.seconds)
      << ", \"trace\": " << (opts.traced ? 1 : 0)
      << ", \"nproc\": " << hardware_threads()
      << ", \"cpu_model\": " << json_string(cpu_model())
      << ", \"compiler\": " << json_string(CP_COMPILER)
      << ", \"build_type\": " << json_string(CP_BUILD_TYPE)
      << ", \"correct\": " << (broken.empty() ? "true" : "false")
      << ", \"broken\": " << json_string(broken) << ", \"reps\": " << reps
      << ", \"attempted\": " << t.attempted << ", \"failed\": " << t.failed
      << ", \"op_fail_ratio\": " << json_number(ratio(t.failed, t.attempted))
      << ", \"spam_leak_ratio\": "
      << json_number(ratio(t.spam_leaks, t.spam_chances))
      << ", \"keypair_s\": " << json_number(keypair_s)
      << ", \"prepare_s\": " << json_number(t.prepare_s)
      << ", \"deploy_s_median\": " << json_number(median(t.deploy_s))
      << ", \"op_samples\": " << t.op_ms.size()
      << ", \"op_p50_ms\": " << json_number(quantile(t.op_ms, 0.50))
      << ", \"op_p90_ms\": " << json_number(quantile(t.op_ms, 0.90))
      << ", \"layers\": [";
  for (std::size_t i = 0; i < table.size(); ++i) {
    doc << (i ? ", " : "") << "{\"layer\": " << json_string(table[i].layer)
        << ", \"calls\": " << json_number(table[i].calls)
        << ", \"busy_s\": " << json_number(table[i].busy_s)
        << ", \"share\": " << json_number(table[i].share) << "}";
  }
  doc << "], \"metrics\": " << metrics_json << "}\n";
  std::ofstream(opts.out) << doc.str();
}

int run(const Options& opts) {
  const Clock::time_point process_start = Clock::now();
  (void)waku::zksnark::rln_keypair(kDepth);  // the shared setup artifact
  const double keypair_s = since_s(process_start);
  std::filesystem::create_directories(opts.workdir);
  std::unique_ptr<Workload> workload = make_workload(opts);
  if (!workload) usage("unknown workload " + opts.workload);

  std::string broken;
  const std::vector<Rep> reps = run_reps(*workload, opts, broken);
  const Totals t = totals(reps);
  const double plain_rate = throughput(reps, false);

  std::vector<Metric> metrics;
  std::vector<LayerRow> table;
  if (!opts.traced) {
    metrics = {
        {"setup_s", keypair_s + t.prepare_s + median(t.deploy_s), "s"},
        {"ops_per_s", plain_rate, "1/s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  } else if (broken.empty()) {
    LayerCounters counters;
    std::size_t traced_reps = 0;
    for (const Rep& r : reps) {
      if (!r.traced) continue;
      counters.add(r.layers);
      ++traced_reps;
    }
    const LayerCosts costs =
        replay_layers(workload->replay_inputs(), opts.workdir);
    table = layer_table(counters, costs);
    metrics = per_layer_metrics(costs, counters, traced_reps, table,
                                plain_rate, throughput(reps, true));
    double coverage = 0;
    if (opts.workload == "publish_prove") {
      // The replayed publish path should explain the measured publish call
      // (>= 0.9 on a quiet machine); far below means an unpriced step.
      const double path_us = costs.witness_us + costs.message_hash_us +
                             costs.circuit_us + costs.prove_us +
                             costs.msg_encode_us;
      coverage = path_us / (quantile(t.op_ms, 0.50) * 1e3);
      if (coverage < 0.75) {
        broken = "replayed publish path covers < 75% of a publish";
      }
    }
    metrics.push_back({"obs.publish_path_coverage", coverage, "ratio"});
  }

  for (const Metric& m : metrics) {
    std::printf("%s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (!table.empty()) {
    std::printf("\n%-13s %12s %12s %8s\n", "layer", "calls", "busy_s",
                "share");
    for (const LayerRow& row : table) {
      std::printf("%-13s %12.0f %12.4f %8.4f\n", row.layer.c_str(), row.calls,
                  row.busy_s, row.share);
    }
    std::printf("\n");
  }
  if (!broken.empty()) {
    std::fprintf(stderr, "INVARIANT BROKEN: %s\n", broken.c_str());
  }

  const std::string metrics_json = json_metrics(metrics);
  if (!opts.out.empty()) {
    write_document(opts, t, reps.size(), broken, keypair_s, table,
                   metrics_json);
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      broken.empty() ? "true" : "false",
      static_cast<unsigned long long>(t.attempted),
      static_cast<unsigned long long>(t.failed), metrics_json.c_str());
  std::fflush(stdout);
  return broken.empty() ? 0 : 1;
}

}  // namespace
}  // namespace cp

int main(int argc, char** argv) {
  try {
    return cp::run(cp::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "critical_path: %s\n", e.what());
    return 1;
  }
}

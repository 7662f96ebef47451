// Metrics dump: a 3-node smoke deployment that exercises the full
// publish -> route -> validate -> deliver path (plus one rejected spam
// burst, so the verdict-reason counters are non-trivial) and then prints
// one node's Prometheus text exposition to stdout.
//
// CI pipes this through scripts/check_metrics_format.py to lint the
// exposition format (HELP/TYPE pairing, monotone histogram buckets, no
// duplicate families). Operators use it the same way:
//
//   ./build/example_metrics_dump               # Prometheus text
//   ./build/example_metrics_dump --json        # the same data as JSON
//   ./build/example_metrics_dump --traces      # sampled lifecycle spans
//   ./build/example_metrics_dump --fleet       # cross-node fleet timeline
//   ./build/example_metrics_dump --postmortem  # flight-recorder black box
//
// The JSON shapes (--json / --traces / --fleet / --postmortem) are linted
// with scripts/check_metrics_format.py --json.
#include <cstdio>
#include <cstring>
#include <string>

#include "obs/fleet.hpp"
#include "rln/harness.hpp"

using namespace waku;  // NOLINT

int main(int argc, char** argv) {
  const bool want_json = argc > 1 && std::strcmp(argv[1], "--json") == 0;
  const bool want_traces = argc > 1 && std::strcmp(argv[1], "--traces") == 0;
  const bool want_fleet = argc > 1 && std::strcmp(argv[1], "--fleet") == 0;
  const bool want_postmortem =
      argc > 1 && std::strcmp(argv[1], "--postmortem") == 0;

  rln::HarnessConfig cfg;
  cfg.num_nodes = 3;
  cfg.degree = 2;
  cfg.block_interval_ms = 2'000;
  cfg.node.tree_depth = 10;
  cfg.node.validator.epoch.epoch_length_ms = 5'000;
  cfg.node.validator.max_epoch_gap = 2;
  cfg.node.obs.trace.sample_every = 1;  // trace every message in the smoke
  cfg.seed = 0xD0;
  rln::RlnHarness net(cfg);
  net.register_all();
  net.run_ms(5'000);

  // Honest traffic from every node across two epochs...
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < net.size(); ++i) {
      (void)net.node(i).try_publish(
          to_bytes("metrics round " + std::to_string(round) + " from " +
                   std::to_string(i)));
    }
    net.run_ms(cfg.node.validator.epoch.epoch_length_ms);
  }
  // ...plus one double-signal so spam/verdict counters move.
  (void)net.node(2).force_publish(to_bytes("spam a"));
  (void)net.node(2).force_publish(to_bytes("spam b"));
  net.run_ms(10'000);

  if (want_json) {
    std::printf("%s\n", net.node(0).telemetry().metrics_json().c_str());
  } else if (want_traces) {
    std::printf("%s\n", net.node(0).telemetry().tracer().to_json().c_str());
  } else if (want_fleet) {
    // The cross-node aggregation path a deployment's scrape loop runs:
    // one health sample per node per epoch, folded into fleet rows.
    obs::FleetAggregator fleet;
    for (std::size_t i = 0; i < net.size(); ++i) {
      fleet.ingest(net.node(i).health_sample());
    }
    fleet.close_epoch(net.node(0).current_epoch());
    std::printf("%s\n", fleet.timeline_json().c_str());
  } else if (want_postmortem) {
    std::printf(
        "%s\n",
        net.node(0)
            .telemetry()
            .flight_recorder()
            .postmortem_json("metrics-dump")
            .c_str());
  } else {
    std::fputs(net.node(0).telemetry().metrics_text().c_str(), stdout);
  }
  return 0;
}

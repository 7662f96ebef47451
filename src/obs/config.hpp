// Node-level observability configuration (embedded in NodeConfig).
#pragma once

#include <cstddef>

#include "clock.hpp"
#include "recorder.hpp"
#include "trace.hpp"

namespace waku::obs {

struct ObsConfig {
  // Master switch: when false the node wires no clock into the pipeline
  // or executor, records nothing, and metrics_text() emits only the
  // always-cheap counters that exist anyway (NodeStats, RouterStats).
  bool enabled = true;

  // Message-lifecycle span sampling; 0 = tracing off (the default: the
  // deterministic tier-1 suites do not pay even the per-message key
  // hash unless a test opts in).
  TraceCollectorConfig trace;

  // Flight-recorder ring of structured lifecycle events (reshard phase
  // transitions, slashes, backpressure rejects, anomaly firings,
  // operator decisions); dumped as a postmortem JSON on any anomaly
  // firing or crash-restart. Gated by `enabled` like everything else.
  FlightRecorderConfig recorder;

  // Clock override. nullptr = the node derives time from its own
  // environment: sim-driven nodes wrap the network's virtual clock
  // (deterministic), so wall-clock only enters when a caller injects
  // obs::steady_clock() (benches, real deployments).
  const Clock* clock = nullptr;
};

}  // namespace waku::obs

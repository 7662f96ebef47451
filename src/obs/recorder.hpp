// FlightRecorder: a bounded ring of structured lifecycle events — the
// "what happened just before it went wrong" record the metric families
// cannot carry. Reshard phase transitions, slash commits, backpressure
// rejects, anomaly firings, operator decisions, and crash-restarts land
// here as (time, epoch, kind, detail) tuples; on any anomaly or restart
// the owner dumps the ring as a postmortem JSON.
//
// Lifecycle events are rare (epochs, not messages), so unlike the
// telemetry record path this ring is mutex-guarded — simplicity over
// lock-freedom is the right trade at one event per epoch. Bounded like
// every other obs ring (TraceCollector): the oldest event is
// evicted and counted, so a long-running node cannot leak memory into
// its own black box.
//
// Timestamps are injected by the caller (the node reads its obs::Clock),
// never read here — a deterministic run records byte-identical events.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace waku::obs {

/// Minimal JSON string escaping for event details / postmortem dumps
/// (quotes, backslashes, control characters).
[[nodiscard]] std::string json_escape(const std::string& s);

struct FlightEvent {
  std::uint64_t at_ns = 0;
  std::uint64_t epoch = 0;
  std::string kind;    ///< "reshard", "operator", "slash", "anomaly", ...
  std::string detail;  ///< free-form, already rendered

  [[nodiscard]] std::string to_json() const;
};

struct FlightRecorderConfig {
  /// Ring capacity; the oldest event is evicted (and counted) past it.
  std::size_t capacity = 256;
};

class FlightRecorder {
 public:
  FlightRecorder() = default;
  explicit FlightRecorder(FlightRecorderConfig config) : config_(config) {}

  void record(std::uint64_t at_ns, std::uint64_t epoch, std::string kind,
              std::string detail);

  /// Snapshot of the ring, oldest first.
  [[nodiscard]] std::vector<FlightEvent> events() const;
  /// Total events ever recorded (including evicted ones).
  [[nodiscard]] std::uint64_t recorded() const;
  /// Events dropped off the old end of the ring.
  [[nodiscard]] std::uint64_t evicted() const;

  /// The black-box dump: {"reason": ..., "recorded": N, "evicted": N,
  /// "events": [...]} — written on anomaly firings and crash-restarts.
  [[nodiscard]] std::string postmortem_json(const std::string& reason) const;

  [[nodiscard]] const FlightRecorderConfig& config() const { return config_; }

 private:
  FlightRecorderConfig config_;
  mutable std::mutex mu_;
  std::deque<FlightEvent> ring_;
  std::uint64_t recorded_ = 0;
  std::uint64_t evicted_ = 0;
};

}  // namespace waku::obs

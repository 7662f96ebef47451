// Shared types of the critical-path benchmark: the per-repetition record
// every workload fills, the counters a traced repetition hands to the
// layer attribution, and the small statistics helpers.
//
// A run is a sequence of repetitions ("reps"). Each rep builds a fresh
// deployment (timed as set-up), then runs a fixed-size measured phase. All
// reps of a run use the same seed, so they are exact protocol replicates:
// the pre-proved inputs made once in rep 0 stay valid in every later rep,
// and every rep must reproduce rep 0's protocol counters.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/telemetry.hpp"
#include "rln/rate_limit_proof.hpp"
#include "rln/validation_pipeline.hpp"
#include "zksnark/rln_circuit.hpp"

namespace cp {

using Clock = std::chrono::steady_clock;
using waku::Bytes;
using waku::WakuMessage;
using waku::ff::Fr;

inline double since_s(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The paper's tree depth; every workload proves against depth-20 trees.
constexpr std::size_t kDepth = 20;
constexpr std::uint64_t kEpochMs = 10'000;
/// Validation window size (gossip batching and the executor passes).
constexpr std::size_t kWindow = 16;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  std::string out;                     ///< per-run JSON document ("" = none)
  /// Directory for durable node state and temporary files.
  std::string workdir = "build-critical-path/work";
};

/// Linear interpolation between order statistics (numpy's default).
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Sum of log2-bucketed obs::Histogram snapshots (nanosecond samples).
struct HistSum {
  std::vector<std::uint64_t> buckets =
      std::vector<std::uint64_t>(waku::obs::Histogram::kBuckets, 0);
  std::uint64_t count = 0;
  std::uint64_t sum_ns = 0;

  void add(const waku::obs::HistogramSnapshot& snap);
  void add(const HistSum& other);
  /// Quantile in ns, interpolated linearly inside the log2 bucket the rank
  /// falls in (Prometheus histogram_quantile); 0 when empty.
  [[nodiscard]] double quantile_ns(double q) const;
};

/// The pipeline's wall-clock stage histograms, summed over nodes/shards.
struct StageTimes {
  HistSum epoch_gate, root_check, nullifier_precheck, groth16_batch,
      groth16_fallback, double_signal, window;
  void add(const StageTimes& other);
};

/// Protocol outcomes a rep must reproduce exactly, traced or not.
struct ProtocolCounters {
  std::uint64_t deliveries = 0;  ///< honest deliveries at counted receivers
  std::uint64_t accepted = 0;    ///< pipeline accept verdicts
  std::uint64_t slashed = 0;     ///< members removed by slashing
  friend bool operator==(const ProtocolCounters&,
                         const ProtocolCounters&) = default;
};

/// Counters of one traced rep's measured phase, used to turn per-call
/// layer costs into busy time.
struct LayerCounters {
  double wall_s = 0;              ///< measured wall (lane-seconds if parallel)
  std::uint64_t publishes = 0;    ///< live try_publish calls (prove path)
  double publish_wall_s = 0;      ///< summed wall time of those calls
  /// Other messages entering the relay at their origin: pre-proved
  /// messages and adversarial publishes.
  std::uint64_t originated = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t sim_events = 0;
  std::uint64_t router_delivered = 0;
  std::uint64_t router_duplicates = 0;
  std::uint64_t router_rejected = 0;
  std::uint64_t wal_appends = 0;
  std::uint64_t snapshots = 0;
  std::uint64_t deliveries = 0;   ///< honest deliveries (the headline ops)
  std::uint64_t slashed = 0;
  double slash_virtual_ms = 0;    ///< summed over slashed members
  waku::rln::ValidatorStats validator;
  StageTimes stages;
  std::uint64_t lane_service_ns = 0;
  std::uint64_t inserts_per_node = 0;
  std::uint64_t tree_updates = 0;  ///< slashing removals applied to trees

  void add(const LayerCounters& other);
};

/// One timed unit of throughput: `ops` completed in `wall_s`.
struct Segment {
  double wall_s = 0;
  double ops = 0;
};

struct Rep {
  bool traced = false;
  double deploy_s = 0;    ///< build and sync one deployment
  double prepare_s = 0;   ///< one-time input generation (rep 0 only)
  std::vector<Segment> segments;
  std::vector<double> op_ms;  ///< per-operation wall time samples
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  ProtocolCounters protocol;
  std::string broken;  ///< first violated invariant; empty when correct
  /// Spam accounting (spam_flood): messages sent by adversaries, and
  /// deliveries of them at the honest receivers.
  std::uint64_t spam_sent = 0;
  std::uint64_t spam_leaks = 0;
  std::uint64_t spam_receivers = 0;
  LayerCounters layers;
};

/// Sample of a run's own inputs, replayed through each layer's public
/// functions to price one call.
struct ReplayInputs {
  std::vector<waku::zksnark::RlnProverInput> prover;
  std::vector<WakuMessage> messages;  ///< proved messages as relayed
  std::vector<WakuMessage> flood;     ///< reject-path messages (may be empty)
  const waku::rln::GroupManager* group = nullptr;  ///< synced member tree
  std::vector<std::uint64_t> member_indices;
  std::vector<Fr> member_pks;
  std::string pubsub_topic;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One rep: fresh deployment, then the measured phase.
  virtual Rep run_rep(bool traced) = 0;
  /// Valid after at least one rep.
  virtual ReplayInputs replay_inputs() = 0;
};

std::unique_ptr<Workload> make_workload(const Options& options);
const std::vector<std::string>& workload_names();

/// Worker threads for parallel input generation and validation: never
/// more than the machine has.
std::size_t hardware_threads();

/// Executor lanes for parallel validation: one core stays with the
/// submitting thread.
inline std::size_t worker_lanes() {
  return std::max<std::size_t>(1, hardware_threads() - 1);
}

}  // namespace cp

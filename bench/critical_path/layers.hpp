// Per-layer costs for the traced run, measured from outside the stack.
//
// replay_layers() times each layer's public functions on a sample of the
// run's own inputs and reports the median cost of one call. layer_table()
// multiplies those costs by the run's own counters (and, for the rln
// pipeline, reads the wall-clock stage histograms the node already keeps)
// to estimate each layer's busy time and share of the measured wall time.
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"

namespace cp {

/// Median cost of one call, in microseconds unless the name says ms.
struct LayerCosts {
  double poseidon2_us = 0;
  double message_hash_us = 0;
  double message_id_us = 0;  ///< gossipsub message id (SHA-256 of the frame)
  double insert_us = 0;
  double witness_us = 0;
  double circuit_us = 0;
  double prove_us = 0;
  double verify_batch_us_per_proof = 0;
  double verify_one_us = 0;
  double msg_encode_us = 0;       ///< attach_proof + serialize
  double msg_deserialize_us = 0;  ///< WakuMessage::deserialize
  double extract_us = 0;          ///< extract_proof
  double frame_encode_us = 0;
  double frame_decode_us = 0;
  double observe_us = 0;          ///< NullifierLog::observe
  double wal_append_us = 0;       ///< StateStore::append, 88 B
  double net_send_us = 0;         ///< Network::send + its delivery event

  // Executor probe: the sample validated by a ShardedValidator at
  // W = worker_lanes() lanes and at one.
  double parallel_efficiency = 0;  ///< rate(W) / (W * rate(1))
  double blocked_submits = 0;      ///< per pass at W lanes
  double lane_wait_p95_us = 0;
  double lane_service_mean_us = 0;
};

LayerCosts replay_layers(const ReplayInputs& in, const std::string& work_dir);

/// The layers, named after the modules in src/, plus "unattributed".
struct LayerRow {
  std::string layer;
  double calls = 0;
  double busy_s = 0;
  double share = 0;  ///< of the measured wall (lane-seconds when parallel)
};

std::vector<LayerRow> layer_table(const LayerCounters& counters,
                                  const LayerCosts& costs);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Every per-layer metric, from the replay costs, the traced reps'
/// summed counters (`reps` of them), and the plain/traced rate medians.
std::vector<Metric> per_layer_metrics(const LayerCosts& costs,
                                      const LayerCounters& counters,
                                      std::size_t reps,
                                      const std::vector<LayerRow>& table,
                                      double plain_rate, double traced_rate);

}  // namespace cp

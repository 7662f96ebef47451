#include "layers.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "gossipsub/wire.hpp"
#include "hash/poseidon.hpp"
#include "net/network.hpp"
#include "obs/clock.hpp"
#include "persist/state_store.hpp"
#include "shard/sharded_validator.hpp"

namespace cp {

// -- Statistics ------------------------------------------------------------

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

void HistSum::add(const waku::obs::HistogramSnapshot& snap) {
  const std::size_t n = std::min(buckets.size(), snap.bucket_counts.size());
  for (std::size_t i = 0; i < n; ++i) buckets[i] += snap.bucket_counts[i];
  count += snap.count;
  sum_ns += snap.sum;
}

void HistSum::add(const HistSum& other) {
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    buckets[i] += other.buckets[i];
  }
  count += other.count;
  sum_ns += other.sum_ns;
}

double HistSum::quantile_ns(double q) const {
  if (count == 0) return 0;
  const double rank = q * static_cast<double>(count);
  double seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const auto n = static_cast<double>(buckets[i]);
    if (n > 0 && seen + n >= rank) {
      // Bucket 0 holds exact zeros; bucket i >= 1 holds [2^(i-1), 2^i).
      const double lo = i == 0 ? 0 : std::ldexp(1.0, static_cast<int>(i) - 1);
      const double hi = i == 0 ? 0 : std::ldexp(1.0, static_cast<int>(i));
      return lo + (hi - lo) * (rank - seen) / n;
    }
    seen += n;
  }
  return std::ldexp(1.0, static_cast<int>(buckets.size()) - 1);
}

void StageTimes::add(const StageTimes& o) {
  epoch_gate.add(o.epoch_gate);
  root_check.add(o.root_check);
  nullifier_precheck.add(o.nullifier_precheck);
  groth16_batch.add(o.groth16_batch);
  groth16_fallback.add(o.groth16_fallback);
  double_signal.add(o.double_signal);
  window.add(o.window);
}

void LayerCounters::add(const LayerCounters& o) {
  wall_s += o.wall_s;
  publishes += o.publishes;
  publish_wall_s += o.publish_wall_s;
  originated += o.originated;
  frames_sent += o.frames_sent;
  frames_received += o.frames_received;
  bytes_sent += o.bytes_sent;
  sim_events += o.sim_events;
  router_delivered += o.router_delivered;
  router_duplicates += o.router_duplicates;
  router_rejected += o.router_rejected;
  wal_appends += o.wal_appends;
  snapshots += o.snapshots;
  deliveries += o.deliveries;
  slashed += o.slashed;
  slash_virtual_ms += o.slash_virtual_ms;
  validator += o.validator;
  stages.add(o.stages);
  lane_service_ns += o.lane_service_ns;
  inserts_per_node += o.inserts_per_node;
  tree_updates += o.tree_updates;
}

namespace {

using namespace waku;  // NOLINT

double f(std::uint64_t v) { return static_cast<double>(v); }

/// Keeps a computed value alive so the timed call cannot be elided.
template <class T>
void keep(const T& value) {
  asm volatile("" : : "r"(&value) : "memory");
}

/// Times fn(i) for i in [0, calls) one call at a time; median in us.
template <class Fn>
double median_call_us(std::size_t calls, Fn&& fn) {
  std::vector<double> us;
  us.reserve(calls);
  for (std::size_t i = 0; i < calls; ++i) {
    const Clock::time_point start = Clock::now();
    fn(i);
    us.push_back(since_s(start) * 1e6);
  }
  return median(std::move(us));
}

/// Codec and verification samples: honest traffic plus the reject-path
/// flood messages when the workload has them.
struct Samples {
  explicit Samples(const ReplayInputs& in) : in(in), wire(in.messages) {
    wire.insert(wire.end(), in.flood.begin(), in.flood.end());
    for (std::size_t i = 0; i < wire.size(); ++i) {
      const rln::RateLimitProof bundle = *rln::extract_proof(wire[i]);
      entries.push_back(
          {bundle.public_inputs(rln::message_hash(wire[i])), bundle.proof});
      bundles.push_back(bundle);
      serialized.push_back(wire[i].serialize());
      gossipsub::Frame frame;
      frame.type = gossipsub::FrameType::kPublish;
      frame.topic = in.pubsub_topic;
      frame.message =
          gossipsub::PubSubMessage{in.pubsub_topic, serialized.back(), 1, i};
      frames.push_back(std::move(frame));
      encoded.push_back(gossipsub::encode_frame(frames.back()));
    }
  }
  const ReplayInputs& in;
  std::vector<WakuMessage> wire;
  std::vector<zksnark::BatchEntry> entries;
  std::vector<rln::RateLimitProof> bundles;
  std::vector<Bytes> serialized;
  std::vector<gossipsub::Frame> frames;
  std::vector<Bytes> encoded;
};

void price_hash(const Samples& s, LayerCosts& k) {
  const std::vector<zksnark::RlnProverInput>& prover = s.in.prover;
  k.poseidon2_us = median_call_us(256, [&](std::size_t i) {
    const zksnark::RlnProverInput& p = prover[i % prover.size()];
    keep(hash::poseidon2(p.sk, p.epoch));
  });
  k.message_hash_us = median_call_us(512, [&](std::size_t i) {
    keep(rln::message_hash(s.wire[i % s.wire.size()]));
  });
  k.message_id_us = median_call_us(512, [&](std::size_t i) {
    keep(s.frames[i % s.frames.size()].message->id());
  });
}

/// Depth-20 appends into a fresh tree, and auth-path reads.
void price_merkle(const ReplayInputs& in, LayerCosts& k) {
  merkle::IncrementalMerkleTree tree(kDepth);
  k.insert_us = median_call_us(128, [&](std::size_t i) {
    keep(tree.insert(in.member_pks[i % in.member_pks.size()]));
  });
  k.witness_us = median_call_us(256, [&](std::size_t i) {
    keep(in.group->path_of(in.member_indices[i % in.member_indices.size()]));
  });
}

void price_zksnark(const Samples& s, LayerCosts& k) {
  const zksnark::Keypair& kp = zksnark::rln_keypair(kDepth);
  constexpr std::size_t kProofs = 32;
  std::vector<double> circuit_us;
  std::vector<double> prove_us;
  Rng rng(0x9B0F);
  for (std::size_t i = 0; i < kProofs; ++i) {
    Clock::time_point start = Clock::now();
    const zksnark::RlnCircuit circuit =
        zksnark::build_rln_circuit(s.in.prover[i % s.in.prover.size()]);
    circuit_us.push_back(since_s(start) * 1e6);
    start = Clock::now();
    keep(zksnark::prove(kp.pk, circuit.builder.cs(),
                        circuit.builder.assignment(), rng));
    prove_us.push_back(since_s(start) * 1e6);
  }
  k.circuit_us = median(circuit_us);
  k.prove_us = median(prove_us);

  // Windows of honest proofs only: the all-valid aggregate is the common
  // case the batched verifier is built for.
  const std::size_t honest = s.in.messages.size();
  k.verify_batch_us_per_proof =
      median_call_us(32,
                     [&](std::size_t i) {
                       const std::size_t at =
                           (i * kWindow) % (honest - kWindow + 1);
                       keep(zksnark::verify_batch(
                           kp.vk,
                           std::span<const zksnark::BatchEntry>(
                               &s.entries[at], kWindow),
                           rng));
                     }) /
      kWindow;
  k.verify_one_us = median_call_us(256, [&](std::size_t i) {
    const zksnark::BatchEntry& e = s.entries[i % s.entries.size()];
    keep(zksnark::verify(kp.vk, e.public_inputs, e.proof));
  });
}

/// The waku message codec (with the proof bundle) and the gossipsub
/// publish-frame codec.
void price_codecs(const Samples& s, LayerCosts& k) {
  std::vector<WakuMessage> bare = s.wire;
  for (WakuMessage& m : bare) m.rate_limit_proof.reset();
  k.msg_encode_us = median_call_us(bare.size(), [&](std::size_t i) {
    rln::attach_proof(bare[i], s.bundles[i]);
    keep(bare[i].serialize());
  });
  k.msg_deserialize_us = median_call_us(512, [&](std::size_t i) {
    keep(WakuMessage::deserialize(s.serialized[i % s.serialized.size()]));
  });
  k.extract_us = median_call_us(512, [&](std::size_t i) {
    keep(rln::extract_proof(s.wire[i % s.wire.size()]));
  });
  k.frame_encode_us = median_call_us(512, [&](std::size_t i) {
    keep(gossipsub::encode_frame(s.frames[i % s.frames.size()]));
  });
  k.frame_decode_us = median_call_us(512, [&](std::size_t i) {
    keep(gossipsub::decode_frame(s.encoded[i % s.encoded.size()]));
  });
}

/// The nullifier log's observe on the honest sample (all first sightings).
void price_rln(const Samples& s, LayerCosts& k) {
  rln::NullifierLog log;
  k.observe_us = median_call_us(s.in.messages.size(), [&](std::size_t i) {
    const rln::RateLimitProof& b = s.bundles[i];
    keep(log.observe(b.epoch, b.nullifier, sss::Share{b.share_x, b.share_y},
                     i));
  });
}

/// 88-byte WAL records with the default flush cadence.
void price_persist(const std::string& work_dir, LayerCosts& k) {
  const std::filesystem::path dir =
      std::filesystem::path(work_dir) /
      ("replay-wal-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    persist::StateStore store(dir.string());
    Rng rng(0x3A1);
    const Bytes record = rng.next_bytes(88);
    k.wal_append_us = median_call_us(
        256, [&](std::size_t) { keep(store.append(1, record)); });
  }
  std::filesystem::remove_all(dir);
}

/// A frame sink for pricing Network::send without a router behind it.
class Sink final : public net::NetNode {
 public:
  void on_message(net::NodeId, BytesView payload) override { keep(payload); }
};

/// One frame through a simulated link: send, then its delivery event.
void price_net(const Samples& s, LayerCosts& k) {
  net::Simulator sim;
  net::Network network(sim, net::LinkConfig{}, 1);
  Sink a;
  Sink b;
  const net::NodeId ia = network.add_node(&a);
  const net::NodeId ib = network.add_node(&b);
  network.connect(ia, ib);
  std::vector<Bytes> copies;
  for (std::size_t i = 0; i < 512; ++i) {
    copies.push_back(s.encoded[i % s.encoded.size()]);
  }
  k.net_send_us = median_call_us(copies.size(), [&](std::size_t i) {
    network.send(ia, ib, std::move(copies[i]));
    sim.step();
  });
}

/// The honest sample validated by fresh ShardedValidators with S =
/// `workers` shards, alternating passes at `workers` lanes and at one.
void probe_executor(const ReplayInputs& in, std::size_t workers,
                    LayerCosts& out) {
  constexpr std::size_t kPasses = 12;
  std::vector<std::uint64_t> arrivals;
  for (const WakuMessage& m : in.messages) arrivals.push_back(m.timestamp_ms);
  rln::ValidatorConfig vcfg;
  vcfg.epoch.epoch_length_ms = kEpochMs;
  std::vector<double> rate_w;
  std::vector<double> rate_1;
  HistSum wait;
  HistSum service;
  std::uint64_t blocked = 0;
  for (std::size_t pass = 0; pass < 2 * kPasses; ++pass) {
    const bool full = pass % 2 == 0;
    shard::ShardConfig scfg;
    scfg.num_shards = static_cast<std::uint16_t>(workers);
    shard::ShardedValidator validator(zksnark::rln_keypair(kDepth).vk,
                                      *in.group, vcfg, scfg, 0x5EED + pass);
    rln::ParallelismConfig pcfg;
    pcfg.deterministic = false;
    pcfg.workers = full ? workers : 1;
    pcfg.queue_depth = 8;
    validator.set_parallelism(pcfg);
    validator.set_executor_clock(&obs::steady_clock());
    const Clock::time_point start = Clock::now();
    for (std::size_t w = 0; w < in.messages.size(); w += kWindow) {
      const std::size_t len = std::min(kWindow, in.messages.size() - w);
      for (const shard::ShardId s : validator.subscribed()) {
        validator.submit(s, std::span<const WakuMessage>(&in.messages[w], len),
                         std::span<const std::uint64_t>(&arrivals[w], len),
                         [](std::vector<rln::ValidationOutcome>) {});
      }
    }
    validator.drain();
    (full ? rate_w : rate_1)
        .push_back(f(workers * in.messages.size()) / since_s(start));
    if (!full) continue;
    blocked += validator.executor_stats().blocked;
    for (const rln::LaneObsSnapshot& lane : validator.executor_lane_stats()) {
      wait.add(lane.queue_wait);
      service.add(lane.service);
    }
  }
  out.parallel_efficiency =
      median(rate_w) / (f(workers) * median(rate_1));
  out.blocked_submits = f(blocked) / kPasses;
  out.lane_wait_p95_us = wait.quantile_ns(0.95) / 1e3;
  out.lane_service_mean_us =
      service.count ? f(service.sum_ns) / f(service.count) / 1e3 : 0;
}

}  // namespace

LayerCosts replay_layers(const ReplayInputs& in,
                         const std::string& work_dir) {
  const Samples samples(in);
  LayerCosts k;
  price_hash(samples, k);
  price_merkle(in, k);
  price_zksnark(samples, k);
  price_codecs(samples, k);
  price_rln(samples, k);
  price_persist(work_dir, k);
  price_net(samples, k);
  probe_executor(in, worker_lanes(), k);
  return k;
}

std::vector<LayerRow> layer_table(const LayerCounters& c,
                                  const LayerCosts& k) {
  constexpr double us = 1e-6;
  constexpr double ns = 1e-9;
  const rln::ValidatorStats& v = c.validator;
  const double validated =
      f(v.accepted + v.epoch_gap + v.duplicates + v.no_proof + v.bad_proof +
        v.stale_root + v.spam_detected);
  // Messages that reach the hash-bind stage (the pipeline hashes them).
  const double hashed = validated - f(v.no_proof + v.epoch_gap + v.stale_root);
  const double publishes = f(c.publishes);
  const double originated = f(c.originated);
  const bool relayed = c.frames_received > 0;
  // The relay decodes each envelope before the pipeline and the delivery
  // handler decodes it again; direct submission does neither.
  const double decodes = relayed ? validated + f(c.router_delivered) : 0;
  // The router hashes every message it originates and every publish frame
  // it receives into a message id; duplicates die right after.
  const double message_ids =
      relayed ? publishes + originated + validated + f(c.router_duplicates)
              : 0;
  // try_publish is itself timed: when the replayed prices of its steps sum
  // to more than the measured calls, scale them down to fit.
  const double path_s = (k.witness_us + k.message_hash_us + k.circuit_us +
                         k.prove_us + k.msg_encode_us) * publishes * us;
  const double fit = path_s > c.publish_wall_s ? c.publish_wall_s / path_s : 1;
  const double proved = publishes * fit;

  const double verify_s =
      f(c.stages.groth16_batch.sum_ns + c.stages.groth16_fallback.sum_ns) * ns;
  const double window_s = f(c.stages.window.sum_ns) * ns;
  const double wal_s = k.wal_append_us * f(c.wal_appends) * us;
  // Inside a window: hash-bind, proof extraction and the WAL journaling of
  // accepted observations belong to their own layers.
  const double in_window_s =
      verify_s + (k.message_hash_us * hashed + k.extract_us * validated) * us +
      std::min(wal_s, k.wal_append_us * f(v.accepted) * us);

  std::vector<LayerRow> rows = {
      {"hash", publishes + hashed + message_ids,
       (k.message_hash_us * (proved + hashed) +
        k.message_id_us * message_ids) * us,
       0},
      {"merkle", publishes + f(c.tree_updates),
       (k.witness_us * proved + k.insert_us * f(c.tree_updates)) * us, 0},
      {"zksnark", publishes + validated,
       (k.circuit_us + k.prove_us) * proved * us + verify_s, 0},
      {"waku", publishes + originated + decodes,
       (k.msg_encode_us * (proved + originated) +
        k.msg_deserialize_us * decodes + k.extract_us * validated) * us,
       0},
      {"gossipsub", f(c.frames_sent + c.frames_received),
       (k.frame_encode_us * f(c.frames_sent) +
        k.frame_decode_us * f(c.frames_received)) * us,
       0},
      {"rln", f(v.batches), std::max(0.0, window_s - in_window_s), 0},
      {"shard", f(v.batches),
       std::max(0.0, f(c.lane_service_ns) * ns - window_s), 0},
      {"persist", f(c.wal_appends), wal_s, 0},
      {"net", f(c.frames_sent), k.net_send_us * f(c.frames_sent) * us, 0},
  };
  double attributed = 0;
  for (LayerRow& row : rows) {
    row.share = c.wall_s > 0 ? row.busy_s / c.wall_s : 0;
    attributed += row.share;
  }
  rows.push_back(
      {"unattributed", 0, c.wall_s * (1 - attributed), 1 - attributed});
  return rows;
}

std::vector<Metric> per_layer_metrics(const LayerCosts& k,
                                      const LayerCounters& c,
                                      std::size_t reps,
                                      const std::vector<LayerRow>& table,
                                      double plain_rate, double traced_rate) {
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  const auto per_rep = [&](std::uint64_t total) {
    return ratio(f(total), f(reps));
  };
  const rln::ValidatorStats& v = c.validator;
  const double validated =
      f(v.accepted + v.epoch_gap + v.duplicates + v.no_proof + v.bad_proof +
        v.stale_root + v.spam_detected);
  const double deliveries = f(c.deliveries);
  const StageTimes& s = c.stages;
  const double stage_total =
      f(s.epoch_gate.sum_ns + s.root_check.sum_ns +
        s.nullifier_precheck.sum_ns + s.groth16_batch.sum_ns +
        s.groth16_fallback.sum_ns + s.double_signal.sum_ns);
  const auto stage_share = [&](const HistSum& h) {
    return ratio(f(h.sum_ns), stage_total);
  };

  std::vector<Metric> m = {
      {"hash.poseidon2_us", k.poseidon2_us, "us"},
      {"hash.message_hash_us", k.message_hash_us, "us"},
      {"hash.message_id_us", k.message_id_us, "us"},
      {"merkle.insert_us", k.insert_us, "us"},
      {"merkle.inserts_per_node", per_rep(c.inserts_per_node), "count"},
      {"merkle.witness_us", k.witness_us, "us"},
      {"zksnark.circuit_build_ms", k.circuit_us / 1e3, "ms"},
      {"zksnark.prove_ms", k.prove_us / 1e3, "ms"},
      {"zksnark.verify_batch_us_per_proof", k.verify_batch_us_per_proof, "us"},
      {"zksnark.verify_one_us", k.verify_one_us, "us"},
      {"waku.msg_encode_us", k.msg_encode_us, "us"},
      {"waku.msg_decode_us", k.msg_deserialize_us + k.extract_us, "us"},
      {"gossipsub.frame_encode_us", k.frame_encode_us, "us"},
      {"gossipsub.frame_decode_us", k.frame_decode_us, "us"},
      {"gossipsub.frames_per_delivery", ratio(f(c.frames_sent), deliveries),
       "frames/delivery"},
      {"gossipsub.bytes_per_delivery", ratio(f(c.bytes_sent), deliveries),
       "B/delivery"},
      {"gossipsub.dup_ratio",
       ratio(f(c.router_duplicates),
             f(c.router_duplicates + c.router_delivered)),
       "ratio"},
      {"gossipsub.rejected_frames", per_rep(c.router_rejected), "count"},
      {"rln.window_us_p50", s.window.quantile_ns(0.50) / 1e3, "us"},
      {"rln.window_us_p95", s.window.quantile_ns(0.95) / 1e3, "us"},
      {"rln.stage_share.epoch_gate", stage_share(s.epoch_gate), "ratio"},
      {"rln.stage_share.root_check", stage_share(s.root_check), "ratio"},
      {"rln.stage_share.nullifier_precheck",
       stage_share(s.nullifier_precheck), "ratio"},
      {"rln.stage_share.groth16_batch", stage_share(s.groth16_batch),
       "ratio"},
      {"rln.stage_share.groth16_fallback", stage_share(s.groth16_fallback),
       "ratio"},
      {"rln.stage_share.double_signal", stage_share(s.double_signal),
       "ratio"},
      {"rln.mean_window_size", ratio(validated, f(v.batches)), "messages"},
      {"rln.nullifier_observe_us", k.observe_us, "us"},
      {"rln.aggregated_window_ratio",
       ratio(f(v.batch_aggregated), f(v.batch_aggregated + v.batch_fallbacks)),
       "ratio"},
      {"rln.log_conflicts", per_rep(v.log_conflicts), "count"},
      {"shard.parallel_efficiency", k.parallel_efficiency, "ratio"},
      {"shard.blocked_submits", k.blocked_submits, "count"},
      {"shard.lane_queue_wait_us_p95", k.lane_wait_p95_us, "us"},
      {"shard.lane_service_us_mean", k.lane_service_mean_us, "us"},
      {"persist.wal_append_us", k.wal_append_us, "us"},
      {"persist.wal_records_per_delivery", ratio(f(c.wal_appends), deliveries),
       "records/delivery"},
      {"persist.snapshots_written", per_rep(c.snapshots), "count"},
      {"chain.slashed", per_rep(c.slashed), "count"},
      {"chain.time_to_slash_virtual_ms",
       ratio(c.slash_virtual_ms, f(c.slashed)), "virtual_ms"},
      {"net.events_per_delivery", ratio(f(c.sim_events), deliveries),
       "events/delivery"},
      {"obs.trace_overhead", plain_rate > 0 ? 1 - traced_rate / plain_rate : 0,
       "ratio"},
  };
  for (const LayerRow& row : table) {
    m.push_back({"layer_share." + row.layer, row.share, "ratio"});
  }
  return m;
}

}  // namespace cp

// The four workloads. Each drives the real stack through its public API
// (RlnHarness, WakuRlnRelayNode, ShardedValidator) and times it from
// outside; nothing in src/ knows it is being measured.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <thread>
#include <tuple>

#include "bench.hpp"
#include "obs/clock.hpp"
#include "rln/harness.hpp"
#include "shard/sharded_validator.hpp"

namespace cp {
namespace {

namespace fs = std::filesystem;
using namespace waku;  // NOLINT
using rln::RlnHarness;
using rln::WakuRlnRelayNode;

// -- Payloads ----------------------------------------------------------------
//
// Every payload the bench generates starts with a 9-byte tag (kind, sender,
// sequence) so deliveries can be classified by content alone; a seeded
// filler of 24..256 bytes follows.

enum class Kind : std::uint8_t {
  kHonest = 'h',
  kDoubleSignal = 'd',
  kInvalidProof = 'f',
  kStaleRoot = 's',
};

struct Tag {
  Kind kind;
  std::uint32_t sender;
  std::uint32_t seq;
};

void put_u32(Bytes& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint32_t get_u32(const Bytes& in, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{in[at + i]} << (8 * i);
  return v;
}

Bytes make_payload(Kind kind, std::size_t sender, std::size_t seq, Rng& rng) {
  Bytes p;
  p.push_back(static_cast<std::uint8_t>(kind));
  put_u32(p, static_cast<std::uint32_t>(sender));
  put_u32(p, static_cast<std::uint32_t>(seq));
  const Bytes filler = rng.next_bytes(24 + rng.next_below(233));
  p.insert(p.end(), filler.begin(), filler.end());
  return p;
}

std::optional<Tag> read_tag(const Bytes& payload) {
  if (payload.size() < 9) return std::nullopt;
  return Tag{static_cast<Kind>(payload[0]), get_u32(payload, 1),
             get_u32(payload, 5)};
}

// -- Delivery accounting -----------------------------------------------------

/// Classifies every delivery at every node by the payload tag.
class Tally {
 public:
  static constexpr std::size_t kCaptureMax = 256;

  /// `counted[i]`: deliveries at node i count (honest receivers only).
  explicit Tally(std::vector<bool> counted = {})
      : counted_(std::move(counted)) {
    const auto it = std::find(counted_.begin(), counted_.end(), true);
    capture_at_ = static_cast<std::size_t>(it - counted_.begin());
  }

  void on_delivery(std::size_t receiver, const WakuMessage& msg) {
    if (receiver >= counted_.size() || !counted_[receiver]) return;
    const std::optional<Tag> tag = read_tag(msg.payload);
    if (!tag.has_value()) return;
    switch (tag->kind) {
      case Kind::kHonest:
        if (tag->sender == receiver) return;  // the publisher's own copy
        ++honest_;
        if (receiver == capture_at_ && captured_.size() < kCaptureMax) {
          captured_.push_back(msg);
        }
        return;
      case Kind::kDoubleSignal:
        // One message per (receiver, member, epoch) may pass; the second
        // half of a double-signal pair is spam.
        if (!double_seen_.insert({receiver, tag->sender, tag->seq}).second) {
          ++leaks_;
        }
        return;
      case Kind::kInvalidProof:
      case Kind::kStaleRoot:
        ++leaks_;
        return;
    }
  }

  [[nodiscard]] std::uint64_t honest() const { return honest_; }
  [[nodiscard]] std::uint64_t leaks() const { return leaks_; }
  [[nodiscard]] std::size_t capture_node() const { return capture_at_; }
  [[nodiscard]] const std::vector<WakuMessage>& captured() const {
    return captured_;
  }

 private:
  std::vector<bool> counted_;
  std::size_t capture_at_ = 0;
  std::uint64_t honest_ = 0;
  std::uint64_t leaks_ = 0;
  std::set<std::tuple<std::size_t, std::uint32_t, std::uint32_t>> double_seen_;
  std::vector<WakuMessage> captured_;
};

// -- Deployments -------------------------------------------------------------

rln::HarnessConfig harness_config(std::size_t nodes, std::size_t degree,
                                  std::uint64_t seed, bool traced) {
  rln::HarnessConfig hc;
  hc.num_nodes = nodes;
  hc.degree = degree;
  hc.seed = seed;
  hc.node.tree_depth = kDepth;
  hc.node.validator.epoch.epoch_length_ms = kEpochMs;
  hc.node.gossip.validation_batch_max = kWindow;
  // The traced run swaps the node's virtual-time telemetry clock for wall
  // time, so the pipeline stage histograms record real CPU cost.
  if (traced) hc.node.obs.clock = &obs::steady_clock();
  return hc;
}

std::uint64_t next_epoch_start(std::uint64_t now_ms) {
  return (now_ms / kEpochMs + 1) * kEpochMs;
}

/// Slot of publisher `rank` of `count` inside an epoch: the centre of the
/// rank-th of `count` equal sub-intervals, so the load is flat, every half
/// epoch holds exactly half the slots (for even counts), and no slot sits
/// on an epoch boundary.
std::uint64_t slot_ms(std::size_t rank, std::size_t count) {
  return (2 * rank + 1) * kEpochMs / (2 * count);
}

rln::ValidatorStats minus(rln::ValidatorStats a, const rln::ValidatorStats& b) {
  a.accepted -= b.accepted;
  a.epoch_gap -= b.epoch_gap;
  a.duplicates -= b.duplicates;
  a.no_proof -= b.no_proof;
  a.bad_proof -= b.bad_proof;
  a.stale_root -= b.stale_root;
  a.spam_detected -= b.spam_detected;
  a.batches -= b.batches;
  a.batch_aggregated -= b.batch_aggregated;
  a.batch_fallbacks -= b.batch_fallbacks;
  a.precheck_duplicates -= b.precheck_duplicates;
  a.log_conflicts -= b.log_conflicts;
  return a;
}

/// Cumulative counters of a whole deployment at one instant.
struct StackProbe {
  net::TrafficStats traffic;
  std::uint64_t events = 0;
  gossipsub::RouterStats router;
  rln::ValidatorStats validator;
  std::uint64_t wal_flushes = 0;
  std::uint64_t snapshots = 0;
  std::uint64_t removals = 0;  ///< member removals applied, summed over nodes
};

StackProbe probe_stack(RlnHarness& h) {
  StackProbe p;
  p.traffic = h.network().total_stats();
  p.events = h.sim().executed_events();
  for (std::size_t i = 0; i < h.size(); ++i) {
    if (!h.alive(i)) continue;
    WakuRlnRelayNode& node = h.node(i);
    const gossipsub::RouterStats& r = node.relay().stats();
    p.router.delivered += r.delivered;
    p.router.duplicates += r.duplicates;
    p.router.rejected += r.rejected;
    p.validator += node.validator().stats();
    p.removals += node.group().removed_count();
    if (const persist::StateStore* store = node.state_store()) {
      const persist::StateStore::Stats s = store->stats();
      // With the default flush cadence every append is one flush.
      p.wal_flushes += s.wal_flushes;
      p.snapshots += s.snapshots_written;
    }
  }
  return p;
}

HistSum read_hist(WakuRlnRelayNode& node, const std::string& family,
                  const std::string& labels) {
  HistSum h;
  h.add(node.telemetry().histogram(family, labels).snapshot());
  return h;
}

/// The node's wall-clock pipeline stage histograms (traced reps only).
StageTimes read_stages(WakuRlnRelayNode& node) {
  StageTimes t;
  for (const shard::ShardId s : node.validator().subscribed()) {
    const std::string shard = "shard=\"" + std::to_string(s) + "\"";
    const auto stage = [&](const char* name) {
      return read_hist(node, "waku_pipeline_stage_seconds",
                       std::string("stage=\"") + name + "\"," + shard);
    };
    StageTimes one;
    one.epoch_gate = stage("epoch_gate");
    one.root_check = stage("root_check");
    one.nullifier_precheck = stage("nullifier_precheck");
    one.groth16_batch = stage("groth16_batch");
    one.groth16_fallback = stage("groth16_fallback");
    one.double_signal = stage("double_signal");
    one.window = read_hist(node, "waku_pipeline_validate_seconds", shard);
    t.add(one);
  }
  return t;
}

LayerCounters stack_delta(RlnHarness& h, const StackProbe& before,
                          double wall_s) {
  const StackProbe after = probe_stack(h);
  LayerCounters c;
  c.wall_s = wall_s;
  c.frames_sent = after.traffic.messages_sent - before.traffic.messages_sent;
  c.frames_received =
      after.traffic.messages_received - before.traffic.messages_received;
  c.bytes_sent = after.traffic.bytes_sent - before.traffic.bytes_sent;
  c.sim_events = after.events - before.events;
  c.router_delivered = after.router.delivered - before.router.delivered;
  c.router_duplicates = after.router.duplicates - before.router.duplicates;
  c.router_rejected = after.router.rejected - before.router.rejected;
  c.wal_appends = after.wal_flushes - before.wal_flushes;
  c.snapshots = after.snapshots - before.snapshots;
  c.tree_updates = after.removals - before.removals;
  c.validator = minus(after.validator, before.validator);
  c.inserts_per_node = h.size();
  for (std::size_t i = 0; i < h.size(); ++i) {
    if (!h.alive(i)) continue;
    c.stages.add(read_stages(h.node(i)));
    for (const rln::LaneObsSnapshot& lane :
         h.node(i).validator().executor_lane_stats()) {
      c.lane_service_ns += lane.service.sum;
    }
  }
  return c;
}

/// Runs the simulator over [t0, end) in half-epoch slices, timing each and
/// counting the honest deliveries that landed in it. Every honest sender
/// has one evenly spread slot per epoch, so each half epoch holds the same
/// number of publishes and slices carry equal work. The first slice has no
/// deliveries spilling in from an earlier one; it is warm-up and counts only
/// toward the returned wall time of the whole run.
double run_slices(RlnHarness& h, const Tally& tally, std::uint64_t t0,
                  std::uint64_t end, Rep& rep) {
  constexpr std::uint64_t kSliceMs = kEpochMs / 2;
  double total = 0;
  for (std::uint64_t t = t0; t < end; t += kSliceMs) {
    const std::uint64_t before = tally.honest();
    const Clock::time_point start = Clock::now();
    h.sim().run_until(t + kSliceMs);
    const double wall = since_s(start);
    total += wall;
    const double ops = static_cast<double>(tally.honest() - before);
    if (t == t0 || ops == 0) continue;
    rep.segments.push_back({wall, ops});
    rep.op_ms.push_back(wall * 1e3 / ops);
  }
  return total;
}

/// Runs fn(i) for i in [0, n) on `threads` threads (including the caller).
/// The first exception stops the remaining work and is rethrown here.
void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr error;  // guarded by error_mu
  const auto work = [&] {
    try {
      for (std::size_t i = next++; i < n; i = next++) fn(i);
    } catch (...) {
      next = n;
      const std::lock_guard<std::mutex> lock(error_mu);
      if (!error) error = std::current_exception();
    }
  };
  {
    std::vector<std::jthread> pool;
    for (std::size_t t = 1; t < std::min(threads, n); ++t) {
      pool.emplace_back(work);
    }
    work();
  }  // joins the pool
  if (error) std::rethrow_exception(error);
}

// The same bundle WakuRlnRelayNode::build_message (private to the node)
// attaches, so a pre-proved message is exactly what try_publish would send.
WakuMessage prove_message(WakuMessage msg, zksnark::RlnProverInput input,
                          std::uint64_t epoch, std::uint64_t rng_seed) {
  input.x = rln::message_hash(msg);
  input.epoch = Fr::from_u64(epoch);
  const zksnark::RlnCircuit circuit = zksnark::build_rln_circuit(input);
  Rng rng(rng_seed);
  rln::RateLimitProof bundle;
  bundle.share_x = circuit.publics.x;
  bundle.share_y = circuit.publics.y;
  bundle.nullifier = circuit.publics.nullifier;
  bundle.epoch = epoch;
  bundle.root = circuit.publics.root;
  bundle.proof = zksnark::prove(zksnark::rln_keypair(kDepth).pk,
                                circuit.builder.cs(),
                                circuit.builder.assignment(), rng);
  rln::attach_proof(msg, bundle);
  return msg;
}

/// A message proved ahead of the measured phase, and when to send it.
struct Planned {
  std::size_t sender = 0;
  std::uint64_t at_ms = 0;
  std::uint64_t epoch = 0;
  WakuMessage msg;
};

/// Proves every planned message on all hardware threads, with each
/// sender's own key and witness.
void prove_all(RlnHarness& h, std::vector<Planned>& plan, std::uint64_t seed) {
  std::map<std::size_t, zksnark::RlnProverInput> inputs;
  for (const Planned& p : plan) {
    if (inputs.contains(p.sender)) continue;
    zksnark::RlnProverInput in;
    in.sk = h.node(p.sender).identity().sk;
    in.path = h.node(p.sender).group().own_path();
    inputs.emplace(p.sender, std::move(in));
  }
  parallel_for(plan.size(), hardware_threads(), [&](std::size_t j) {
    plan[j].msg =
        prove_message(std::move(plan[j].msg), inputs.at(plan[j].sender),
                      plan[j].epoch, seed ^ (0x9E3779B97F4A7C15ULL * (j + 1)));
  });
}

WakuMessage plain_message(Bytes payload, std::uint64_t at_ms) {
  WakuMessage msg;
  msg.payload = std::move(payload);
  msg.content_topic = rln::kDefaultContentTopic;
  msg.timestamp_ms = at_ms;
  return msg;
}

std::uint64_t shortfall(std::uint64_t expected, std::uint64_t got) {
  return expected > got ? expected - got : 0;
}

/// The captured honest deliveries, each with its sender's prover input.
ReplayInputs harness_replay(RlnHarness& h, const Tally& tally) {
  ReplayInputs in;
  in.messages = tally.captured();
  for (const WakuMessage& msg : in.messages) {
    const std::size_t sender = read_tag(msg.payload)->sender;
    const std::optional<rln::RateLimitProof> bundle = rln::extract_proof(msg);
    zksnark::RlnProverInput p;
    p.sk = h.node(sender).identity().sk;
    p.path = h.node(sender).group().own_path();
    p.x = rln::message_hash(msg);
    p.epoch = Fr::from_u64(bundle->epoch);
    in.prover.push_back(std::move(p));
  }
  WakuRlnRelayNode& at = h.node(tally.capture_node());
  in.group = &at.group();
  in.pubsub_topic = at.shard_topic_for(rln::kDefaultContentTopic);
  for (std::size_t i = 0; i < h.size(); ++i) {
    const std::optional<std::uint64_t> index = h.node(i).group().own_index();
    if (!index.has_value()) continue;  // slashed
    in.member_indices.push_back(*index);
    in.member_pks.push_back(h.node(i).identity().pk);
  }
  return in;
}

/// Shared by the three simulated workloads: the latest rep's deployment
/// (kept alive for the replay) and the tally of its deliveries.
class SimWorkload : public Workload {
 public:
  ReplayInputs replay_inputs() override {
    return harness_replay(*harness_, tally_);
  }

 protected:
  explicit SimWorkload(std::uint64_t seed) : seed_(seed) {}

  /// Drops the previous rep's deployment, then builds a fresh one with the
  /// tally wired into every node and syncs the membership (every node
  /// registers; every node applies every insert). Returns the wall time.
  double redeploy(const rln::HarnessConfig& config,
                  std::vector<bool> counted) {
    harness_.reset();
    tally_ = Tally(std::move(counted));
    const Clock::time_point start = Clock::now();
    harness_ = std::make_unique<RlnHarness>(config);
    harness_->set_node_hook([this](std::size_t i, WakuRlnRelayNode& node) {
      node.set_message_handler(
          [this, i](const WakuMessage& msg) { tally_.on_delivery(i, msg); });
    });
    harness_->register_all();
    return since_s(start);
  }

  /// Hands every planned message to its sender's relay at its time.
  void schedule(const std::vector<Planned>& plan) {
    RlnHarness& h = *harness_;
    const std::string topic =
        h.node(0).shard_topic_for(rln::kDefaultContentTopic);
    for (const Planned& p : plan) {
      h.sim().schedule_at(p.at_ms, [&h, &p, topic] {
        h.node(p.sender).relay().publish_on(topic, p.msg);
      });
    }
  }

  std::uint64_t seed_;
  Tally tally_;
  std::unique_ptr<RlnHarness> harness_;
};

// -- publish_prove ---------------------------------------------------------

/// 16 nodes; every node publishes once per epoch at a staggered slot
/// through try_publish, which computes the witness, builds the circuit,
/// proves and encodes inline. Closed loop, one caller. Relay work at 16
/// nodes is small next to proving, so this isolates the publish path.
class PublishProve final : public SimWorkload {
 public:
  explicit PublishProve(const Options& o) : SimWorkload(o.seed) {}

  Rep run_rep(bool traced) override {
    Rep rep;
    rep.traced = traced;
    rep.deploy_s = redeploy(harness_config(kNodes, kDegree, seed_, traced),
                            std::vector<bool>(kNodes, true));
    RlnHarness& h = *harness_;

    const std::uint64_t t0 = next_epoch_start(h.sim().now());
    if (!warmed_) {
      // One throwaway proof, so process-wide lazy state on the prove path
      // is built (and timed) as set-up rather than inside the first publish.
      const Clock::time_point p = Clock::now();
      zksnark::RlnProverInput in;
      in.sk = h.node(0).identity().sk;
      in.path = h.node(0).group().own_path();
      (void)prove_message(plain_message(to_bytes("warm-up"), t0), in,
                          t0 / kEpochMs, seed_);
      rep.prepare_s = since_s(p);
      warmed_ = true;
    }
    h.sim().run_until(t0);
    const StackProbe before = probe_stack(h);
    Rng payload_rng(seed_ ^ 0x9B1157ULL);
    std::uint64_t not_ok = 0;
    double publish_s = 0;
    // One segment per half epoch: half the nodes publish in each.
    constexpr std::size_t kHalf = kNodes / 2;
    for (std::size_t k = 0; k < 2 * kEpochs; ++k) {
      const std::uint64_t epoch_start = t0 + k / 2 * kEpochMs;
      const Clock::time_point seg = Clock::now();
      for (std::size_t i = k % 2 * kHalf; i < (k % 2 + 1) * kHalf; ++i) {
        h.sim().run_until(epoch_start + slot_ms(i, kNodes));
        Bytes payload = make_payload(Kind::kHonest, i, k / 2, payload_rng);
        const Clock::time_point call = Clock::now();
        const WakuRlnRelayNode::PublishStatus status =
            h.node(i).try_publish(std::move(payload));
        const double call_s = since_s(call);
        publish_s += call_s;
        rep.op_ms.push_back(call_s * 1e3);
        if (status != WakuRlnRelayNode::PublishStatus::kOk) ++not_ok;
      }
      h.sim().run_until(t0 + (k + 1) * kEpochMs / 2);
      rep.segments.push_back({since_s(seg), static_cast<double>(kHalf)});
    }
    double wall = 0;
    for (const Segment& s : rep.segments) wall += s.wall_s;
    if (traced) {
      rep.layers = stack_delta(h, before, wall);
      rep.layers.publishes = kNodes * kEpochs;
      rep.layers.publish_wall_s = publish_s;
      rep.layers.deliveries = tally_.honest();
    }
    h.run_ms(3'000);  // drain: the last slot's deliveries

    const std::uint64_t publishes = kNodes * kEpochs;
    const std::uint64_t expected = publishes * (kNodes - 1);
    const std::uint64_t missed = shortfall(expected, tally_.honest());
    rep.attempted = publishes + expected;
    rep.failed = not_ok + missed;
    rep.protocol = {tally_.honest(), h.total_validation_stats().accepted, 0};
    if (not_ok > 0) {
      rep.broken = "an honest publish did not return kOk";
    } else if (missed * 100 > expected) {
      rep.broken = "delivered < 99% of publishes";
    }
    return rep;
  }


 private:
  static constexpr std::size_t kNodes = 16;
  static constexpr std::size_t kDegree = 6;
  static constexpr std::size_t kEpochs = 12;
  bool warmed_ = false;
};

// -- relay_fanout ----------------------------------------------------------

/// 32 nodes, degree 8, validation windows of 16. Every node injects one
/// pre-proved message per epoch through relay().publish_on, on a fixed
/// virtual-time schedule (open loop in virtual time). No proving in the
/// measured phase: the cost is frame codec, router fan-out, batched
/// verification, the nullifier log and simulator events.
class RelayFanout final : public SimWorkload {
 public:
  explicit RelayFanout(const Options& o) : SimWorkload(o.seed) {}

  Rep run_rep(bool traced) override {
    Rep rep;
    rep.traced = traced;
    rep.deploy_s = redeploy(harness_config(kNodes, kDegree, seed_, traced),
                            std::vector<bool>(kNodes, true));
    RlnHarness& h = *harness_;

    const std::uint64_t t0 = next_epoch_start(h.sim().now());
    if (plan_.empty()) {
      const Clock::time_point p = Clock::now();
      Rng payload_rng(seed_ ^ 0xFA2007ULL);
      for (std::size_t k = 0; k < kEpochs; ++k) {
        for (std::size_t i = 0; i < kNodes; ++i) {
          const std::uint64_t at = t0 + k * kEpochMs + slot_ms(i, kNodes);
          Bytes payload = make_payload(Kind::kHonest, i, k, payload_rng);
          plan_.push_back(
              {i, at, at / kEpochMs, plain_message(std::move(payload), at)});
        }
      }
      prove_all(h, plan_, seed_);
      rep.prepare_s = since_s(p);
    }
    schedule(plan_);

    h.sim().run_until(t0);
    const StackProbe before = probe_stack(h);
    const double wall =
        run_slices(h, tally_, t0, t0 + kEpochs * kEpochMs, rep);
    if (traced) {
      rep.layers = stack_delta(h, before, wall);
      rep.layers.originated = plan_.size();
      rep.layers.deliveries = tally_.honest();
    }
    h.run_ms(3'000);  // drain

    const std::uint64_t expected = plan_.size() * (kNodes - 1);
    rep.attempted = expected;
    rep.failed = shortfall(expected, tally_.honest());
    rep.protocol = {tally_.honest(), h.total_validation_stats().accepted, 0};
    if (rep.failed * 100 > expected) {
      rep.broken = "delivered < 99% of messages";
    }
    return rep;
  }

 private:
  static constexpr std::size_t kNodes = 32;
  static constexpr std::size_t kDegree = 8;
  static constexpr std::size_t kEpochs = 8;
  std::vector<Planned> plan_;
};

// -- spam_flood ------------------------------------------------------------

/// 32 durable nodes (WAL + snapshots on disk): 24 honest senders, 4
/// invalid-proof flooders, 2 stale-root flooders (one message per 100 ms
/// of virtual time each) and 2 double-signalers (one pre-proved same-epoch
/// pair each). Exercises the reject side of the same pipeline: aggregate
/// failures forcing per-proof fallback, root-stage drops, nullifier
/// conflicts, Shamir recovery, commit-reveal slashing and peer scoring,
/// plus WAL appends beside every accepted observation.
class SpamFlood final : public SimWorkload {
 public:
  explicit SpamFlood(const Options& o)
      : SimWorkload(o.seed),
        dir_(fs::path(o.workdir) /
             ("spam_flood-" + std::to_string(::getpid()))) {
    std::vector<std::size_t> order(kNodes);
    std::iota(order.begin(), order.end(), 0);
    Rng rng(seed_ ^ 0x5BA3ULL);
    std::shuffle(order.begin(), order.end(), rng);
    role_.assign(kNodes, Kind::kHonest);
    for (std::size_t r = kHonest; r < kNodes; ++r) {
      const std::size_t adversary = r - kHonest;
      role_[order[r]] = adversary < kInvalid ? Kind::kInvalidProof
                        : adversary < kInvalid + kStale ? Kind::kStaleRoot
                                                        : Kind::kDoubleSignal;
    }
  }

  ~SpamFlood() override {
    harness_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  SpamFlood(const SpamFlood&) = delete;
  SpamFlood& operator=(const SpamFlood&) = delete;

  Rep run_rep(bool traced) override {
    Rep rep;
    rep.traced = traced;
    harness_.reset();  // closes the previous rep's stores before the wipe
    fs::remove_all(dir_);
    std::vector<bool> honest(kNodes);
    for (std::size_t i = 0; i < kNodes; ++i) {
      honest[i] = role_[i] == Kind::kHonest;
    }
    rln::HarnessConfig config = harness_config(kNodes, kDegree, seed_, traced);
    config.persist_dir = dir_.string();
    rep.deploy_s = redeploy(config, std::move(honest));
    RlnHarness& h = *harness_;

    const std::uint64_t t0 = next_epoch_start(h.sim().now());
    const std::uint64_t t_end = t0 + kEpochs * kEpochMs;
    if (plan_.empty()) {
      const Clock::time_point p = Clock::now();
      plan(t0);
      prove_all(h, plan_, seed_);
      rep.prepare_s = since_s(p);
    }
    schedule(plan_);

    // Double-signaler member indices, read before slashing removes them.
    std::map<std::uint64_t, std::uint64_t> double_index;  // index -> pair sent
    for (const Planned& p : plan_) {
      if (role_[p.sender] == Kind::kDoubleSignal) {
        double_index.emplace(*h.node(p.sender).group().own_index(), p.at_ms);
      }
    }
    // Slashing ground truth from the chain itself.
    std::map<std::uint64_t, std::uint64_t> slashed_at;  // index -> virtual ms
    const std::uint64_t subscription =
        h.chain().subscribe_events([&slashed_at, &h](const chain::Event& ev) {
          if (ev.name == "MemberSlashed") {
            slashed_at.emplace(ev.topics[0].limb[0], h.sim().now());
          }
        });

    h.sim().run_until(t0);
    // Flooders: one message per 100 ms of virtual time each, until the
    // measured epochs end. Their outgoing frames are sampled for replay.
    std::uint64_t spam_sent = 0;
    std::vector<net::Simulator::TaskId> flood_tasks;
    for (std::size_t i = 0; i < kNodes; ++i) {
      const Kind kind = role_[i];
      if (kind != Kind::kInvalidProof && kind != Kind::kStaleRoot) continue;
      auto rng = std::make_shared<Rng>(seed_ ^ (0xF100DULL + i));
      auto seq = std::make_shared<std::size_t>(0);
      flood_tasks.push_back(h.sim().schedule_every(
          100, [&h, &spam_sent, i, kind, rng, seq, t_end] {
            if (h.sim().now() >= t_end) return;
            Bytes payload = make_payload(kind, i, (*seq)++, *rng);
            if (kind == Kind::kInvalidProof) {
              h.node(i).publish_with_invalid_proof(std::move(payload));
            } else {
              h.node(i).publish_with_stale_root(std::move(payload));
            }
            ++spam_sent;
          }));
      h.node(i).relay().router().set_trace_hook(
          [this](const char* kind_name, net::NodeId,
                 const gossipsub::PubSubMessage& m) {
            if (kind_name[0] != 'f' || flood_.size() >= kFloodSample) return;
            WakuMessage msg = WakuMessage::deserialize(m.data);
            if (flood_.empty() || flood_.back().payload != msg.payload) {
              flood_.push_back(std::move(msg));
            }
          });
    }

    const StackProbe before = probe_stack(h);
    const double wall = run_slices(h, tally_, t0, t_end, rep);
    if (traced) {
      rep.layers = stack_delta(h, before, wall);
      rep.layers.originated = plan_.size() + spam_sent;
      rep.layers.deliveries = tally_.honest();
    }

    for (const net::Simulator::TaskId task : flood_tasks) h.sim().cancel(task);

    // Drain: let the commit-reveal slashes land (bounded).
    const auto all_slashed = [&] {
      return std::all_of(
          double_index.begin(), double_index.end(),
          [&](const auto& d) { return slashed_at.contains(d.first); });
    };
    h.run_ms(3'000);
    for (int s = 0; s < kDrainCapS && !all_slashed(); ++s) h.run_ms(1'000);
    h.chain().unsubscribe_events(subscription);

    std::uint64_t honest_msgs = 0;
    for (const Planned& p : plan_) {
      honest_msgs += role_[p.sender] == Kind::kHonest;
    }
    const std::uint64_t expected = honest_msgs * (kHonest - 1);
    rep.attempted = expected;
    rep.failed = shortfall(expected, tally_.honest());
    rep.protocol = {tally_.honest(), h.total_validation_stats().accepted,
                    slashed_at.size()};
    rep.spam_sent = spam_sent + double_index.size();
    rep.spam_leaks = tally_.leaks();
    rep.spam_receivers = kHonest;
    if (traced) {
      for (const auto& [index, sent_ms] : double_index) {
        if (const auto it = slashed_at.find(index); it != slashed_at.end()) {
          rep.layers.slashed += 1;
          rep.layers.slash_virtual_ms +=
              static_cast<double>(it->second - sent_ms);
        }
      }
    }
    if (!all_slashed()) {
      rep.broken = "a double-signaler was not slashed before the drain ended";
    } else if (slashed_at.size() != double_index.size()) {
      rep.broken = "a member other than the double-signalers was slashed";
    } else if (tally_.leaks() > 0) {
      rep.broken = "spam was delivered at an honest node";
    }
    return rep;
  }

  ReplayInputs replay_inputs() override {
    ReplayInputs in = SimWorkload::replay_inputs();
    in.flood = flood_;
    return in;
  }

 private:
  static constexpr std::size_t kNodes = 32;
  static constexpr std::size_t kDegree = 8;
  static constexpr std::size_t kHonest = 24;
  static constexpr std::size_t kInvalid = 4;
  static constexpr std::size_t kStale = 2;
  static constexpr std::size_t kEpochs = 12;
  static constexpr int kDrainCapS = 120;
  static constexpr std::size_t kFloodSample = 128;

  /// Honest traffic (one message per honest node per epoch) plus one
  /// same-epoch pair per double-signaler in the second measured epoch.
  void plan(std::uint64_t t0) {
    Rng payload_rng(seed_ ^ 0x5BA3F100DULL);
    std::vector<std::size_t> honest;
    for (std::size_t i = 0; i < kNodes; ++i) {
      if (role_[i] == Kind::kHonest) honest.push_back(i);
    }
    for (std::size_t k = 0; k < kEpochs; ++k) {
      for (std::size_t r = 0; r < honest.size(); ++r) {
        const std::uint64_t at = t0 + k * kEpochMs + slot_ms(r, honest.size());
        plan_.push_back({honest[r], at, at / kEpochMs,
                         plain_message(make_payload(Kind::kHonest, honest[r], k,
                                                    payload_rng),
                                       at)});
      }
    }
    std::size_t q = 0;
    for (std::size_t i = 0; i < kNodes; ++i) {
      if (role_[i] != Kind::kDoubleSignal) continue;
      const std::uint64_t at = t0 + kEpochMs + 2'500 + 1'000 * q++;
      for (const std::uint64_t delay : {0, 400}) {
        plan_.push_back({i, at + delay, at / kEpochMs,
                         plain_message(make_payload(Kind::kDoubleSignal, i, 1,
                                                    payload_rng),
                                       at + delay)});
      }
    }
  }

  fs::path dir_;
  std::vector<Kind> role_;
  std::vector<Planned> plan_;
  std::vector<WakuMessage> flood_;
};

// -- validate_parallel -----------------------------------------------------

/// No gossip, no simulator: 256 pre-proved depth-20 messages validated by a
/// fresh ShardedValidator per pass, S = W = max(1, nproc - 1) shards and
/// worker lanes, every shard validating all 256 messages in windows of 16.
/// The main thread is the only submitter (closed loop). The one workload
/// that runs on real cores.
class ValidateParallel final : public Workload {
 public:
  explicit ValidateParallel(const Options& o)
      : seed_(o.seed), workers_(worker_lanes()) {}

  Rep run_rep(bool traced) override {
    Rep rep;
    rep.traced = traced;
    Clock::time_point t = Clock::now();
    if (identities_.empty()) {
      Rng rng(seed_ ^ 0x1D3ULL);
      for (std::size_t i = 0; i < kMembers; ++i) {
        identities_.push_back(rln::Identity::generate(rng));
      }
      rep.prepare_s = since_s(t);
      t = Clock::now();
    }
    group_ = std::make_unique<rln::GroupManager>(kDepth,
                                                 rln::TreeMode::kFullTree);
    for (std::size_t i = 0; i < kMembers; ++i) {
      chain::Event ev;
      ev.name = "MemberRegistered";
      ev.topics = {ff::U256{i}, identities_[i].pk.to_u256()};
      group_->on_event(ev);
    }
    rep.deploy_s = since_s(t);
    if (messages_.empty()) {
      t = Clock::now();
      prepare();
      rep.prepare_s += since_s(t);
    }

    rln::ValidatorConfig vcfg;
    vcfg.epoch.epoch_length_ms = kEpochMs;
    std::uint64_t other = 0;
    std::uint64_t accepted_total = 0;
    for (std::size_t pass = 0; pass < kPasses; ++pass) {
      const PassResult r = run_pass(vcfg, pass, traced, rep.layers);
      rep.segments.push_back({r.wall_s, static_cast<double>(r.accepted)});
      if (r.accepted > 0) rep.op_ms.push_back(r.wall_s * 1e3 / r.accepted);
      accepted_total += r.accepted;
      other += r.other;
    }
    if (traced) {
      for (const Segment& s : rep.segments) rep.layers.wall_s += s.wall_s;
      rep.layers.wall_s *= static_cast<double>(workers_);
      rep.layers.inserts_per_node = kMembers;
    }
    rep.attempted = kPasses * workers_ * kMembers;
    rep.failed = other;
    rep.protocol = {0, accepted_total, 0};
    if (other > 0) rep.broken = "a validation outcome was not kAccept";
    return rep;
  }

  ReplayInputs replay_inputs() override {
    ReplayInputs in;
    in.messages = messages_;
    in.prover = prover_;
    in.group = group_.get();
    for (std::size_t i = 0; i < kMembers; ++i) {
      in.member_indices.push_back(i);
      in.member_pks.push_back(identities_[i].pk);
    }
    return in;
  }

 private:
  static constexpr std::size_t kMembers = 256;
  static constexpr std::size_t kPasses = 64;
  static constexpr std::uint64_t kEpoch = 100;
  static constexpr std::uint64_t kNowMs = kEpoch * kEpochMs + 500;

  void prepare() {
    std::vector<zksnark::RlnProverInput> inputs(kMembers);
    Rng payload_rng(seed_ ^ 0x7A11DULL);
    messages_.resize(kMembers);
    for (std::size_t i = 0; i < kMembers; ++i) {
      inputs[i].sk = identities_[i].sk;
      inputs[i].path = group_->path_of(i);
      messages_[i] = plain_message(
          make_payload(Kind::kHonest, i, 0, payload_rng), kNowMs);
    }
    parallel_for(kMembers, hardware_threads(), [&](std::size_t i) {
      messages_[i] = prove_message(std::move(messages_[i]), inputs[i], kEpoch,
                                   seed_ ^ (0xC0DEULL * (i + 1)));
    });
    for (std::size_t i = 0; i < kMembers; ++i) {
      inputs[i].x = rln::message_hash(messages_[i]);
      inputs[i].epoch = Fr::from_u64(kEpoch);
    }
    prover_ = std::move(inputs);
  }

  /// Wall-clock stage sinks for one shard's pipeline (traced passes).
  struct Sinks {
    obs::Histogram epoch_gate, root_check, nullifier_precheck, groth16_batch,
        groth16_fallback, double_signal, window;
    rln::PipelineMetrics metrics{&epoch_gate,    &root_check,
                                 &nullifier_precheck, &groth16_batch,
                                 &groth16_fallback,   &double_signal,
                                 &window};
    StageTimes read() const {
      StageTimes t;
      t.epoch_gate.add(epoch_gate.snapshot());
      t.root_check.add(root_check.snapshot());
      t.nullifier_precheck.add(nullifier_precheck.snapshot());
      t.groth16_batch.add(groth16_batch.snapshot());
      t.groth16_fallback.add(groth16_fallback.snapshot());
      t.double_signal.add(double_signal.snapshot());
      t.window.add(window.snapshot());
      return t;
    }
  };

  struct PassResult {
    double wall_s = 0;
    std::uint64_t accepted = 0;
    std::uint64_t other = 0;
  };

  PassResult run_pass(const rln::ValidatorConfig& vcfg, std::size_t pass,
                      bool traced, LayerCounters& layers) {
    std::vector<std::unique_ptr<Sinks>> sinks;  // outlives the validator
    shard::ShardConfig scfg;
    scfg.num_shards = static_cast<std::uint16_t>(workers_);
    shard::ShardedValidator validator(zksnark::rln_keypair(kDepth).vk, *group_,
                                      vcfg, scfg, seed_ ^ (pass + 1));
    rln::ParallelismConfig pcfg;
    pcfg.deterministic = false;
    pcfg.workers = workers_;
    pcfg.queue_depth = 8;
    pcfg.backpressure = rln::ParallelismConfig::Backpressure::kBlock;
    validator.set_parallelism(pcfg);
    if (traced) {
      validator.set_executor_clock(&obs::steady_clock());
      for (const shard::ShardId s : validator.subscribed()) {
        sinks.push_back(std::make_unique<Sinks>());
        validator.pipeline(s).set_telemetry(&obs::steady_clock(),
                                            &sinks.back()->metrics);
      }
    }
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> other{0};
    const auto done = [&](std::vector<rln::ValidationOutcome> outcomes) {
      for (const rln::ValidationOutcome& o : outcomes) {
        (o.verdict == rln::Verdict::kAccept ? accepted : other)
            .fetch_add(1, std::memory_order_relaxed);
      }
    };
    const Clock::time_point start = Clock::now();
    // Round-robin over shards so every lane has work from the start.
    for (std::size_t w = 0; w < messages_.size(); w += kWindow) {
      const std::size_t len = std::min(kWindow, messages_.size() - w);
      for (const shard::ShardId s : validator.subscribed()) {
        if (!validator.submit(
                s, std::span<const WakuMessage>(&messages_[w], len), kNowMs,
                done)) {
          other.fetch_add(len, std::memory_order_relaxed);
        }
      }
    }
    validator.drain();
    PassResult r{since_s(start), accepted.load(), other.load()};
    if (traced) {
      layers.validator += validator.stats();
      for (const auto& s : sinks) layers.stages.add(s->read());
      for (const rln::LaneObsSnapshot& lane : validator.executor_lane_stats()) {
        layers.lane_service_ns += lane.service.sum;
      }
    }
    return r;
  }

  std::uint64_t seed_;
  std::size_t workers_;
  std::vector<rln::Identity> identities_;
  std::unique_ptr<rln::GroupManager> group_;
  std::vector<WakuMessage> messages_;
  std::vector<zksnark::RlnProverInput> prover_;
};

}  // namespace

// -- Shared helpers --------------------------------------------------------

std::size_t hardware_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "publish_prove", "relay_fanout", "spam_flood", "validate_parallel"};
  return names;
}

std::unique_ptr<Workload> make_workload(const Options& options) {
  if (options.workload == "publish_prove") {
    return std::make_unique<PublishProve>(options);
  }
  if (options.workload == "relay_fanout") {
    return std::make_unique<RelayFanout>(options);
  }
  if (options.workload == "spam_flood") {
    return std::make_unique<SpamFlood>(options);
  }
  if (options.workload == "validate_parallel") {
    return std::make_unique<ValidateParallel>(options);
  }
  return nullptr;
}

}  // namespace cp

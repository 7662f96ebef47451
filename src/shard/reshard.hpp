// Live reshard engine: load-driven rebalancing with generation cutover.
//
// PR 4 made resharding *possible* (bump ShardConfig::generation, push the
// config) but a running fleet could not move from generation G to G+1
// without a flag day: old-gen and new-gen pubsub topics are disjoint by
// design, so a naive switch drops every message published by a peer still
// on the other layout — and a careless overlap window reopens exactly the
// cross-shard double-signal gap the per-shard nullifier design closed
// (publish once on the old mesh, once on the new mesh, same epoch: two
// "first signals", doubled quota). This engine closes both:
//
//   ReshardCoordinator — per-node staged cutover state machine
//
//     kStable -> kAnnounce -> kOverlap -> kDrain -> kStable (gen+1)
//                                                   \ + linger window
//
//     * kAnnounce   the reshard is journaled and advertised; topology
//                   still runs purely on generation G.
//     * kOverlap    the node meshes BOTH /waku/2/rs/G/* and
//                   /waku/2/rs/G+1/* for its shards. Publishes still
//                   route to G (authoritative). Dual-generation RLN
//                   enforcement is active: every message on either mesh
//                   observes into a shared per-DOMAIN nullifier log
//                   (domain = the topic's generation-G shard), so the
//                   same nullifier on a topic's old-gen and new-gen
//                   shard within one epoch is ONE signal — a duplicate
//                   share is dropped, a conflicting share is a
//                   double-signal that recovers sk and slashes.
//     * kDrain      publishes route to G+1; the G meshes stay subscribed
//                   so in-flight old-gen traffic still delivers and
//                   still debits the shared domain quota.
//     * drop-old    the G meshes are unsubscribed and the node runs on
//                   G+1 alone. The domain logs LINGER for Thr+1 epochs:
//                   relayed stragglers from peers that drained later
//                   keep hitting the shared log until the epoch gate
//                   makes every cutover-era epoch unacceptable, at which
//                   point the domain state is provably dead and dropped.
//
//     Locality requirement: the cutover runs on ShardMap::split()
//     layouts (new shard ≡ old shard mod old N), so a node subscribed to
//     (old home s, new home s' ≡ s) sees both generations' meshes of
//     every topic it hosts — the shared domain log is enforceable
//     per-node, with zero cross-node coordination.
//
//   ShardLoadTracker — the "when to reshard" signal: per-shard validated
//     msgs/sec (rolling window) plus nullifier-log sizes, aggregated from
//     the pipelines each upkeep tick; recommend() emits a rebalance
//     recommendation (target shard count + predicted moved-topics cost)
//     once a shard crosses its throughput budget or the load skew
//     crosses a threshold.
//
// The coordinator is transport- and persistence-agnostic: the node's
// NodeShards part owns relay wiring and WAL journaling
// (rln/node_shards.cpp, WAL v3 records), the sim layer owns fleet
// orchestration (sim::run_live_reshard_campaign).
#pragma once

#include <deque>
#include <map>
#include <optional>

#include "rln/nullifier_log.hpp"
#include "shard/shard_map.hpp"

namespace waku::shard {

using ff::Fr;

enum class ReshardPhase : std::uint8_t {
  kStable = 0,
  kAnnounce = 1,
  kOverlap = 2,
  kDrain = 3,
};

[[nodiscard]] const char* reshard_phase_name(ReshardPhase phase);
/// The phase a journaled or serialized byte names; throws
/// std::out_of_range for a byte above kDrain.
[[nodiscard]] ReshardPhase reshard_phase_from_byte(std::uint8_t byte);

class ReshardCoordinator {
 public:
  explicit ReshardCoordinator(const ShardConfig& current);

  [[nodiscard]] ReshardPhase phase() const { return phase_; }
  [[nodiscard]] bool in_cutover() const {
    return phase_ != ReshardPhase::kStable;
  }
  /// Domain (old-generation) state still held after drop-old — while
  /// true, a new reshard cannot begin and domain routing stays active.
  [[nodiscard]] bool lingering() const { return domain_map_.has_value(); }

  /// The authoritative layout for local state keying (generation G until
  /// drop-old, G+1 after).
  [[nodiscard]] const ShardMap& current_map() const { return current_map_; }
  [[nodiscard]] const ShardConfig& current_config() const { return current_; }
  /// The incoming layout; only during announce/overlap/drain.
  [[nodiscard]] const ShardMap& next_map() const;
  [[nodiscard]] const ShardConfig& next_config() const;
  /// Publish routing: the next generation takes over at kDrain.
  [[nodiscard]] bool next_generation_authoritative() const {
    return phase_ == ReshardPhase::kDrain;
  }

  /// kStable -> kAnnounce. `target_num_shards` must be a multiple of the
  /// current count (the cutover runs on split() layouts — see file
  /// comment); `subscribe` is this node's new-generation subscription
  /// (empty = all), where every new home must refine an old home
  /// (s' mod old N subscribed under G) or the node could not enforce the
  /// shared domain quota for topics it hosts. Returns false (no state
  /// change) when already in cutover, still lingering, or the layout is
  /// not a valid split.
  bool begin(std::uint16_t target_num_shards, std::vector<ShardId> subscribe);

  /// One phase step: kAnnounce->kOverlap, kOverlap->kDrain,
  /// kDrain->kStable (drop-old). At drop-old the next config becomes
  /// current and the domain logs enter their linger window, which expires
  /// once current_epoch > `linger_until_epoch` (the node computes
  /// cutover_epoch + Thr + 1 live and journals it, so a crash-restart
  /// replays the identical window). Returns false from kStable.
  bool advance(std::uint64_t linger_until_epoch = 0);

  // -- Dual-generation rate-limit domain -------------------------------------

  /// The shared nullifier log every message for `content_topic` must
  /// observe into while cutover/linger domain routing is active — keyed
  /// by the topic's OLD-generation shard, shared by both generations'
  /// meshes. nullptr when no redirect applies (stable, or announce: the
  /// single live generation's own logs are the domain).
  [[nodiscard]] rln::NullifierLog* domain_log(std::string_view content_topic);

  /// The old-generation (domain) shard of a topic while domain routing is
  /// active — the WAL tag cutover observations journal under.
  [[nodiscard]] std::optional<ShardId> domain_of(
      std::string_view content_topic) const;

  /// Seeds domain log `shard` from a serialized rln::NullifierLog — at
  /// overlap entry the node copies each hosted old shard's log history in,
  /// so pre-cutover signals keep counting against the cutover quota.
  void seed_domain_log(ShardId shard, BytesView log_bytes);

  /// WAL replay of one cutover observation (domain-tagged). Dropped when
  /// domain routing is no longer active.
  void inject_domain_observation(ShardId shard, std::uint64_t epoch,
                                 const Fr& nullifier, const sss::Share& share,
                                 std::uint64_t proof_fp);

  /// Epoch upkeep: GCs the domain logs. Linger expiry is NOT automatic —
  /// the owner checks linger_expired() and calls end_linger(), so it can
  /// journal the expiry (the node's quota re-keying and a later
  /// cutover's begin() both depend on replaying it at the same point in
  /// the WAL stream).
  void gc(std::uint64_t current_epoch, std::uint64_t thr);

  /// True once every epoch the domain logs could still adjudicate is
  /// outside the epoch gate — time to end_linger().
  [[nodiscard]] bool linger_expired(std::uint64_t current_epoch) const {
    return phase_ == ReshardPhase::kStable && domain_map_.has_value() &&
           linger_until_epoch_ != 0 && current_epoch > linger_until_epoch_;
  }

  /// Drops the domain state (map, logs, deadline); domain routing stops
  /// and the next cutover may begin.
  void end_linger();

  [[nodiscard]] std::uint64_t linger_until_epoch() const {
    return linger_until_epoch_;
  }
  /// Total entries across the domain logs (tests/operators).
  [[nodiscard]] std::size_t domain_entries() const;

  /// Full coordinator state (phase, configs, lineage maps, linger window,
  /// domain logs) — rides in the node snapshot so a mid-reshard restart
  /// resumes the exact phase fail-closed.
  [[nodiscard]] Bytes serialize() const;
  /// Inverse of serialize(). Throws std::out_of_range on an unknown
  /// version, a phase byte above kDrain, a config of 0 shards or with a
  /// subscribed shard out of range, a bad map lineage or truncated input,
  /// and then leaves the coordinator as it was.
  void restore(BytesView bytes);

 private:
  ReshardPhase phase_ = ReshardPhase::kStable;
  ShardConfig current_;
  ShardMap current_map_;
  std::optional<ShardConfig> next_;
  std::optional<ShardMap> next_map_;
  /// The generation-G layout the domain logs are keyed by; set at overlap
  /// entry, retained through drain and the post-drop-old linger.
  std::optional<ShardMap> domain_map_;
  std::map<ShardId, rln::NullifierLog> domain_logs_;
  std::uint64_t linger_until_epoch_ = 0;
};

// -- Load-driven rebalancing --------------------------------------------------

struct RebalanceRecommendation {
  bool reshard_recommended = false;
  std::uint16_t current_shards = 1;
  /// Recommended target count: current × 2^k, directly usable as the
  /// ReshardCoordinator::begin target (split layouts need a multiple).
  std::uint16_t target_shards = 1;
  double max_rate_msgs_per_sec = 0;
  double mean_rate_msgs_per_sec = 0;
  /// max/mean across shards (1.0 = perfectly balanced).
  double skew = 1.0;
  std::size_t max_log_entries = 0;
  /// Worst per-shard p95 whole-window validation latency (ms) the node
  /// fed from its pipeline latency histograms; 0 until a node wires
  /// telemetry in.
  double max_p95_validate_ms = 0;
  /// Topics (of the sampled active set) whose assignment changes under
  /// the recommended split — the migration cost an operator weighs.
  std::size_t predicted_moved_topics = 0;
  std::string reason;
};

/// Aggregates per-shard validated-message rates and nullifier-log sizes
/// into a reshard recommendation. The node feeds it cumulative pipeline
/// counters once per upkeep tick; rates come from a rolling window so a
/// burst decays instead of recommending forever.
class ShardLoadTracker {
 public:
  struct Config {
    /// Rolling rate window.
    std::uint64_t window_ms = 30'000;
    /// Per-shard validated throughput budget; a shard past this is
    /// overloaded regardless of skew.
    double overload_msgs_per_sec = 200.0;
    /// max/mean rate ratio that flags imbalance (only acted on when the
    /// hot shard also carries meaningful absolute load).
    double skew_threshold = 3.0;
    /// Nullifier-log size that signals memory pressure on a shard.
    std::size_t log_entries_soft_cap = 1 << 16;
    /// p95 whole-window validation latency past which a shard counts as
    /// latency-overloaded even when its throughput fits the budget —
    /// the paper's bounded-validation-latency claim as an operational
    /// trigger. Only shards that actually report a p95 (> 0; requires
    /// node telemetry) can trip it.
    double p95_budget_ms = 250.0;
  };

  ShardLoadTracker() = default;
  explicit ShardLoadTracker(Config config) : config_(config) {}

  /// Records shard `shard`'s cumulative accepted-message counter and
  /// current nullifier-log size at local time `now_ms`. `p95_validate_ms`
  /// is the shard's p95 whole-window validation latency from the node's
  /// pipeline latency histogram (0 = telemetry not wired — latency plays
  /// no part in the recommendation then).
  void record(ShardId shard, std::uint64_t accepted_total,
              std::size_t log_entries, std::uint64_t now_ms,
              double p95_validate_ms = 0.0);

  /// Drops every window — a reshard's drop-old re-keys the shard id
  /// space AND resets the pipelines' cumulative counters, so mixing
  /// pre-cutover samples into post-cutover windows would wrap the
  /// unsigned deltas and fabricate astronomical rates.
  void reset() { shards_.clear(); }

  /// Validated msgs/sec over the rolling window (0 until two samples).
  [[nodiscard]] double rate_msgs_per_sec(ShardId shard) const;
  [[nodiscard]] std::size_t log_entries(ShardId shard) const;
  /// Last recorded p95 validation latency (ms); 0 when never reported.
  [[nodiscard]] double p95_validate_ms(ShardId shard) const;

  /// The rebalance verdict for layout `map`; `active_topics` (a sample of
  /// live content topics) sizes the predicted migration cost.
  [[nodiscard]] RebalanceRecommendation recommend(
      const ShardMap& map,
      std::span<const std::string> active_topics = {}) const;

  [[nodiscard]] const Config& config() const { return config_; }

 private:
  struct Sample {
    std::uint64_t at_ms = 0;
    std::uint64_t accepted_total = 0;
  };
  struct PerShard {
    std::deque<Sample> window;
    std::size_t log_entries = 0;
    double p95_validate_ms = 0;
  };

  Config config_;
  std::map<ShardId, PerShard> shards_;
};

}  // namespace waku::shard

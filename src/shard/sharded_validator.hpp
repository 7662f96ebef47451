// Per-shard RLN enforcement over one shared membership tree.
//
// The membership contract, the identity-commitment tree, and slashing stay
// global — a member is a member of the network, not of a shard. What
// shards are the *rate-limit domains*: each shard a node subscribes to
// gets its own staged ValidationPipeline, and therefore its own
//
//   * NullifierLog — the (epoch, nullifier) -> share map is shard-scoped,
//     so the same nullifier observed on two different shards is two
//     independent first signals, never a cross-shard double-signal (the
//     quota is one message per member per epoch PER SHARD);
//   * root-window mirror — each pipeline mirrors the shared group's root
//     window behind a version check, so the hot-path root test reads no
//     cross-shard state;
//   * batch state and verdict counters — a flood saturating one shard's
//     validation windows cannot delay or skew another shard's batches.
//
// ShardedValidator is the node-side container for those per-shard
// pipelines; with the default 1-shard ShardConfig it degenerates to
// exactly the pre-sharding single-pipeline behaviour.
#pragma once

#include <map>
#include <memory>

#include "rln/validation_executor.hpp"
#include "rln/validation_pipeline.hpp"
#include "shard/shard_map.hpp"

namespace waku::shard {

using ff::Fr;

class ShardedValidator {
 public:
  /// `vk` and `group` must outlive the validator (same contract as
  /// ValidationPipeline). One pipeline is built per subscribed shard, each
  /// with a distinct RLC seed derived from `seed`.
  ShardedValidator(const zksnark::VerifyingKey& vk,
                   const rln::GroupManager& group,
                   rln::ValidatorConfig config, ShardConfig shards,
                   std::uint64_t seed);

  /// Same, over an explicit (possibly split-lineage) ShardMap — the live
  /// reshard engine builds the incoming generation's validator on a
  /// ShardMap::split() layout, whose topic assignment a flat
  /// ShardConfig-built map cannot reproduce. `subscribe` empty = all.
  ShardedValidator(const zksnark::VerifyingKey& vk,
                   const rln::GroupManager& group,
                   rln::ValidatorConfig config, ShardMap map,
                   std::vector<ShardId> subscribe, std::uint64_t seed);

  [[nodiscard]] const ShardMap& map() const { return map_; }
  [[nodiscard]] const std::vector<ShardId>& subscribed() const {
    return subscribed_;
  }
  [[nodiscard]] bool subscribes(ShardId shard) const {
    return pipelines_.contains(shard);
  }
  [[nodiscard]] ShardId shard_of(std::string_view content_topic) const {
    return map_.shard_of(content_topic);
  }

  /// Per-shard pipeline access; the shard must be subscribed.
  [[nodiscard]] rln::ValidationPipeline& pipeline(ShardId shard);
  [[nodiscard]] const rln::ValidationPipeline& pipeline(ShardId shard) const;

  // -- Executor-backed validation ---------------------------------------------

  /// Replaces the validation executor (draining the old one first). The
  /// default is the deterministic inline executor — exact single-threaded
  /// semantics. Must not race in-flight submits.
  void set_parallelism(rln::ParallelismConfig parallel);
  [[nodiscard]] const rln::ParallelismConfig& parallelism() const {
    return executor_->config();
  }
  [[nodiscard]] rln::ExecutorStats executor_stats() const {
    return executor_->stats();
  }
  /// Per-lane executor observability (queue-wait/service histograms,
  /// depth high-watermarks); see rln::ValidationExecutor::lane_stats.
  [[nodiscard]] std::vector<rln::LaneObsSnapshot> executor_lane_stats() const {
    return executor_->lane_stats();
  }

  /// Wires executor queue-wait/service timing (nullptr disables). The
  /// clock is remembered: set_parallelism re-applies it to the executor
  /// it builds, so a parallelism switch never silently drops timing.
  void set_executor_clock(const obs::Clock* clock) {
    executor_clock_ = clock;
    executor_->set_clock(clock);
  }

  /// Blocking batch validation of one shard's window through the executor,
  /// one arrival time per message: deterministic mode runs inline (the
  /// pre-executor code path verbatim); parallel mode queues onto the
  /// shard's lane and waits, keeping per-shard submission order against
  /// async submits.
  std::vector<rln::ValidationOutcome> validate_batch(
      ShardId shard, std::span<const WakuMessage> messages,
      std::span<const std::uint64_t> received_at_ms);

  /// Async window submission (parallel-mode fan-out; see
  /// rln::ValidationExecutor::submit for the lifetime contract on
  /// `messages`). Returns false iff kReject backpressure refused it. The
  /// second form stamps every message with one arrival time.
  bool submit(ShardId shard, std::span<const WakuMessage> messages,
              std::span<const std::uint64_t> received_at_ms,
              rln::ValidationExecutor::Completion done);
  bool submit(ShardId shard, std::span<const WakuMessage> messages,
              std::uint64_t now_ms, rln::ValidationExecutor::Completion done);
  /// Waits until every submitted window has completed.
  void drain() { executor_->drain(); }

  /// Field-wise aggregate of every shard's verdict counters.
  [[nodiscard]] rln::ValidatorStats stats() const;
  [[nodiscard]] const rln::ValidatorConfig& config() const { return config_; }

  /// Nullifier-log GC across every subscribed shard.
  void gc(std::uint64_t local_now_ms);

  /// Per-shard GC watermarks, ordered by shard id, of the shards in `only`
  /// (every subscribed shard when empty): the shard-scoped checkpoint
  /// payload.
  [[nodiscard]] std::vector<ShardWatermark> nullifier_watermarks(
      std::span<const ShardId> only = {}) const;
  /// Checkpoint bootstrap: seed each listed shard's (empty) log watermark;
  /// watermarks for unsubscribed shards are ignored.
  void seed_nullifier_watermarks(std::span<const ShardWatermark> watermarks);

  // -- Durable-state hooks ----------------------------------------------------

  /// WAL replay of a shard-tagged observation. Records for shards this
  /// configuration no longer subscribes to are dropped (a reshard between
  /// runs must not resurrect foreign-log state).
  void inject_observation(ShardId shard, std::uint64_t epoch,
                          const Fr& nullifier, const sss::Share& share,
                          std::uint64_t proof_fp);

  /// Serializes every subscribed shard's pipeline state (shard-tagged).
  [[nodiscard]] Bytes serialize_state() const;
  void restore_state(BytesView bytes);

 private:
  ShardMap map_;
  rln::ValidatorConfig config_;
  std::vector<ShardId> subscribed_;
  std::map<ShardId, rln::ValidationPipeline> pipelines_;
  /// Never null; defaults to the deterministic inline executor.
  std::unique_ptr<rln::ValidationExecutor> executor_;
  /// Re-applied to every executor set_parallelism builds.
  const obs::Clock* executor_clock_ = nullptr;
};

}  // namespace waku::shard

// Staged batch-validation pipeline: the routing-time spam check (paper
// §III-F) restructured so a relay can validate a *window* of incoming
// messages at once instead of one at a time. Stages run in cost order,
// cheapest first, so attack traffic dies before it can buy CPU:
//
//   1. epoch-gap gate      |msg.epoch - local epoch| <= Thr        O(1)
//   2. root check          tau against the root-window mirror      O(1)
//   3. nullifier precheck  gossip echoes drop before the verifier  O(1)
//   4. batched Groth16     one RLC-aggregated pairing check for
//                          the survivors, per-proof fallback       amortized
//   5. double-signal       nullifier-log observe + Shamir recovery
//
// The single-message path (validate_one) is the batch path with a window
// of one. See src/rln/README.md for the data structures behind stages 2
// and 5.
#pragma once

#include <algorithm>
#include <functional>
#include <optional>
#include <span>
#include <unordered_set>
#include <vector>

#include "obs/clock.hpp"
#include "obs/telemetry.hpp"
#include "rln/epoch.hpp"
#include "rln/group_manager.hpp"
#include "rln/nullifier_log.hpp"
#include "rln/rate_limit_proof.hpp"
#include "zksnark/groth16.hpp"

namespace waku::rln {

/// Why a message was accepted or dropped; the relay maps this onto
/// gossipsub validation results (Reject penalizes the sender).
enum class Verdict {
  kAccept,
  kIgnoreEpochGap,    ///< too old / too far in the future (benign: skew)
  kIgnoreDuplicate,   ///< same share seen already (gossip echo)
  kRejectNoProof,     ///< missing/malformed proof bundle
  kRejectBadProof,    ///< zkSNARK verification failed
  kRejectStaleRoot,   ///< proof made against an unknown/old tree root
  kRejectSpam,        ///< double-signal detected -> slashing material
};

[[nodiscard]] const char* verdict_name(Verdict v);

struct ValidationOutcome {
  Verdict verdict = Verdict::kAccept;
  /// Set on kRejectSpam when the two shares have distinct x coordinates:
  /// the recovered identity secret key of the spammer. Unset for the
  /// same-x equivocation corner (still spam, no slashing material).
  std::optional<Fr> recovered_sk;
};

struct ValidatorConfig {
  EpochConfig epoch;
  std::uint64_t max_epoch_gap = 2;  ///< Thr (paper §III-F)
};

struct ValidatorStats {
  std::uint64_t accepted = 0;
  std::uint64_t epoch_gap = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t no_proof = 0;
  std::uint64_t bad_proof = 0;
  std::uint64_t stale_root = 0;
  std::uint64_t spam_detected = 0;
  // Pipeline internals. Every window that reaches the verifier counts as
  // exactly one of aggregated/fallback; windows fully settled by the
  // cheap stages count in `batches` alone.
  std::uint64_t batches = 0;             ///< validate_batch invocations
  std::uint64_t batch_aggregated = 0;    ///< windows settled by one RLC check
  std::uint64_t batch_fallbacks = 0;     ///< windows that isolated per proof
  std::uint64_t precheck_duplicates = 0; ///< echoes dropped before the SNARK
  // Pairing work the Groth16 stage priced (zksnark::BatchVerifyOutcome):
  // deterministic cost units, unlike the stage's wall time. Not part of
  // serialize_state(), so they count from the last start or restore.
  std::uint64_t miller_loops = 0;
  std::uint64_t final_exps = 0;
  // Mirror of NullifierLog::stats() at the time stats() was called.
  std::uint64_t log_entries = 0;
  std::uint64_t log_buckets = 0;
  std::uint64_t log_conflicts = 0;
  /// Mirror of the log's GC watermark (oldest live epoch). Defaults to
  /// the min-aggregation identity so a default-constructed accumulator
  /// does not drag every operator+= aggregate down to 0; stats() always
  /// overwrites it with the real watermark.
  std::uint64_t log_min_epoch = ~std::uint64_t{0};

  /// Field-wise accumulation (deployment-wide aggregation): every
  /// kSummedStats counter by sum, the watermark by minimum (the
  /// deployment-wide oldest live epoch). Aggregators rely on this, not
  /// hand-sums.
  ValidatorStats& operator+=(const ValidatorStats& o);
  bool operator==(const ValidatorStats&) const = default;
};

/// Every ValidatorStats counter but the watermark; a new counter joins
/// here. The first kDurableStats of them are what
/// ValidationPipeline::serialize_state() carries, in this order.
inline constexpr std::uint64_t ValidatorStats::*kSummedStats[] = {
    &ValidatorStats::accepted,            &ValidatorStats::epoch_gap,
    &ValidatorStats::duplicates,          &ValidatorStats::no_proof,
    &ValidatorStats::bad_proof,           &ValidatorStats::stale_root,
    &ValidatorStats::spam_detected,       &ValidatorStats::batches,
    &ValidatorStats::batch_aggregated,    &ValidatorStats::batch_fallbacks,
    &ValidatorStats::precheck_duplicates, &ValidatorStats::miller_loops,
    &ValidatorStats::final_exps,          &ValidatorStats::log_entries,
    &ValidatorStats::log_buckets,         &ValidatorStats::log_conflicts};
inline constexpr std::size_t kDurableStats = 11;

inline ValidatorStats& ValidatorStats::operator+=(const ValidatorStats& o) {
  for (const auto field : kSummedStats) this->*field += o.*field;
  log_min_epoch = std::min(log_min_epoch, o.log_min_epoch);
  return *this;
}

/// Stage-2 counters of a pipeline's root-window mirror.
struct RootCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t refreshes = 0;  ///< window copies rebuilt
};

/// Stage-latency sinks (src/obs), one histogram per pipeline stage plus
/// the whole-window latency. All pointers optional — a null histogram
/// drops that stage's sample. The owner (the node) keeps the struct
/// address-stable and shares it across pipeline generations of the same
/// shard, so a live reshard never loses or splits a shard's series.
struct PipelineMetrics {
  obs::Histogram* epoch_gate = nullptr;          ///< stage 1 (incl. proof extraction)
  obs::Histogram* root_check = nullptr;          ///< stage 2
  obs::Histogram* nullifier_precheck = nullptr;  ///< stage 3 (incl. hash-bind)
  obs::Histogram* groth16_batch = nullptr;       ///< stage 4, RLC-aggregated
  obs::Histogram* groth16_fallback = nullptr;    ///< stage 4, per-proof fallback
  obs::Histogram* double_signal = nullptr;       ///< stage 5
  obs::Histogram* window = nullptr;              ///< whole validate_batch call
};

class ValidationPipeline {
 public:
  /// `vk` and `group` must outlive the pipeline. `seed` feeds the RLC
  /// weights of the batched verifier: it must be unpredictable to senders
  /// (a shared constant would let an attacker craft proof pairs whose
  /// weighted binding errors cancel in the aggregate). Deployed nodes
  /// pass per-node entropy; the default is for single-process tests.
  ValidationPipeline(const zksnark::VerifyingKey& vk,
                     const GroupManager& group, ValidatorConfig config,
                     std::uint64_t seed = 0x9D1);

  /// Validates a window of messages, each epoch-checked against its own
  /// arrival time (`received_at_ms`, one per message): a window buffered
  /// upstream is judged by when each message arrived, not when it
  /// flushed. Returns one outcome per message, same order. Verdicts are
  /// independent of the batch partition: any split of the same (message,
  /// timestamp) sequence yields the same per-message verdicts.
  std::vector<ValidationOutcome> validate_batch(
      std::span<const WakuMessage> messages,
      std::span<const std::uint64_t> received_at_ms);

  /// Single-message convenience: a batch of one.
  ValidationOutcome validate_one(const WakuMessage& message,
                                 std::uint64_t local_now_ms);

  /// Drops nullifier records older than Thr epochs.
  void gc(std::uint64_t local_now_ms);

  /// Wires stage timing: `clock` supplies nanosecond reads (virtual time
  /// under the simulator), `metrics` receives per-stage samples. Either
  /// may be null; a null clock disables every clock read on the hot path
  /// (the telemetry-off configuration costs one branch per stage).
  /// Both must outlive the pipeline or be cleared first.
  void set_telemetry(const obs::Clock* clock, const PipelineMetrics* metrics) {
    obs_clock_ = clock;
    obs_metrics_ = metrics;
  }

  /// Counters plus a point-in-time mirror of the nullifier-log stats.
  [[nodiscard]] ValidatorStats stats() const;
  [[nodiscard]] const NullifierLog& log() const { return log_; }
  [[nodiscard]] const RootCacheStats& root_cache_stats() const {
    return root_stats_;
  }
  [[nodiscard]] const ValidatorConfig& config() const { return config_; }

  // -- Durable-state hooks (src/persist) -------------------------------------

  /// Fires whenever the nullifier log records a *new* entry — the node's
  /// WAL journals these, because (unlike tree state) observed shares are
  /// not recoverable from the contract event stream after a crash.
  using ObserveHook = std::function<void(
      std::uint64_t epoch, const Fr& nullifier, const sss::Share& share,
      std::uint64_t proof_fp)>;
  void set_observe_hook(ObserveHook hook) { observe_hook_ = std::move(hook); }

  /// WAL replay: re-records an observation without re-firing the hook or
  /// touching the verdict counters.
  void inject_observation(std::uint64_t epoch, const Fr& nullifier,
                          const sss::Share& share, std::uint64_t proof_fp);

  /// Serializes the nullifier log plus the verdict counters (the mirror
  /// fields of stats() are recomputed, not stored).
  [[nodiscard]] Bytes serialize_state() const;
  void restore_state(BytesView bytes);

  /// Checkpoint bootstrap: start the (empty) log at the serving peer's GC
  /// watermark.
  void seed_nullifier_watermark(std::uint64_t min_epoch) {
    log_.seed_watermark(min_epoch);
  }

  // -- Live-reshard hooks (shard/reshard.hpp) --------------------------------

  /// Per-message nullifier-log override: when set and returning non-null,
  /// stages 3 and 5 read and observe the returned log instead of the
  /// pipeline's own. The reshard engine routes the old-generation and
  /// new-generation meshes of one rate-limit domain into ONE shared log
  /// during a cutover, so migration can never double a member's quota.
  /// An accepted redirected observation is write-through mirrored into
  /// the pipeline's own log (the override log is always a superset, so
  /// the mirror cannot conflict) — dropping the override after the
  /// cutover's linger window never forgets a signal.
  using LogSelector = std::function<NullifierLog*(const WakuMessage&)>;
  void set_log_selector(LogSelector selector) {
    log_selector_ = std::move(selector);
  }

  /// Fires (with the message, so the caller can derive the rate-limit
  /// domain from its content topic) whenever an accepted observation
  /// landed in a selector-routed log. The node journals these under the
  /// domain's shard tag so a mid-reshard restart rebuilds the shared
  /// cutover log; the plain observe hook still fires for the own-log
  /// mirror.
  using CutoverObserveHook = std::function<void(
      const WakuMessage& message, std::uint64_t epoch, const Fr& nullifier,
      const sss::Share& share, std::uint64_t proof_fp)>;
  void set_cutover_observe_hook(CutoverObserveHook hook) {
    cutover_observe_hook_ = std::move(hook);
  }

 private:
  /// Stage 2 against the pipeline's own mirror of the group's root
  /// window: a version comparison plus one hash lookup; the copy is
  /// rebuilt only when the shared window moved (membership events).
  [[nodiscard]] bool root_is_recent(const Fr& root);

  const zksnark::VerifyingKey& vk_;
  const GroupManager& group_;
  ValidatorConfig config_;
  NullifierLog log_;
  ValidatorStats stats_;
  Rng rng_;
  ObserveHook observe_hook_;
  std::uint64_t root_version_ = ~std::uint64_t{0};
  std::unordered_set<Fr, ff::FrHash> roots_;
  RootCacheStats root_stats_;
  LogSelector log_selector_;
  CutoverObserveHook cutover_observe_hook_;
  const obs::Clock* obs_clock_ = nullptr;
  const PipelineMetrics* obs_metrics_ = nullptr;
};

}  // namespace waku::rln

// OperatorLoop: the decide step of the node's autonomous reshard operator
// (configured by OperatorConfig below). Each upkeep tick the node hands it
// the epoch, the cutover/linger state, the load tracker's recommendation
// and the self-monitor's anomaly flags; it answers begin(target,
// subscribe), advance, or nothing. The node applies a decision in a fixed
// order — commit() (journal, then bookkeeping), flight event, then the
// reshard call — so a crash between any two steps replays correctly.
//
// Owns the loop's bookkeeping (cooldown and dwell anchors, the trip
// counter, the decision count), its kOperatorDecision WAL record with
// replay, and the 4×u64 tail of the node snapshot.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/serde.hpp"
#include "rln/node_journal.hpp"
#include "shard/reshard.hpp"

namespace waku::rln {

/// The autonomous operator loop: closes observe -> decide -> act inside
/// the node's own upkeep tick. While stable it watches
/// ShardLoadTracker::recommend() (plus the self-monitor AnomalyEngine's
/// p95-budget signal) and calls begin_reshard() once the recommendation
/// holds for `trip_epochs` consecutive epochs and the cooldown since the
/// last action has passed; while a cutover runs it calls
/// advance_reshard() after dwelling `phase_dwell_epochs` in each phase.
/// Every decision is journaled to the WAL (kOperatorDecision) before it
/// acts and recorded to the flight recorder, so a crash-restart resumes
/// the loop's bookkeeping exactly and a deterministic run is
/// byte-identical.
struct OperatorConfig {
  bool enabled = false;
  /// Minimum epochs between two operator-initiated reshard begins.
  std::uint64_t cooldown_epochs = 8;
  /// Consecutive recommending epochs before begin_reshard fires — the
  /// hysteresis that keeps one bursty window from splitting the fleet.
  std::size_t trip_epochs = 2;
  /// Epochs to dwell in each cutover phase before advancing. Must give
  /// every peer's own loop time to reach the same phase (their upkeep
  /// ticks run on the same epoch cadence, so skew is at most one epoch).
  std::uint64_t phase_dwell_epochs = 2;
  /// New-generation subscription for an operator-initiated begin; the
  /// default (unset) keeps the current subscription (each old home stays
  /// the lowest shard of its family). Deployments that shard
  /// hosting across nodes install a per-node chooser
  /// (set_operator_subscribe_chooser), which survives harness restarts
  /// via the node hook.
  std::function<std::vector<shard::ShardId>(std::uint16_t)>
      subscribe_chooser;
};

/// What the loop sees on one tick.
struct OperatorInputs {
  std::uint64_t epoch = 0;
  bool in_cutover = false;
  bool lingering = false;
  /// recommend() over the current layout (its current_shards is the
  /// layout's shard count).
  shard::RebalanceRecommendation recommendation;
  bool p95_budget_breach = false;
  bool propagation_latency_breach = false;
  /// The current layout, for the default split subscription.
  shard::ShardConfig current;
};

struct OperatorDecision {
  enum class Action : std::uint8_t { kBegin = 0, kAdvance = 1 };
  Action action = Action::kBegin;
  std::uint64_t epoch = 0;
  std::uint16_t target = 0;  ///< begin only
  std::vector<shard::ShardId> subscribe;  ///< begin only (not journaled)
};

class OperatorLoop {
 public:
  /// Journaled with every decision and carried in the snapshot tail, so a
  /// crash-restart resumes the cooldown and dwell anchors exactly.
  struct Bookkeeping {
    std::uint64_t last_action_epoch = 0;    ///< last begin (cooldown anchor)
    std::uint64_t phase_entered_epoch = 0;  ///< dwell anchor
    std::uint64_t consecutive_recommend = 0;  ///< trip counter
    std::uint64_t decisions = 0;  ///< begin + advance, replayed ones too
  };

  /// The decide step; updates only the trip counter. Nothing is journaled
  /// or counted until the caller commit()s the returned decision.
  std::optional<OperatorDecision> decide(const OperatorConfig& config,
                                         const OperatorInputs& in);
  /// Journals the decision (kOperatorDecision: action u8 | epoch u64 |
  /// target u16), then applies its bookkeeping.
  void commit(const OperatorDecision& decision, NodeJournal& journal);
  /// WAL replay: restores the bookkeeping a kOperatorDecision record
  /// carried and returns the decision (subscribe left empty).
  OperatorDecision replay(BytesView payload);

  /// Snapshot tail: the Bookkeeping fields in order (4 × u64).
  void serialize(ByteWriter& w) const;
  void restore(ByteReader& r);

  [[nodiscard]] const Bookkeeping& bookkeeping() const { return state_; }

 private:
  void apply(const OperatorDecision& decision);

  Bookkeeping state_;
};

}  // namespace waku::rln

#include "rln/operator_loop.hpp"

namespace waku::rln {

std::optional<OperatorDecision> OperatorLoop::decide(
    const OperatorConfig& config, const OperatorInputs& in) {
  if (in.in_cutover) {
    // Dwell in each phase long enough for every peer's own loop (same
    // epoch cadence, at most one epoch of skew) to reach it — advancing
    // faster would let this node hit kDrain while a peer is still
    // announcing, and honest traffic published to the new generation
    // would miss hosts.
    if (in.epoch < state_.phase_entered_epoch + config.phase_dwell_epochs) {
      return std::nullopt;
    }
    return OperatorDecision{OperatorDecision::Action::kAdvance, in.epoch, 0,
                            {}};
  }
  if (in.lingering) return std::nullopt;

  // Stable: act once the load tracker's recommendation (or the
  // self-monitor's p95-budget anomaly) holds for trip_epochs consecutive
  // upkeep ticks and the cooldown since the last begin has passed.
  // Mesh-level propagation-latency SLO joins the pressure signal: a
  // fleet whose publish->delivery p95 blows the budget needs capacity
  // even when every individual shard's validate p95 still looks fine.
  const shard::RebalanceRecommendation& rec = in.recommendation;
  if (!rec.reshard_recommended && !in.p95_budget_breach &&
      !in.propagation_latency_breach) {
    state_.consecutive_recommend = 0;
    return std::nullopt;
  }
  ++state_.consecutive_recommend;
  if (state_.consecutive_recommend < config.trip_epochs) return std::nullopt;
  if (state_.last_action_epoch != 0 &&
      in.epoch < state_.last_action_epoch + config.cooldown_epochs) {
    return std::nullopt;
  }
  // A p95-only trigger (recommendation not set) still needs a valid
  // split target; double the current layout.
  const std::uint16_t target =
      rec.reshard_recommended
          ? rec.target_shards
          : static_cast<std::uint16_t>(rec.current_shards * 2);
  // Without a chooser, keep the current subscription: each old home s
  // stays new shard s, the lowest member of its family (s < old N <=
  // target), and empty (all shards) stays all. That is always a valid
  // split subscription, so an un-configured operator still acts.
  return OperatorDecision{OperatorDecision::Action::kBegin, in.epoch, target,
                          config.subscribe_chooser
                              ? config.subscribe_chooser(target)
                              : in.current.subscribe};
}

void OperatorLoop::apply(const OperatorDecision& decision) {
  if (decision.action == OperatorDecision::Action::kBegin) {
    state_.last_action_epoch = decision.epoch;
    state_.consecutive_recommend = 0;
  }
  state_.phase_entered_epoch = decision.epoch;
  ++state_.decisions;
}

void OperatorLoop::commit(const OperatorDecision& decision,
                          NodeJournal& journal) {
  // Journal-before-act, same order as the transition itself: a crash
  // between the two records replays the decision's bookkeeping and then
  // the phase record; a crash before the phase record replays a decision
  // whose transition re-fires from the restored phase.
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(decision.action));
  w.write_u64(decision.epoch);
  w.write_u16(decision.target);
  journal.append(WalTag::kOperatorDecision, w.data());
  apply(decision);
}

OperatorDecision OperatorLoop::replay(BytesView payload) {
  ByteReader r(payload);
  OperatorDecision decision;
  decision.action = static_cast<OperatorDecision::Action>(r.read_u8());
  decision.epoch = r.read_u64();
  decision.target = r.read_u16();
  // Bookkeeping only: the kReshardPhase record journaled right after
  // this one replays the actual transition.
  state_.consecutive_recommend = 0;
  apply(decision);
  return decision;
}

void OperatorLoop::serialize(ByteWriter& w) const {
  w.write_u64(state_.last_action_epoch);
  w.write_u64(state_.phase_entered_epoch);
  w.write_u64(state_.consecutive_recommend);
  w.write_u64(state_.decisions);
}

void OperatorLoop::restore(ByteReader& r) {
  state_.last_action_epoch = r.read_u64();
  state_.phase_entered_epoch = r.read_u64();
  state_.consecutive_recommend = r.read_u64();
  state_.decisions = r.read_u64();
}

}  // namespace waku::rln

// OperatorLoop unit tests: the autonomous operator's decide step and its
// journaled bookkeeping, driven tick by tick without a harness (the
// end-to-end loop is covered by tests/test_obs.cpp and test_reshard.cpp).
#include <gtest/gtest.h>

#include <filesystem>

#include "rln/operator_loop.hpp"

namespace waku::rln {
namespace {

namespace fs = std::filesystem;
using Action = OperatorDecision::Action;

OperatorConfig config(std::size_t trip, std::uint64_t cooldown,
                      std::uint64_t dwell) {
  OperatorConfig c;
  c.enabled = true;
  c.trip_epochs = trip;
  c.cooldown_epochs = cooldown;
  c.phase_dwell_epochs = dwell;
  return c;
}

/// A stable-layout tick over `shards` shards; `recommend` sets the load
/// tracker's recommendation (doubling target).
OperatorInputs stable(std::uint64_t epoch, bool recommend,
                      std::uint16_t shards = 1) {
  OperatorInputs in;
  in.epoch = epoch;
  in.recommendation.current_shards = shards;
  in.recommendation.target_shards = shards;
  if (recommend) {
    in.recommendation.reshard_recommended = true;
    in.recommendation.target_shards = static_cast<std::uint16_t>(shards * 2);
  }
  in.current.num_shards = shards;
  return in;
}

OperatorInputs cutover(std::uint64_t epoch) {
  OperatorInputs in = stable(epoch, /*recommend=*/true);
  in.in_cutover = true;
  return in;
}

/// Commits a begin decided at `epoch` (trip 1, no cooldown yet).
void begin_at(OperatorLoop& loop, NodeJournal& journal, std::uint64_t epoch) {
  const std::optional<OperatorDecision> d =
      loop.decide(config(1, 0, 1), stable(epoch, true));
  ASSERT_TRUE(d.has_value());
  ASSERT_EQ(d->action, Action::kBegin);
  loop.commit(*d, journal);
}

TEST(OperatorLoop, TripEpochsHysteresis) {
  OperatorLoop loop;
  const OperatorConfig cfg = config(/*trip=*/3, /*cooldown=*/8, /*dwell=*/1);
  EXPECT_FALSE(loop.decide(cfg, stable(1, true)).has_value());
  EXPECT_FALSE(loop.decide(cfg, stable(2, true)).has_value());
  // One quiet epoch resets the streak.
  EXPECT_FALSE(loop.decide(cfg, stable(3, false)).has_value());
  EXPECT_EQ(loop.bookkeeping().consecutive_recommend, 0u);
  EXPECT_FALSE(loop.decide(cfg, stable(4, true)).has_value());
  EXPECT_FALSE(loop.decide(cfg, stable(5, true)).has_value());
  const std::optional<OperatorDecision> d = loop.decide(cfg, stable(6, true));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->action, Action::kBegin);
  EXPECT_EQ(d->epoch, 6u);
  EXPECT_EQ(d->target, 2u);
  // Deciding is not acting: nothing is counted until the node commits.
  EXPECT_EQ(loop.bookkeeping().decisions, 0u);
  EXPECT_EQ(loop.bookkeeping().last_action_epoch, 0u);
}

TEST(OperatorLoop, CooldownHoldsUntilTheExactBoundaryEpoch) {
  OperatorLoop loop;
  NodeJournal journal;  // ephemeral: commit journals nothing
  begin_at(loop, journal, 10);
  EXPECT_EQ(loop.bookkeeping().last_action_epoch, 10u);
  EXPECT_EQ(loop.bookkeeping().consecutive_recommend, 0u);

  const OperatorConfig cfg = config(/*trip=*/1, /*cooldown=*/5, /*dwell=*/1);
  EXPECT_FALSE(loop.decide(cfg, stable(14, true, 2)).has_value());
  const std::optional<OperatorDecision> d =
      loop.decide(cfg, stable(15, true, 2));  // 10 + 5: allowed
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->action, Action::kBegin);
  EXPECT_EQ(d->target, 4u);
}

TEST(OperatorLoop, DwellsInEachPhaseBeforeAdvancing) {
  OperatorLoop loop;
  NodeJournal journal;
  begin_at(loop, journal, 10);
  const OperatorConfig cfg = config(/*trip=*/1, /*cooldown=*/8, /*dwell=*/2);
  EXPECT_FALSE(loop.decide(cfg, cutover(11)).has_value());
  std::optional<OperatorDecision> d = loop.decide(cfg, cutover(12));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->action, Action::kAdvance);
  loop.commit(*d, journal);
  EXPECT_EQ(loop.bookkeeping().phase_entered_epoch, 12u);
  // Advances are not begins: the cooldown anchor stays.
  EXPECT_EQ(loop.bookkeeping().last_action_epoch, 10u);
  EXPECT_EQ(loop.bookkeeping().decisions, 2u);
  EXPECT_FALSE(loop.decide(cfg, cutover(13)).has_value());
  d = loop.decide(cfg, cutover(14));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->action, Action::kAdvance);
}

TEST(OperatorLoop, NoActionWhileLingering) {
  OperatorLoop loop;
  const OperatorConfig cfg = config(/*trip=*/1, /*cooldown=*/0, /*dwell=*/1);
  OperatorInputs in = stable(5, true);
  in.lingering = true;
  in.p95_budget_breach = true;
  EXPECT_FALSE(loop.decide(cfg, in).has_value());
  // Lingering neither builds nor resets the streak.
  EXPECT_EQ(loop.bookkeeping().consecutive_recommend, 0u);
  const OperatorConfig trip2 = config(/*trip=*/2, /*cooldown=*/0, /*dwell=*/1);
  EXPECT_FALSE(loop.decide(trip2, stable(6, true)).has_value());
  in.epoch = 7;
  EXPECT_FALSE(loop.decide(trip2, in).has_value());
  EXPECT_EQ(loop.bookkeeping().consecutive_recommend, 1u);
}

TEST(OperatorLoop, AnomaliesCountAsPressureAndDoubleTheLayout) {
  const OperatorConfig cfg = config(/*trip=*/1, /*cooldown=*/0, /*dwell=*/1);
  for (const bool p95 : {true, false}) {
    OperatorLoop loop;
    OperatorInputs in = stable(3, /*recommend=*/false, /*shards=*/3);
    in.p95_budget_breach = p95;
    in.propagation_latency_breach = !p95;
    const std::optional<OperatorDecision> d = loop.decide(cfg, in);
    ASSERT_TRUE(d.has_value()) << "p95=" << p95;
    EXPECT_EQ(d->action, Action::kBegin);
    // No recommendation to take a target from: twice the current count.
    EXPECT_EQ(d->target, 6u);
    // Without a chooser, each old home keeps its lowest family member.
    EXPECT_EQ(d->subscribe, in.current.subscribe);
  }
  // A recommendation's own target wins over the doubling fallback.
  OperatorLoop loop;
  OperatorInputs in = stable(3, /*recommend=*/true, /*shards=*/3);
  in.recommendation.target_shards = 12;
  const std::optional<OperatorDecision> d = loop.decide(cfg, in);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->target, 12u);
}

TEST(OperatorLoop, SubscribeChooserPicksTheNewGeneration) {
  OperatorConfig cfg = config(/*trip=*/1, /*cooldown=*/0, /*dwell=*/1);
  cfg.subscribe_chooser = [](std::uint16_t target) {
    return std::vector<shard::ShardId>{
        static_cast<shard::ShardId>(target - 1)};
  };
  OperatorLoop loop;
  const std::optional<OperatorDecision> d = loop.decide(cfg, stable(2, true));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->subscribe, std::vector<shard::ShardId>{1});
}

TEST(OperatorLoop, ReplayedDecisionsRestoreTheBookkeeping) {
  const fs::path dir =
      fs::temp_directory_path() / "waku_operator_loop_tests" / "replay";
  fs::remove_all(dir);
  fs::create_directories(dir);
  persist::StateStoreConfig store_cfg;
  store_cfg.snapshot_every_records = 0;

  OperatorLoop live;
  {
    NodeJournal journal;
    journal.open(dir.string(), store_cfg);
    begin_at(live, journal, 10);
    const OperatorConfig cfg = config(/*trip=*/1, /*cooldown=*/8, /*dwell=*/1);
    for (std::uint64_t epoch = 11; epoch <= 13; ++epoch) {
      const std::optional<OperatorDecision> d =
          live.decide(cfg, cutover(epoch));
      ASSERT_TRUE(d.has_value());
      live.commit(*d, journal);
    }
  }
  EXPECT_EQ(live.bookkeeping().decisions, 4u);

  OperatorLoop restored;
  std::vector<OperatorDecision> replayed;
  NodeJournal journal;
  journal.open(dir.string(), store_cfg);
  journal.store()->replay_wal(
      [&](std::uint8_t type, std::uint16_t shard, BytesView payload) {
        ASSERT_EQ(type, static_cast<std::uint8_t>(WalTag::kOperatorDecision));
        EXPECT_EQ(shard, 0u);
        replayed.push_back(restored.replay(payload));
      });
  ASSERT_EQ(replayed.size(), 4u);
  EXPECT_EQ(replayed[0].action, Action::kBegin);
  EXPECT_EQ(replayed[0].target, 2u);
  EXPECT_EQ(replayed[3].action, Action::kAdvance);
  EXPECT_EQ(replayed[3].epoch, 13u);

  EXPECT_EQ(restored.bookkeeping().decisions, live.bookkeeping().decisions);
  EXPECT_EQ(restored.bookkeeping().last_action_epoch, 10u);
  EXPECT_EQ(restored.bookkeeping().phase_entered_epoch, 13u);
  EXPECT_EQ(restored.bookkeeping().consecutive_recommend, 0u);

  // The snapshot tail round-trips byte for byte.
  ByteWriter a;
  live.serialize(a);
  ByteWriter b;
  restored.serialize(b);
  EXPECT_EQ(a.data(), b.data());
  EXPECT_EQ(a.data().size(), 32u);  // 4 × u64
  OperatorLoop from_snapshot;
  ByteReader r(a.data());
  from_snapshot.restore(r);
  EXPECT_EQ(from_snapshot.bookkeeping().decisions, 4u);
  EXPECT_EQ(from_snapshot.bookkeeping().phase_entered_epoch, 13u);
}

}  // namespace
}  // namespace waku::rln

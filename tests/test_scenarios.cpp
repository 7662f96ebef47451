// Containment invariants for the adversarial scenario engine (src/sim):
// across RNG seeds, a rate-limit flooder is slashed within a few epochs
// while honest delivery stays >= 99%, a boundary straddler is never
// slashed, a split-equivocator cannot hide conflicting shares from the
// relay overlap, a deposit churner's spam stays quota-bound, an eclipse
// victim detects a stale bootstrap checkpoint, instrumentation survives
// a node kill/restart (the harness re-attaches hooks), and every campaign
// runner replays byte-identically from its seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "sim/scenario.hpp"

namespace waku::sim {
namespace {

constexpr std::uint64_t kSeeds[] = {11, 42, 1337};

std::string fresh_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "waku_scenario_tests" / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

rln::HarnessConfig small_deployment(std::uint64_t seed) {
  rln::HarnessConfig cfg;
  cfg.num_nodes = 10;
  cfg.degree = 3;
  cfg.block_interval_ms = 2'000;
  cfg.node.tree_depth = 10;
  cfg.node.validator.epoch.epoch_length_ms = 10'000;
  cfg.node.validator.max_epoch_gap = 2;
  cfg.seed = seed;
  return cfg;
}

TEST(Scenarios, FlooderSlashedAndContainedAcrossSeeds) {
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ScenarioConfig cfg;
    cfg.name = "flooder";
    cfg.harness = small_deployment(seed);
    RateLimitFlooder flooder(/*slot=*/0, /*burst_per_epoch=*/4);
    Scenario scenario(cfg);
    scenario.add_phase({"warmup", 6'000, true, {}})
        .add_phase({"attack", 25'000, true, {&flooder}})
        .add_phase({"recovery", 10'000, true, {}});
    const Report report = scenario.run();
    const ScenarioVerdict& v = report.verdict;

    // The economic claim: the flooder is slashed, fast.
    EXPECT_GE(v.adversary_slashes, 1u);
    ASSERT_TRUE(v.time_to_slash_epochs.has_value());
    EXPECT_LE(*v.time_to_slash_epochs, 3u);
    // Spam above the 1-per-epoch quota dies at the first hop: deliveries
    // can never exceed one message per epoch spanned by the attack.
    EXPECT_GT(v.spam_sent, 0u);
    EXPECT_LE(v.spam_containment_ratio, 0.6);
    // Honest traffic is unaffected; nobody honest is slashed.
    EXPECT_GE(v.honest_delivery_ratio, 0.99);
    EXPECT_EQ(v.honest_slashes, 0u);
    // The pipeline actually saw the double-signals.
    EXPECT_GE(report.deployment.pipeline.spam_detected, 1u);
  }
}

TEST(Scenarios, CoalitionReportsPerAdversaryVerdicts) {
  // Two strategies attack concurrently in ONE campaign: a rate-limit
  // flooder (slashable — valid proofs, double signals) and a stale-root
  // replayer (unslashable — its bundles die in the O(1) root stage and
  // carry no slashing material). The campaign JSON must attribute slashes
  // per adversary instead of lumping them.
  ScenarioConfig cfg;
  cfg.name = "coalition";
  cfg.harness = small_deployment(42);
  RateLimitFlooder flooder(/*slot=*/0, /*burst_per_epoch=*/4);
  StaleRootReplayer replayer(/*slot=*/1, /*per_tick=*/3);
  Scenario scenario(cfg);
  scenario.add_phase({"warmup", 6'000, true, {}})
      .add_phase({"attack", 25'000, true, {&flooder, &replayer}})
      .add_phase({"recovery", 10'000, true, {}});
  const Report report = scenario.run();
  const ScenarioVerdict& v = report.verdict;

  ASSERT_EQ(v.per_adversary.size(), 2u);
  const AdversaryVerdict* flooder_v = nullptr;
  const AdversaryVerdict* replayer_v = nullptr;
  for (const AdversaryVerdict& av : v.per_adversary) {
    if (av.name == "flooder") flooder_v = &av;
    if (av.name == "stale-root") replayer_v = &av;
  }
  ASSERT_NE(flooder_v, nullptr);
  ASSERT_NE(replayer_v, nullptr);

  // The flooder is slashed; the replayer never is (nothing to recover).
  EXPECT_GE(flooder_v->slashes, 1u);
  ASSERT_TRUE(flooder_v->time_to_slash_ms.has_value());
  EXPECT_EQ(replayer_v->slashes, 0u);
  EXPECT_FALSE(replayer_v->time_to_slash_ms.has_value());
  EXPECT_GT(flooder_v->spam_sent, 0u);
  EXPECT_GT(replayer_v->spam_sent, 0u);
  // The replayer's traffic died in the cheap root stage network-wide.
  EXPECT_GE(report.deployment.pipeline.stale_root, 1u);
  // Honest service level held against the combined attack.
  EXPECT_GE(v.honest_delivery_ratio, 0.99);
  EXPECT_EQ(v.honest_slashes, 0u);
  // And the breakdown survives the JSON export.
  EXPECT_NE(v.to_json().find("\"per_adversary\": [{\"name\": "),
            std::string::npos);
}

TEST(Scenarios, EpochBoundaryStraddlerIsLegalTraffic) {
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ScenarioConfig cfg;
    cfg.name = "straddler";
    cfg.harness = small_deployment(seed);
    EpochBoundaryStraddler straddler(/*slot=*/0);
    Scenario scenario(cfg);
    scenario.add_phase({"warmup", 6'000, true, {}})
        .add_phase({"attack", 40'000, true, {&straddler}})
        .add_phase({"recovery", 8'000, true, {}});
    const Report report = scenario.run();
    const ScenarioVerdict& v = report.verdict;

    // One message per epoch, however boundary-adjacent, is within quota:
    // it must be delivered like honest traffic and never slashed.
    EXPECT_GT(v.spam_sent, 1u);
    EXPECT_EQ(v.slashes, 0u);
    EXPECT_GE(v.spam_containment_ratio, 0.9);  // "contained" = delivered
    EXPECT_GE(v.honest_delivery_ratio, 0.99);
    EXPECT_EQ(v.honest_false_positive_rate, 0.0);
  }
}

TEST(Scenarios, SplitEquivocatorReunitedAndSlashed) {
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ScenarioConfig cfg;
    cfg.name = "split-equivocator";
    cfg.harness = small_deployment(seed);
    SplitEquivocator equivocator(/*slot=*/0);
    Scenario scenario(cfg);
    scenario.add_phase({"warmup", 6'000, true, {}})
        .add_phase({"attack", 25'000, true, {&equivocator}})
        .add_phase({"recovery", 10'000, true, {}});
    const Report report = scenario.run();
    const ScenarioVerdict& v = report.verdict;

    // No first-hop peer saw both shares, but relay propagation reunites
    // them at interior peers: the equivocator is still slashed.
    EXPECT_GT(v.spam_sent, 0u);
    EXPECT_GE(v.adversary_slashes, 1u);
    EXPECT_GE(v.honest_delivery_ratio, 0.99);
    EXPECT_EQ(v.honest_slashes, 0u);
  }
}

TEST(Scenarios, DepositChurnerSpamStaysQuotaBound) {
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ScenarioConfig cfg;
    cfg.name = "churner";
    cfg.harness = small_deployment(seed);
    cfg.harness.num_nodes = 11;  // two churn slots + 9 honest
    DepositChurner churner({0, 1}, /*burst=*/3);
    Scenario scenario(cfg);
    scenario.add_phase({"warmup", 6'000, true, {}})
        .add_phase({"attack", 30'000, true, {&churner}})
        .add_phase({"recovery", 10'000, true, {}});
    const Report report = scenario.run();
    const ScenarioVerdict& v = report.verdict;

    // The §IV-B open problem: early withdrawal can dodge the slash — but
    // the *spam* still dies at the quota. Both churned memberships end
    // spent (withdrawn or slashed), and honest traffic is untouched.
    EXPECT_EQ(churner.withdraw_attempts(), 2u);
    EXPECT_GE(v.withdrawals + v.adversary_slashes, 2u);
    EXPECT_FALSE(scenario.harness().node(0).is_registered());
    EXPECT_FALSE(scenario.harness().node(1).is_registered());
    EXPECT_LE(v.spam_containment_ratio, 0.6);
    EXPECT_GE(v.honest_delivery_ratio, 0.99);
    EXPECT_EQ(v.honest_slashes, 0u);
  }
}

TEST(Scenarios, EclipseVictimDetectsStaleCheckpointAcrossSeeds) {
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    EclipseConfig cfg;
    cfg.harness = small_deployment(seed);
    cfg.harness.num_nodes = 6;
    cfg.churn_members = 6;
    cfg.max_bootstrap_lag = 2;
    const EclipseOutcome outcome = run_eclipse_campaign(cfg);

    EXPECT_GE(outcome.stale_served, 1u);
    EXPECT_GE(outcome.stale_rejections, 1u);
    EXPECT_TRUE(outcome.victim_detected_stale);
    // Once the lossy partition heals, the honest service bootstraps it.
    EXPECT_TRUE(outcome.honest_bootstrap_after);
  }
}

TEST(Scenarios, InvalidProofFloodGraylistsThenRecovers) {
  // Router-level containment, no slashing path: garbage proofs cost the
  // sender its peer score (graylist) but never produce slashing material;
  // after the flood stops, decay restores the peer.
  rln::HarnessConfig cfg = small_deployment(7);
  rln::RlnHarness h(cfg);
  HarnessProbe probe(h);
  h.register_all();
  h.run_ms(5'000);

  InvalidProofFlooder flooder(/*slot=*/0, /*per_tick=*/5);
  Rng rng(0xF100D);
  AdversaryContext ctx{h, rng, 1'000};
  const net::NodeId attacker = h.node(0).node_id();
  std::size_t peak_graylisted_by = 0;
  for (int tick = 0; tick < 10; ++tick) {
    h.run_ms(1'000);
    flooder.on_tick(ctx);
    std::size_t graylisted_by = 0;
    for (std::size_t i = 1; i < h.size(); ++i) {
      if (h.node(i).relay().router().scores().graylisted(attacker)) {
        ++graylisted_by;
      }
    }
    peak_graylisted_by = std::max(peak_graylisted_by, graylisted_by);
  }
  h.run_ms(2'000);

  // Degradation: honest first-hop peers graylisted the flooder during the
  // flood, none of the garbage was delivered to an honest node, and no
  // slashing material was produced.
  EXPECT_GE(peak_graylisted_by, 1u);
  std::uint64_t spam_at_honest = 0;
  for (std::size_t i = 1; i < h.size(); ++i) {
    spam_at_honest += probe.node_spam_delivered(i);
  }
  EXPECT_EQ(spam_at_honest, 0u);
  EXPECT_EQ(h.total_validation_stats().spam_detected, 0u);
  EXPECT_EQ(probe.slashes().size(), 0u);
  EXPECT_TRUE(h.node(0).is_registered());  // no slash for bad proofs

  // Recovery: with the flood stopped, score decay lifts the graylist.
  h.run_ms(60'000);
  for (std::size_t i = 1; i < h.size(); ++i) {
    EXPECT_FALSE(h.node(i).relay().router().scores().graylisted(attacker))
        << "peer " << i << " still graylists the reformed flooder";
  }
  // And the reformed peer's valid traffic flows again.
  const std::uint64_t honest_before = probe.honest_delivered();
  ASSERT_EQ(h.node(0).try_publish(to_bytes(std::string(kHonestTag) +
                                           "reformed")),
            rln::WakuRlnRelayNode::PublishStatus::kOk);
  h.run_ms(6'000);
  EXPECT_GE(probe.honest_delivered(), honest_before + h.size() - 1);
}

TEST(Scenarios, ProbeSurvivesNodeRestart) {
  // RlnHarness::restart_node re-runs the node hook, so a restarted node
  // keeps feeding the probe's delivery ledger instead of delivering into a
  // void.
  rln::HarnessConfig cfg = small_deployment(23);
  cfg.num_nodes = 6;
  // Durable nodes: an ephemeral restart would come back with an empty
  // tree (no event replay) and reject everything — this test is about the
  // instrumentation hook, not bootstrap.
  cfg.persist_dir = fresh_dir("probe_restart");
  rln::RlnHarness h(cfg);
  HarnessProbe probe(h);
  h.register_all();
  h.run_ms(5'000);

  ASSERT_EQ(h.node(1).try_publish(to_bytes(std::string(kHonestTag) + "one")),
            rln::WakuRlnRelayNode::PublishStatus::kOk);
  h.run_ms(5'000);
  const std::uint64_t before = probe.node_honest_delivered(2);
  EXPECT_GT(before, 0u);

  h.kill_node(2);
  h.run_ms(2'000);
  h.restart_node(2);
  h.run_ms(12'000);  // re-graft, next epoch

  ASSERT_EQ(h.node(3).try_publish(to_bytes(std::string(kHonestTag) + "two")),
            rln::WakuRlnRelayNode::PublishStatus::kOk);
  h.run_ms(6'000);
  EXPECT_GT(probe.node_honest_delivered(2), before)
      << "restarted node's deliveries no longer reach the probe";
}

TEST(Scenarios, ReportSumsTheNodesOwnCounters) {
  // The report's deployment view is the field-wise sum of the nodes'
  // exported counters, so it agrees with the harness's own totals, and
  // its JSON carries the node's metrics_json() sections.
  ScenarioConfig cfg;
  cfg.name = "report-sum";
  cfg.harness = small_deployment(5);
  RateLimitFlooder flooder(/*slot=*/0, /*burst_per_epoch=*/3);
  Scenario scenario(cfg);
  scenario.add_phase({"warmup", 5'000, true, {}})
      .add_phase({"attack", 12'000, true, {&flooder}});
  const Report report = scenario.run();
  rln::RlnHarness& h = scenario.harness();

  EXPECT_EQ(report.deployment.pipeline, h.total_validation_stats());
  EXPECT_EQ(report.deployment.node.delivered, h.total_delivered());
  // One shard: the merged per-shard view is the whole pipeline.
  ASSERT_EQ(report.deployment.per_shard.size(), 1u);
  EXPECT_EQ(report.deployment.per_shard.begin()->second, report.deployment.pipeline);
  EXPECT_GT(report.deployment.node.delivered, 0u);
  EXPECT_GE(report.deployment.pipeline.spam_detected, 1u);

  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"pipeline\": " +
                      rln::telemetry_section_json(report.deployment,
                                                  "pipeline")),
            std::string::npos);
  EXPECT_NE(json.find("\"net\": {\"messages_sent\": "), std::string::npos);
}

// Every campaign replays event-for-event from its harness seed, so two
// runs of one config emit byte-identical outcome JSON — the property the
// committed bench baselines (and any refactor of the runners) rely on.
// Configs are the smallest the sharding/reshard suites already run.
TEST(Scenarios, CampaignsReplayByteIdentical) {
  ShardFloodConfig flood;
  flood.harness.num_nodes = 12;
  flood.harness.degree = 4;
  flood.harness.block_interval_ms = 4'000;
  flood.harness.node.tree_depth = 10;
  flood.harness.node.validator.epoch.epoch_length_ms = 10'000;
  flood.harness.node.gossip.validation_batch_max = 8;
  flood.harness.node.shards.num_shards = 3;
  flood.harness.seed = 0x5F100D;
  flood.attacked_shard = 1;
  flood.flood_burst_per_epoch = 5;
  flood.warmup_ms = 8'000;
  flood.attack_ms = 24'000;
  flood.drain_ms = 8'000;
  const ShardFloodOutcome flood_out = run_shard_flood_campaign(flood);
  EXPECT_GT(flood_out.spam_sent, 0u);
  EXPECT_EQ(flood_out.to_json(), run_shard_flood_campaign(flood).to_json());

  LiveReshardConfig reshard;
  reshard.harness = flood.harness;
  reshard.harness.node.shards.num_shards = 2;
  reshard.harness.seed = 0x11FE;
  reshard.target_shards = 4;
  reshard.warmup_ms = 10'000;
  reshard.announce_ms = 3'000;
  reshard.overlap_ms = 14'000;
  reshard.drain_phase_ms = 6'000;
  reshard.settle_ms = 10'000;
  reshard.flood_pairs_per_epoch = 2;
  const LiveReshardOutcome reshard_out = run_live_reshard_campaign(reshard);
  EXPECT_GT(reshard_out.spam_pairs_sent, 0u);
  EXPECT_EQ(reshard_out.to_json(),
            run_live_reshard_campaign(reshard).to_json());

  OperatorHotspotConfig hotspot;
  hotspot.harness = flood.harness;
  hotspot.harness.num_nodes = 24;
  hotspot.harness.degree = 5;
  hotspot.harness.node.validator.epoch.epoch_length_ms = 5'000;
  hotspot.harness.node.shards.num_shards = 1;
  hotspot.harness.seed = 0x0F5E;
  hotspot.target_shards = 2;
  hotspot.max_epochs = 30;
  hotspot.flood_pairs_per_epoch = 2;
  const OperatorHotspotOutcome hotspot_out =
      run_operator_hotspot_campaign(hotspot);
  EXPECT_TRUE(hotspot_out.converged);
  EXPECT_EQ(hotspot_out.to_json(),
            run_operator_hotspot_campaign(hotspot).to_json());
}

}  // namespace
}  // namespace waku::sim

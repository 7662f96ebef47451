// Live reshard engine tests: split-map refinement, the cutover phase
// machine, dual-generation nullifier enforcement through the shared
// domain log, load-driven rebalance recommendations, node-level quota
// migration across drop-old, and the full 4-node campaign (honest
// delivery, zero quota doubling, overlap attacker slashed).
#include <gtest/gtest.h>

#include <set>

#include "hash/poseidon.hpp"
#include "rln/harness.hpp"
#include "shard/reshard.hpp"
#include "sim/scenario.hpp"
#include "zksnark/rln_circuit.hpp"

namespace waku::shard {
namespace {

using ff::Fr;
using ff::U256;
using rln::EpochConfig;
using rln::GroupManager;
using rln::Identity;
using rln::TreeMode;
using rln::ValidationPipeline;
using rln::ValidatorConfig;
using rln::Verdict;
using rln::WakuRlnRelayNode;

// -- ShardMap::split ---------------------------------------------------------

TEST(ShardMapSplit, RefinesParentAssignment) {
  const ShardMap old_map(4, 7);
  const ShardMap new_map = old_map.split(2);
  EXPECT_EQ(new_map.num_shards(), 8);
  EXPECT_EQ(new_map.generation(), 8u);
  EXPECT_TRUE(new_map.is_split());
  ASSERT_NE(new_map.parent(), nullptr);
  EXPECT_EQ(*new_map.parent(), old_map);

  std::set<ShardId> sub_slots_used;
  for (int i = 0; i < 200; ++i) {
    const std::string topic = "/waku/2/app-" + std::to_string(i) + "/proto";
    const ShardId old_shard = old_map.shard_of(topic);
    const ShardId new_shard = new_map.shard_of(topic);
    // The refinement guarantee the cutover's local enforceability
    // depends on: a topic never leaves its old shard's family.
    EXPECT_EQ(new_shard % old_map.num_shards(), old_shard) << topic;
    sub_slots_used.insert(new_shard);
  }
  // Both halves of the families actually get used (the split spreads).
  EXPECT_GT(sub_slots_used.size(), 4u);
}

TEST(ShardMapSplit, FlatReshardDoesNotRefine) {
  // Control: the config-driven flat re-key moves topics across families
  // (fine offline, not usable for a live cutover).
  const ShardMap old_map(4, 0);
  const ShardMap flat(8, old_map.generation() + 1);
  bool left_family = false;
  for (int i = 0; i < 200 && !left_family; ++i) {
    const std::string topic = "/waku/2/app-" + std::to_string(i) + "/proto";
    left_family =
        flat.shard_of(topic) % old_map.num_shards() != old_map.shard_of(topic);
  }
  EXPECT_TRUE(left_family);
}

TEST(ShardMapSplit, SerializeRoundTripsLineage) {
  const ShardMap map = ShardMap(2, 3).split(2).split(4);
  const ShardMap back = ShardMap::deserialize(map.serialize());
  EXPECT_EQ(back, map);
  for (int i = 0; i < 50; ++i) {
    const std::string topic = "/t" + std::to_string(i);
    EXPECT_EQ(back.shard_of(topic), map.shard_of(topic));
  }
  // A flat map at the same (num_shards, generation) is NOT equal: its
  // assignment differs.
  EXPECT_FALSE(ShardMap(16, 5) == map);
}

// -- ReshardCoordinator phase machine ----------------------------------------

TEST(ReshardCoordinator, PhaseMachineAndLinger) {
  ShardConfig cfg;
  cfg.num_shards = 2;
  cfg.subscribe = {0};
  ReshardCoordinator coord(cfg);
  EXPECT_EQ(coord.phase(), ReshardPhase::kStable);
  EXPECT_FALSE(coord.advance());

  // Invalid targets: not a multiple / not larger / foreign family.
  EXPECT_FALSE(coord.begin(3, {}));
  EXPECT_FALSE(coord.begin(2, {}));
  // New home 1 has family 1 mod 2 = 1, which this node does not host.
  EXPECT_FALSE(coord.begin(4, {1}));

  // New homes 0 and 2 both refine old home 0.
  ASSERT_TRUE(coord.begin(4, {0, 2}));
  EXPECT_EQ(coord.phase(), ReshardPhase::kAnnounce);
  EXPECT_EQ(coord.next_config().generation, 1u);
  EXPECT_FALSE(coord.begin(8, {}));  // one cutover at a time

  ASSERT_TRUE(coord.advance());  // overlap
  EXPECT_EQ(coord.phase(), ReshardPhase::kOverlap);
  EXPECT_NE(coord.domain_log("/any/topic"), nullptr);
  ASSERT_TRUE(coord.advance());  // drain
  EXPECT_TRUE(coord.next_generation_authoritative());
  ASSERT_TRUE(coord.advance(/*linger_until_epoch=*/20));  // drop-old
  EXPECT_EQ(coord.phase(), ReshardPhase::kStable);
  EXPECT_EQ(coord.current_map().num_shards(), 4);
  EXPECT_EQ(coord.current_map().generation(), 1u);

  // Domain routing lingers: a straggler from a still-draining peer must
  // keep debiting the shared quota until the epoch gate retires the era.
  // Expiry is owner-driven (the node journals it), not a gc side effect.
  EXPECT_TRUE(coord.lingering());
  EXPECT_NE(coord.domain_log("/any/topic"), nullptr);
  EXPECT_FALSE(coord.begin(8, {}));  // blocked while lingering
  coord.gc(/*current_epoch=*/20, /*thr=*/2);
  EXPECT_FALSE(coord.linger_expired(20));  // 20 is not past the window
  EXPECT_TRUE(coord.lingering());
  EXPECT_TRUE(coord.linger_expired(21));
  coord.end_linger();
  EXPECT_FALSE(coord.lingering());
  EXPECT_EQ(coord.domain_log("/any/topic"), nullptr);
  // The next cutover may start now — subscribe-all is still refused
  // (homes 1/3/5/7 would not refine this node's {0, 2}), a refining
  // subset is accepted.
  EXPECT_FALSE(coord.begin(8, {}));
  EXPECT_TRUE(coord.begin(8, {0, 2, 4, 6}));
}

TEST(ReshardCoordinator, SerializeRestoresMidCutover) {
  ShardConfig cfg;
  cfg.num_shards = 2;
  ReshardCoordinator coord(cfg);
  ASSERT_TRUE(coord.begin(4, {}));
  ASSERT_TRUE(coord.advance());  // overlap
  const sss::Share share{Fr::from_u64(5), Fr::from_u64(6)};
  coord.inject_domain_observation(1, 42, Fr::from_u64(9), share, 77);
  ASSERT_EQ(coord.domain_entries(), 1u);

  ReshardCoordinator restored(ShardConfig{});
  restored.restore(coord.serialize());
  EXPECT_EQ(restored.phase(), ReshardPhase::kOverlap);
  EXPECT_EQ(restored.next_map(), coord.next_map());
  EXPECT_EQ(restored.domain_entries(), 1u);
  EXPECT_EQ(restored.current_config().num_shards, 2);
}

TEST(ReshardCoordinator, RestoreRejectsBadBytesAndKeepsItsState) {
  // Snapshot bytes come from disk: a phase byte above kDrain, an unknown
  // version or a truncated blob is a typed decode error, and the
  // coordinator keeps the state it had.
  ShardConfig cfg;
  cfg.num_shards = 2;
  ReshardCoordinator coord(cfg);
  ASSERT_TRUE(coord.begin(4, {}));
  ASSERT_TRUE(coord.advance());  // overlap
  const Bytes before = coord.serialize();
  const Bytes good = ReshardCoordinator(cfg).serialize();

  Bytes bad_phase = good;
  bad_phase[1] = 9;
  EXPECT_THROW(coord.restore(bad_phase), std::out_of_range);
  EXPECT_EQ(coord.serialize(), before);
  EXPECT_EQ(coord.phase(), ReshardPhase::kOverlap);

  Bytes bad_version = good;
  bad_version[0] = 2;
  EXPECT_THROW(coord.restore(bad_version), std::out_of_range);
  EXPECT_EQ(coord.serialize(), before);

  const Bytes truncated(good.begin(), good.end() - 1);
  EXPECT_THROW(coord.restore(truncated), std::out_of_range);
  EXPECT_EQ(coord.serialize(), before);

  EXPECT_THROW((void)reshard_phase_from_byte(4), std::out_of_range);
  EXPECT_EQ(reshard_phase_from_byte(3), ReshardPhase::kDrain);
}

// -- Dual-generation enforcement through the shared domain log ---------------

constexpr std::size_t kDepth = 8;

struct CutoverPipelines : ::testing::Test {
  GroupManager group{kDepth, TreeMode::kFullTree};
  Rng rng{991};
  Identity mallory = Identity::generate(rng);
  ValidatorConfig vcfg{.epoch = EpochConfig{.epoch_length_ms = 1000},
                       .max_epoch_gap = 2};
  ReshardCoordinator coord{[] {
    ShardConfig cfg;
    cfg.num_shards = 2;
    return cfg;
  }()};

  void SetUp() override {
    chain::Event ev;
    ev.name = "MemberRegistered";
    ev.topics = {U256{0}, mallory.pk.to_u256()};
    group.on_event(ev);
    ASSERT_TRUE(coord.begin(4, {}));
    ASSERT_TRUE(coord.advance());  // overlap: domain routing live
  }

  [[nodiscard]] ValidationPipeline make_pipeline(std::uint64_t seed) {
    ValidationPipeline p(zksnark::rln_keypair(kDepth).vk, group, vcfg, seed);
    p.set_log_selector([this](const WakuMessage& msg) {
      return coord.domain_log(msg.content_topic);
    });
    return p;
  }

  WakuMessage make_message(const std::string& body, std::uint64_t epoch,
                           const std::string& topic) {
    WakuMessage msg;
    msg.payload = to_bytes(body);
    msg.content_topic = topic;
    rln::attach_proof(msg, rln::make_rate_limit_proof(mallory.sk,
                                                      group.path_of(0), msg,
                                                      epoch, rng));
    return msg;
  }
};

TEST_F(CutoverPipelines, CrossGenerationPairIsOneSignalAndSlashes) {
  // One pipeline per generation's mesh of the same topic — the situation
  // every dual-subscribed node is in during overlap.
  ValidationPipeline old_gen = make_pipeline(11);
  ValidationPipeline new_gen = make_pipeline(22);
  const std::string topic = "/waku/2/app-0/proto";

  const WakuMessage on_old = make_message("half on old mesh", 10, topic);
  const WakuMessage on_new = make_message("half on new mesh", 10, topic);

  EXPECT_EQ(old_gen.validate_one(on_old, 10'500).verdict, Verdict::kAccept);
  // Same member, same epoch, other generation's mesh: the shared domain
  // log sees the double-signal and recovers the attacker's sk.
  const rln::ValidationOutcome second = new_gen.validate_one(on_new, 10'500);
  EXPECT_EQ(second.verdict, Verdict::kRejectSpam);
  ASSERT_TRUE(second.recovered_sk.has_value());
  EXPECT_EQ(*second.recovered_sk, mallory.sk);
}

TEST_F(CutoverPipelines, SameMessageOnBothMeshesIsDuplicateNotSpam) {
  ValidationPipeline old_gen = make_pipeline(11);
  ValidationPipeline new_gen = make_pipeline(22);
  const std::string topic = "/waku/2/app-1/proto";
  const WakuMessage msg = make_message("published on both", 10, topic);

  EXPECT_EQ(old_gen.validate_one(msg, 10'500).verdict, Verdict::kAccept);
  // A publisher (or relayer) bridging the same bytes onto the other
  // generation's mesh is ONE signal — dropped silently, never slashed.
  EXPECT_EQ(new_gen.validate_one(msg, 10'500).verdict,
            Verdict::kIgnoreDuplicate);
  // And the accepted copy was write-through mirrored into the accepting
  // pipeline's own log (survives the end of the linger window).
  EXPECT_EQ(old_gen.log().entry_count(), 1u);
  EXPECT_EQ(new_gen.log().entry_count(), 0u);
}

TEST_F(CutoverPipelines, DifferentDomainsStayIsolated) {
  // Topics on different OLD shards are different rate-limit domains even
  // during the cutover: same member, same epoch, two domains -> two
  // independent first signals (cross-shard isolation, invariant 3).
  ValidationPipeline pipeline = make_pipeline(33);
  const ShardMap& old_map = coord.current_map();
  std::string topic_a;
  std::string topic_b;
  for (std::uint64_t i = 0;; ++i) {
    std::string t = "/waku/2/iso-" + std::to_string(i) + "/proto";
    if (topic_a.empty() && old_map.shard_of(t) == 0) topic_a = std::move(t);
    else if (topic_b.empty() && old_map.shard_of(t) == 1) topic_b = std::move(t);
    if (!topic_a.empty() && !topic_b.empty()) break;
  }
  const WakuMessage a = make_message("domain a", 10, topic_a);
  const WakuMessage b = make_message("domain b", 10, topic_b);
  EXPECT_EQ(pipeline.validate_one(a, 10'500).verdict, Verdict::kAccept);
  EXPECT_EQ(pipeline.validate_one(b, 10'500).verdict, Verdict::kAccept);
}

// -- ShardLoadTracker --------------------------------------------------------

TEST(ShardLoadTracker, RecommendsSplitOnOverloadAndSizesCost) {
  ShardLoadTracker::Config cfg;
  cfg.window_ms = 10'000;
  cfg.overload_msgs_per_sec = 100.0;
  ShardLoadTracker tracker(cfg);
  const ShardMap map(4, 0);

  // Shard 1 runs at 350 msgs/sec, the others idle along at 10.
  for (const ShardId s : map.all_shards()) {
    tracker.record(s, 0, 100, 0);
    tracker.record(s, s == 1 ? 3'500 : 100, 100, 10'000);
  }
  EXPECT_NEAR(tracker.rate_msgs_per_sec(1), 350.0, 1.0);

  std::vector<std::string> topics;
  for (int i = 0; i < 64; ++i) {
    topics.push_back("/waku/2/app-" + std::to_string(i) + "/proto");
  }
  const RebalanceRecommendation rec = tracker.recommend(map, topics);
  EXPECT_TRUE(rec.reshard_recommended);
  EXPECT_EQ(rec.current_shards, 4);
  // 350/s over budget 100/s: a 2x split leaves ~175/s, 4x fits.
  EXPECT_EQ(rec.target_shards, 16);
  EXPECT_GT(rec.skew, 3.0);
  // Splitting moves the (1 - 1/factor) of topics whose sub-slot is not 0.
  EXPECT_GT(rec.predicted_moved_topics, 0u);
  EXPECT_LT(rec.predicted_moved_topics, topics.size());
  EXPECT_EQ(rec.reason, "shard over throughput budget");
}

TEST(ShardLoadTracker, BalancedLoadRecommendsNothing) {
  ShardLoadTracker::Config cfg;
  cfg.overload_msgs_per_sec = 100.0;
  ShardLoadTracker tracker(cfg);
  const ShardMap map(4, 0);
  for (const ShardId s : map.all_shards()) {
    tracker.record(s, 0, 10, 0);
    tracker.record(s, 400, 10, 10'000);  // 40/s everywhere
  }
  const RebalanceRecommendation rec = tracker.recommend(map);
  EXPECT_FALSE(rec.reshard_recommended);
  EXPECT_EQ(rec.target_shards, 4);
}

TEST(ShardLoadTracker, LatencyPressureAloneRecommendsReshard) {
  // The node feeds each shard's p95 whole-window validation latency from
  // its pipeline latency histograms (rln/node.cpp upkeep tick). A shard
  // past the p95 budget must trip the recommendation even when its
  // throughput fits comfortably inside the msgs/sec budget.
  ShardLoadTracker::Config cfg;
  cfg.overload_msgs_per_sec = 1'000.0;  // throughput nowhere near the cap
  cfg.p95_budget_ms = 250.0;
  ShardLoadTracker tracker(cfg);
  const ShardMap map(4, 0);
  for (const ShardId s : map.all_shards()) {
    tracker.record(s, 0, 10, 0, /*p95_validate_ms=*/0.0);
    // Shard 2's Groth16 windows run slow (400ms p95); the rest are fine.
    tracker.record(s, 100, 10, 10'000, s == 2 ? 400.0 : 30.0);
  }
  EXPECT_DOUBLE_EQ(tracker.p95_validate_ms(2), 400.0);
  EXPECT_DOUBLE_EQ(tracker.p95_validate_ms(0), 30.0);

  const RebalanceRecommendation rec = tracker.recommend(map);
  EXPECT_TRUE(rec.reshard_recommended);
  EXPECT_DOUBLE_EQ(rec.max_p95_validate_ms, 400.0);
  EXPECT_EQ(rec.reason, "validation p95 over latency budget");
  EXPECT_GT(rec.target_shards, rec.current_shards);

  // Telemetry not wired (p95 == 0 everywhere) must never trip the
  // latency trigger — 0 means "unknown", not "instant".
  ShardLoadTracker cold(cfg);
  for (const ShardId s : map.all_shards()) {
    cold.record(s, 0, 10, 0);
    cold.record(s, 100, 10, 10'000);
  }
  EXPECT_FALSE(cold.recommend(map).reshard_recommended);
}

// -- Node-level cutover ------------------------------------------------------

rln::HarnessConfig reshard_harness_config() {
  rln::HarnessConfig cfg;
  cfg.num_nodes = 4;
  cfg.degree = 3;
  cfg.block_interval_ms = 2'000;
  cfg.node.tree_depth = 10;
  cfg.node.validator.epoch.epoch_length_ms = 30'000;
  cfg.node.shards.num_shards = 2;
  cfg.seed = 0x2E5A;
  return cfg;
}

TEST(NodeLiveReshard, QuotaSurvivesDropOldReKeying) {
  // The self-quota must hold ACROSS the drop-old key-space switch: a
  // node that published in epoch e before drop-old must not be allowed a
  // second same-epoch publish after it (it would double-signal against
  // itself on the shared domain log).
  rln::RlnHarness h(reshard_harness_config());
  h.register_all();
  h.run_ms(2'000);

  WakuRlnRelayNode& node = h.node(0);
  const ShardMap old_map = node.shards().map();
  const std::string topic = content_topic_for_shard(old_map, 0);

  ASSERT_TRUE(node.begin_reshard(4));
  for (std::size_t i = 1; i < h.size(); ++i) h.node(i).begin_reshard(4);
  ASSERT_EQ(node.shards().phase(), ReshardPhase::kAnnounce);
  for (std::size_t i = 0; i < h.size(); ++i) h.node(i).advance_reshard();
  ASSERT_EQ(node.shards().phase(), ReshardPhase::kOverlap);
  h.run_ms(2'000);

  ASSERT_EQ(node.try_publish(to_bytes("during overlap"), topic),
            WakuRlnRelayNode::PublishStatus::kOk);
  EXPECT_EQ(node.try_publish(to_bytes("again, same epoch"), topic),
            WakuRlnRelayNode::PublishStatus::kRateLimited);

  for (std::size_t i = 0; i < h.size(); ++i) h.node(i).advance_reshard();
  ASSERT_EQ(node.shards().phase(), ReshardPhase::kDrain);
  // New generation authoritative, same epoch, same domain: still blocked.
  EXPECT_EQ(node.try_publish(to_bytes("during drain"), topic),
            WakuRlnRelayNode::PublishStatus::kRateLimited);

  for (std::size_t i = 0; i < h.size(); ++i) h.node(i).advance_reshard();
  ASSERT_EQ(node.shards().phase(), ReshardPhase::kStable);
  EXPECT_EQ(node.shards().map().num_shards(), 4);
  EXPECT_EQ(node.shards().map().generation(), old_map.generation() + 1);
  // Post drop-old, the conservative quota merge still blocks this epoch
  // on every new shard.
  EXPECT_EQ(node.try_publish(to_bytes("after drop-old"), topic),
            WakuRlnRelayNode::PublishStatus::kRateLimited);

  // Next epoch: the quota frees up on the new layout.
  h.run_ms(h.config().node.validator.epoch.epoch_length_ms);
  EXPECT_EQ(node.try_publish(to_bytes("next epoch"), topic),
            WakuRlnRelayNode::PublishStatus::kOk);
}

/// The node's shard section with next-generation bytes spliced in: a
/// has_next flag of 1 followed by a copy of the current generation's state.
Bytes shard_section_with_next(const rln::NodeShards& shards) {
  ByteWriter section;
  shards.serialize(section);
  ByteReader r(section.data());
  const Bytes reshard = r.read_bytes();
  const Bytes current = r.read_bytes();
  EXPECT_EQ(r.read_u8(), 0);  // no incoming generation to hold
  ByteWriter w;
  w.write_bytes(reshard);
  w.write_bytes(current);
  w.write_u8(1);
  w.write_bytes(current);
  w.write_raw(r.read_raw(r.remaining()));  // the quota
  return std::move(w).take();
}

TEST(NodeLiveReshard, NextGenerationBytesOutsideACutoverAreATypedError) {
  // Snapshot bytes come from disk. Only the overlap and drain phases hold
  // an incoming generation, so next-generation state while the coordinator
  // is stable or announcing is corrupt: a typed decode error that leaves
  // the node's shard part as it was.
  rln::RlnHarness h(reshard_harness_config());
  h.register_all();
  h.run_ms(2'000);
  rln::NodeShards& shards = h.node(0).shards();
  const auto state = [&shards] {
    ByteWriter w;
    shards.serialize(w);
    return std::move(w).take();
  };

  ASSERT_EQ(shards.phase(), ReshardPhase::kStable);
  const Bytes stable_before = state();
  const Bytes stable_bad = shard_section_with_next(shards);
  ByteReader stable_reader(stable_bad);
  EXPECT_THROW(shards.restore(stable_reader), std::out_of_range);
  EXPECT_EQ(state(), stable_before);

  ASSERT_TRUE(h.node(0).begin_reshard(4));
  ASSERT_EQ(shards.phase(), ReshardPhase::kAnnounce);
  const Bytes announce_before = state();
  const Bytes announce_bad = shard_section_with_next(shards);
  ByteReader announce_reader(announce_bad);
  EXPECT_THROW(shards.restore(announce_reader), std::out_of_range);
  EXPECT_EQ(state(), announce_before);
  EXPECT_EQ(shards.phase(), ReshardPhase::kAnnounce);
  EXPECT_EQ(shards.next(), nullptr);

  // The well-formed section still restores.
  ByteReader good(announce_before);
  shards.restore(good);
  EXPECT_EQ(state(), announce_before);
}

TEST(NodeLiveReshard, LingerQuotaStaysDomainKeyed) {
  // While validators still enforce the shared old-generation domain log
  // (the post-drop-old linger), the publish quota must be keyed by the
  // DOMAIN, not the new shard: two sibling new shards of one old family
  // share a nullifier stream, so a second same-epoch publish would be a
  // self-double-signal — the node must refuse it itself.
  rln::RlnHarness h(reshard_harness_config());
  h.register_all();
  h.run_ms(2'000);
  for (std::size_t i = 0; i < h.size(); ++i) {
    ASSERT_TRUE(h.node(i).begin_reshard(4));
  }
  for (int step = 0; step < 3; ++step) {
    for (std::size_t i = 0; i < h.size(); ++i) h.node(i).advance_reshard();
  }
  WakuRlnRelayNode& node = h.node(0);
  ASSERT_EQ(node.shards().phase(), shard::ReshardPhase::kStable);
  ASSERT_TRUE(node.shards().reshard().lingering());
  // Let the drop-old quota era pass so fresh publishes are allowed.
  h.run_ms(h.config().node.validator.epoch.epoch_length_ms);

  // Two topics on sibling NEW shards (0 and 2) of old family 0.
  const shard::ShardMap& new_map = node.shards().map();
  std::string topic_a;
  std::string topic_b;
  for (std::uint64_t i = 0; topic_a.empty() || topic_b.empty(); ++i) {
    std::string t = "/waku/2/sib-" + std::to_string(i) + "/proto";
    const shard::ShardId s = new_map.shard_of(t);
    if (s == 0 && topic_a.empty()) topic_a = std::move(t);
    else if (s == 2 && topic_b.empty()) topic_b = std::move(t);
  }
  ASSERT_EQ(node.try_publish(to_bytes("family signal"), topic_a),
            WakuRlnRelayNode::PublishStatus::kOk);
  EXPECT_EQ(node.try_publish(to_bytes("sibling, same epoch"), topic_b),
            WakuRlnRelayNode::PublishStatus::kRateLimited);

  // Once the linger expires (Thr+1 epochs; upkeep journals the expiry)
  // the shards really are independent rate-limit domains again.
  h.run_ms(5 * h.config().node.validator.epoch.epoch_length_ms);
  ASSERT_FALSE(h.node(0).shards().reshard().lingering());
  ASSERT_EQ(node.try_publish(to_bytes("a, fresh epoch"), topic_a),
            WakuRlnRelayNode::PublishStatus::kOk);
  EXPECT_EQ(node.try_publish(to_bytes("b, same epoch, own shard"), topic_b),
            WakuRlnRelayNode::PublishStatus::kOk);
}

TEST(NodeLiveReshard, DeliveryAcrossCutoverMeshes) {
  // A message published during overlap (old mesh) and one published
  // after drop-old (new mesh) both reach a peer hosting the topic's
  // shard under the respective generation.
  rln::RlnHarness h(reshard_harness_config());
  h.register_all();
  h.run_ms(2'000);

  for (std::size_t i = 0; i < h.size(); ++i) {
    ASSERT_TRUE(h.node(i).begin_reshard(4));
  }
  for (std::size_t i = 0; i < h.size(); ++i) h.node(i).advance_reshard();
  h.run_ms(4'000);  // heartbeats: new-generation meshes form

  const std::string topic =
      content_topic_for_shard(h.node(0).shards().map(), 0);
  std::uint64_t delivered_before = h.total_delivered();
  ASSERT_EQ(h.node(0).try_publish(to_bytes("overlap publish"), topic),
            WakuRlnRelayNode::PublishStatus::kOk);
  h.run_ms(4'000);
  EXPECT_GT(h.total_delivered(), delivered_before);

  for (std::size_t i = 0; i < h.size(); ++i) h.node(i).advance_reshard();
  for (std::size_t i = 0; i < h.size(); ++i) h.node(i).advance_reshard();
  for (std::size_t i = 0; i < h.size(); ++i) {
    ASSERT_EQ(h.node(i).shards().phase(), ReshardPhase::kStable);
    ASSERT_EQ(h.node(i).shards().map().num_shards(), 4);
  }
  h.run_ms(h.config().node.validator.epoch.epoch_length_ms);

  delivered_before = h.total_delivered();
  ASSERT_EQ(h.node(0).try_publish(to_bytes("post-cutover publish"), topic),
            WakuRlnRelayNode::PublishStatus::kOk);
  h.run_ms(4'000);
  EXPECT_GT(h.total_delivered(), delivered_before);
}

// -- Full campaign -----------------------------------------------------------

TEST(LiveReshardCampaign, CutoverUnderLoadWithOverlapFlooder) {
  sim::LiveReshardConfig cfg;
  cfg.harness.num_nodes = 12;
  cfg.harness.degree = 4;
  cfg.harness.block_interval_ms = 4'000;
  cfg.harness.node.tree_depth = 10;
  cfg.harness.node.validator.epoch.epoch_length_ms = 10'000;
  cfg.harness.node.gossip.validation_batch_max = 8;
  cfg.harness.node.shards.num_shards = 2;
  cfg.harness.seed = 0x11FE;
  cfg.target_shards = 4;
  cfg.warmup_ms = 10'000;
  cfg.announce_ms = 3'000;
  cfg.overlap_ms = 14'000;
  cfg.drain_phase_ms = 6'000;
  cfg.settle_ms = 10'000;
  cfg.flood_pairs_per_epoch = 2;

  const sim::LiveReshardOutcome out = sim::run_live_reshard_campaign(cfg);

  EXPECT_TRUE(out.all_nodes_converged);
  EXPECT_GT(out.honest_sent, 0u);
  EXPECT_GE(out.honest_delivery, 0.99);
  // The migration invariant: no (node, epoch) ever accepted both halves
  // of an attacker's cross-generation pair.
  EXPECT_EQ(out.quota_double_deliveries, 0u);
  EXPECT_GT(out.spam_pairs_sent, 0u);
  EXPECT_TRUE(out.attacker_slashed);
  EXPECT_TRUE(out.rebalance_was_recommended);
  EXPECT_GT(out.cutover_duration_ms, 0u);
  // The verdict JSON carries the containment fields.
  const std::string json = out.to_json();
  EXPECT_NE(json.find("\"quota_double_deliveries\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"attacker_slashed\": true"), std::string::npos);
}

// -- Autonomous operator loop ------------------------------------------------

TEST(OperatorSubscription, CurrentSubscriptionIsValidSplitInput) {
  // The operator loop's default new-generation subscription is the
  // current one: each old home keeps its lowest family member, and
  // begin() accepts it.
  ShardConfig current;
  current.num_shards = 4;
  current.subscribe = {1, 3};
  ReshardCoordinator coord(current);
  EXPECT_TRUE(coord.begin(8, current.subscribe));

  ShardConfig all;
  all.num_shards = 2;  // empty subscribe = all shards
  ReshardCoordinator coord_all(all);
  EXPECT_TRUE(coord_all.begin(4, all.subscribe));
}

TEST(OperatorLoopCampaign, HotspotSplitsAutonomously) {
  // The acceptance demo: 24 nodes all homed on ONE shard under sustained
  // honest load. Nobody calls begin_reshard — every node's own operator
  // loop must trip on its load tracker, journal the decision, and walk
  // announce/overlap/drain/drop-old to a converged 2-shard fleet, while
  // an overlap attacker probes for quota doubling.
  sim::OperatorHotspotConfig cfg;
  cfg.harness.num_nodes = 24;
  cfg.harness.degree = 5;
  cfg.harness.block_interval_ms = 4'000;
  cfg.harness.node.tree_depth = 10;
  cfg.harness.node.validator.epoch.epoch_length_ms = 5'000;
  cfg.harness.node.gossip.validation_batch_max = 8;
  cfg.harness.node.shards.num_shards = 1;
  cfg.harness.seed = 0x0F5E;
  cfg.target_shards = 2;
  cfg.max_epochs = 30;
  cfg.flood_pairs_per_epoch = 2;

  const sim::OperatorHotspotOutcome out =
      sim::run_operator_hotspot_campaign(cfg);

  EXPECT_TRUE(out.operator_triggered);
  EXPECT_TRUE(out.converged);
  EXPECT_EQ(out.to_shards, 2);
  // One clean cutover fleet-wide: every node logged exactly one begin
  // plus three advances — no re-triggers, no stragglers.
  EXPECT_EQ(out.operator_decisions, 4u * 24u);
  // Bounded convergence: trigger -> converged within the dwell budget
  // (3 phases x 2 epochs) plus scheduling slack.
  EXPECT_LE(out.epochs_to_converge, 10u);
  EXPECT_GT(out.honest_sent, 0u);
  EXPECT_EQ(out.honest_delivery, 1.0);
  EXPECT_EQ(out.quota_double_deliveries, 0u);
  EXPECT_GT(out.spam_pairs_sent, 0u);
  EXPECT_TRUE(out.attacker_slashed);
  // The fleet plane saw the campaign: per-epoch rows plus node 0's
  // flight-recorder postmortem with its operator decisions.
  EXPECT_NE(out.fleet_timeline_json, "[]");
  EXPECT_NE(out.postmortem_json.find("\"kind\":\"operator\""),
            std::string::npos);
  EXPECT_NE(out.postmortem_json.find("\"kind\":\"reshard\""),
            std::string::npos);
}

}  // namespace
}  // namespace waku::shard

// Sharded-relay suite: deterministic shard assignment and resharding,
// per-shard rolling root caches, cross-shard nullifier isolation (the
// same member publishing on two shards in one epoch is NOT a
// double-signal), shard-scoped node quotas, shard-scoped light-client
// bootstrap (fail-closed on missing watermarks), per-shard crash-restart
// recovery of the shard-tagged WAL, and the shard-targeted flooder
// containment campaign.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>

#include "common/serde.hpp"
#include "rln/harness.hpp"
#include "rln/light_client.hpp"
#include "shard/shard_map.hpp"
#include "shard/sharded_validator.hpp"
#include "sim/adversary.hpp"
#include "sim/scenario.hpp"
#include "zksnark/rln_circuit.hpp"

namespace waku::rln {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const fs::path dir =
      fs::temp_directory_path() / "waku_sharding_tests" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

// -- ShardMap ----------------------------------------------------------------

TEST(ShardMap, DeterministicBalancedAssignment) {
  const shard::ShardMap a(4), b(4);
  std::set<shard::ShardId> hit;
  for (int n = 0; n < 400; ++n) {
    const std::string topic = "/app/" + std::to_string(n) + "/proto";
    const shard::ShardId s = a.shard_of(topic);
    EXPECT_EQ(s, b.shard_of(topic));  // identical on every peer
    EXPECT_LT(s, 4u);
    hit.insert(s);
  }
  EXPECT_EQ(hit.size(), 4u);  // all shards used over 400 topics

  // Single-shard map degenerates to "everything on shard 0".
  const shard::ShardMap single(1);
  EXPECT_EQ(single.shard_of("/anything/at/all"), 0u);

  // Pubsub topic naming round-trips, and foreign topics are rejected.
  EXPECT_EQ(a.pubsub_topic(3), "/waku/2/rs/0/3");
  EXPECT_EQ(a.parse_pubsub_topic("/waku/2/rs/0/3"), std::optional<
            shard::ShardId>(3));
  EXPECT_FALSE(a.parse_pubsub_topic("/waku/2/rs/0/7").has_value());
  EXPECT_FALSE(a.parse_pubsub_topic("/waku/2/rs/1/0").has_value());
  EXPECT_FALSE(a.parse_pubsub_topic(kDefaultPubsubTopic).has_value());

  // content_topic_for_shard inverts the assignment deterministically.
  for (std::uint16_t s = 0; s < 4; ++s) {
    EXPECT_EQ(a.shard_of(shard::content_topic_for_shard(a, s)), s);
  }
}

TEST(ShardMap, ConfigDrivenResharding) {
  const shard::ShardMap before(2);
  const shard::ShardMap after(8, before.generation() + 1);
  EXPECT_EQ(after.num_shards(), 8u);
  EXPECT_EQ(after.generation(), 1u);

  // The generation salt renames every pubsub topic: old-layout meshes and
  // new-layout meshes can never collide mid-migration.
  EXPECT_EQ(after.pubsub_topic(0), "/waku/2/rs/1/0");
  EXPECT_NE(before.pubsub_topic(0), after.pubsub_topic(0));
  EXPECT_FALSE(before.parse_pubsub_topic(after.pubsub_topic(1)).has_value());

  // Resharding moves a substantial fraction of topics (it re-keys the
  // hash, not just the modulus) — and the moved set is computable.
  std::vector<std::string> topics;
  for (int n = 0; n < 200; ++n) {
    topics.push_back("/app/" + std::to_string(n) + "/proto");
  }
  const std::vector<std::string> moved =
      shard::ShardMap::moved_topics(before, after, topics);
  EXPECT_GT(moved.size(), 100u);  // >= 1 - 1/8 expected; generous bound
}

TEST(ShardMap, MemoizedLookupsMatchUncachedAndInvalidateOnLayoutChange) {
  // The topic->shard memo must be invisible: memoized answers equal the
  // uncached walk (a freshly deserialized map has a cold memo), across a
  // deep split lineage, and a layout change must never serve stale
  // assignments (new map object => new memo).
  shard::ShardMap deep(4);
  for (int s = 0; s < 4; ++s) deep = deep.split(2);  // 4 -> 64 shards
  std::vector<std::string> topics;
  for (int n = 0; n < 200; ++n) {
    topics.push_back("/app/" + std::to_string(n) + "/proto");
  }

  // Warm the memo, then compare against a cold-memo twin of the same map.
  const shard::ShardMap twin =
      shard::ShardMap::deserialize(deep.serialize());
  for (int pass = 0; pass < 3; ++pass) {
    for (const std::string& t : topics) (void)deep.shard_of(t);
  }
  for (const std::string& t : topics) {
    EXPECT_EQ(deep.shard_of(t), twin.shard_of(t));
  }
  const shard::ShardMap::MemoStats stats = deep.memo_stats();
  EXPECT_EQ(stats.misses, topics.size());  // one cold walk per topic
  EXPECT_GT(stats.hits, 0u);
  EXPECT_EQ(stats.flushes, 0u);

  // A further split re-keys assignments; its fresh memo must follow the
  // new layout (and still satisfy the refinement guarantee).
  const shard::ShardMap resplit = deep.split(2);
  for (const std::string& t : topics) {
    EXPECT_EQ(resplit.shard_of(t) % deep.num_shards(), deep.shard_of(t));
  }

  // Copies share the (warm) memo — same layout, same answers.
  const shard::ShardMap copy = deep;  // NOLINT(performance-unnecessary-copy)
  for (const std::string& t : topics) {
    EXPECT_EQ(copy.shard_of(t), twin.shard_of(t));
  }
}

// -- Per-shard enforcement over one shared tree ------------------------------

struct ShardedPipelineFixture {
  static constexpr std::size_t kDepth = 8;
  GroupManager group{kDepth, TreeMode::kFullTree};
  ValidatorConfig vcfg{.epoch = EpochConfig{.epoch_length_ms = 10'000},
                       .max_epoch_gap = 2};
  std::vector<Identity> members;
  Rng rng{0x5A4D};
  std::uint64_t now_ms = 100 * 10'000 + 500;  // mid-epoch 100

  ShardedPipelineFixture() {
    for (std::size_t i = 0; i < 4; ++i) {
      members.push_back(Identity::generate(rng));
      chain::Event ev;
      ev.name = "MemberRegistered";
      ev.topics = {ff::U256{i}, members.back().pk.to_u256()};
      group.on_event(ev);
    }
  }

  WakuMessage proven_message(std::size_t member, const std::string& payload,
                             const std::string& content_topic) {
    WakuMessage msg;
    msg.payload = to_bytes(payload);
    msg.content_topic = content_topic;
    attach_proof(msg, make_rate_limit_proof(members[member].sk,
                                            group.path_of(member), msg, 100,
                                            rng));
    return msg;
  }
};

TEST(ShardedValidator, CrossShardNullifierIsolation) {
  ShardedPipelineFixture fx;
  shard::ShardConfig scfg;
  scfg.num_shards = 2;
  shard::ShardedValidator validator(zksnark::rln_keypair(fx.kDepth).vk,
                                    fx.group, fx.vcfg, scfg, 0x15014);
  const shard::ShardMap& map = validator.map();
  const std::string topic0 = shard::content_topic_for_shard(map, 0);
  const std::string topic1 = shard::content_topic_for_shard(map, 1);

  // The same member, the same epoch, two shards: both messages carry the
  // SAME internal nullifier (it depends only on sk and epoch), yet each
  // shard's log sees its first signal — accepted on both, no slashing
  // material anywhere.
  const WakuMessage on_shard0 = fx.proven_message(0, "a", topic0);
  const WakuMessage on_shard1 = fx.proven_message(0, "b", topic1);
  const auto p0 = extract_proof(on_shard0);
  const auto p1 = extract_proof(on_shard1);
  ASSERT_TRUE(p0.has_value() && p1.has_value());
  ASSERT_EQ(p0->nullifier, p1->nullifier);  // the isolation premise

  EXPECT_EQ(validator.pipeline(0).validate_one(on_shard0, fx.now_ms).verdict,
            Verdict::kAccept);
  const ValidationOutcome cross =
      validator.pipeline(1).validate_one(on_shard1, fx.now_ms);
  EXPECT_EQ(cross.verdict, Verdict::kAccept);
  EXPECT_FALSE(cross.recovered_sk.has_value());
  EXPECT_EQ(validator.stats().spam_detected, 0u);
  EXPECT_EQ(validator.pipeline(0).log().entry_count(), 1u);
  EXPECT_EQ(validator.pipeline(1).log().entry_count(), 1u);

  // Same shard, same member, same epoch, different payload: the classic
  // double-signal — detected, with the sk recovered.
  const WakuMessage conflict = fx.proven_message(0, "c", topic0);
  const ValidationOutcome spam =
      validator.pipeline(0).validate_one(conflict, fx.now_ms);
  EXPECT_EQ(spam.verdict, Verdict::kRejectSpam);
  ASSERT_TRUE(spam.recovered_sk.has_value());
  EXPECT_EQ(*spam.recovered_sk, fx.members[0].sk);
  // The other shard's log is untouched by shard 0's conflict.
  EXPECT_EQ(validator.pipeline(1).stats().spam_detected, 0u);
}

TEST(ShardedValidator, PerShardRootCachesTrackTheSharedWindow) {
  ShardedPipelineFixture fx;
  shard::ShardConfig scfg;
  scfg.num_shards = 2;
  shard::ShardedValidator validator(zksnark::rln_keypair(fx.kDepth).vk,
                                    fx.group, fx.vcfg, scfg, 0x2007);
  const std::string topic0 =
      shard::content_topic_for_shard(validator.map(), 0);
  const WakuMessage old_root_msg = fx.proven_message(1, "pre-churn", topic0);

  // Membership churn after the proof was made: the shared window moves,
  // each shard-local cache refreshes lazily, and the old root (still in
  // the window) keeps validating.
  chain::Event ev;
  ev.name = "MemberRegistered";
  Rng rng(0x77);
  ev.topics = {ff::U256{4}, Identity::generate(rng).pk.to_u256()};
  fx.group.on_event(ev);

  EXPECT_EQ(
      validator.pipeline(0).validate_one(old_root_msg, fx.now_ms).verdict,
      Verdict::kAccept);
  const RootCacheStats& cache0 = validator.pipeline(0).root_cache_stats();
  EXPECT_GE(cache0.refreshes, 1u);
  EXPECT_GE(cache0.hits, 1u);
  // Shard 1 saw no traffic: its cache never refreshed — per-shard caches
  // really are independent.
  EXPECT_EQ(validator.pipeline(1).root_cache_stats().refreshes, 0u);

  // A root outside every window dies in the shard-local O(1) stage.
  WakuMessage stale = fx.proven_message(2, "stale", topic0);
  auto bundle = extract_proof(stale);
  ASSERT_TRUE(bundle.has_value());
  bundle->root = ff::Fr::from_u64(0xDEAD);
  attach_proof(stale, *bundle);
  EXPECT_EQ(validator.pipeline(0).validate_one(stale, fx.now_ms).verdict,
            Verdict::kRejectStaleRoot);
}

// -- Node-level quota and mesh isolation -------------------------------------

TEST(ShardedNode, QuotaIsPerShardPerEpoch) {
  HarnessConfig cfg;
  cfg.num_nodes = 6;
  cfg.degree = 3;
  cfg.block_interval_ms = 2'000;
  cfg.node.tree_depth = 10;
  cfg.node.validator.epoch.epoch_length_ms = 60'000;  // one epoch for all
  cfg.node.shards.num_shards = 2;
  RlnHarness h(cfg);
  h.register_all();
  h.run_ms(2'000);

  const shard::ShardMap map(cfg.node.shards);
  const std::string topic0 = shard::content_topic_for_shard(map, 0);
  const std::string topic1 = shard::content_topic_for_shard(map, 1);

  // One message per epoch PER SHARD: the second publish on shard 0 is
  // refused locally, while shard 1 still has quota.
  EXPECT_EQ(h.node(0).try_publish(to_bytes("s0"), topic0),
            WakuRlnRelayNode::PublishStatus::kOk);
  EXPECT_EQ(h.node(0).try_publish(to_bytes("s0 again"), topic0),
            WakuRlnRelayNode::PublishStatus::kRateLimited);
  EXPECT_EQ(h.node(0).try_publish(to_bytes("s1"), topic1),
            WakuRlnRelayNode::PublishStatus::kOk);
  h.run_ms(6'000);

  // Cross-shard publishing in one epoch is NOT equivocation: nobody
  // detected spam, nobody was slashed.
  EXPECT_EQ(h.total_validation_stats().spam_detected, 0u);
  for (std::size_t i = 0; i < h.size(); ++i) {
    EXPECT_TRUE(h.node(i).is_registered());
  }

  // An unhosted shard is refused fail-fast.
  HarnessConfig partitioned = cfg;
  partitioned.shard_assignment = [](std::size_t) {
    return std::vector<shard::ShardId>{0};
  };
  RlnHarness h2(partitioned);
  h2.register_all();
  EXPECT_EQ(h2.node(0).try_publish(to_bytes("x"), topic1),
            WakuRlnRelayNode::PublishStatus::kShardNotSubscribed);
  EXPECT_EQ(h2.node(0).stats().publish_wrong_shard, 1u);
}

// -- Shard-scoped light-client bootstrap -------------------------------------

TEST(ShardedBootstrap, ClientBootstrapsItsShardSubsetAndValidates) {
  HarnessConfig cfg;
  cfg.num_nodes = 8;
  cfg.degree = 3;
  cfg.block_interval_ms = 2'000;
  cfg.node.tree_depth = 10;
  cfg.node.validator.epoch.epoch_length_ms = 10'000;
  cfg.node.shards.num_shards = 4;  // full nodes host all four
  RlnHarness h(cfg);
  h.register_all();
  h.run_ms(3'000);

  RlnFullServiceNode service(h.network(), h.node(0));
  const auto key = hash::schnorr::keygen_from_seed(0x5CB);
  service.set_checkpoint_signer(key);

  shard::ShardConfig client_shards;
  client_shards.num_shards = 4;
  client_shards.subscribe = {2};
  RlnLightClient client(h.network(), h.node(7).identity(),
                        *h.node(7).group().own_index(),
                        cfg.node.validator.epoch, 0x11C, client_shards);
  client.attach_chain(h.chain(), h.contract(), key.pk);
  h.network().connect(service.node_id(), client.node_id());

  bool ok = false;
  client.bootstrap(service.node_id(), [&](bool accepted) { ok = accepted; });
  h.run_ms(2'000);
  ASSERT_TRUE(ok);
  ASSERT_TRUE(client.bootstrapped());
  EXPECT_EQ(client.light_validator().subscribed(),
            std::vector<shard::ShardId>{2});
  EXPECT_EQ(client.light_group().root(), h.node(0).group().root());

  // Live traffic on the client's shard validates through its per-shard
  // pipeline.
  const shard::ShardMap map(cfg.node.shards);
  const std::string topic2 = shard::content_topic_for_shard(map, 2);
  WakuMessage live;
  bool captured = false;
  h.node(3).set_message_handler([&](const WakuMessage& m) {
    if (!captured) {
      live = m;
      captured = true;
    }
  });
  ASSERT_EQ(h.node(1).try_publish(to_bytes("sharded live"), topic2),
            WakuRlnRelayNode::PublishStatus::kOk);
  h.run_ms(4'000);
  ASSERT_TRUE(captured);
  const ValidationOutcome outcome =
      client.validate(live, h.network().local_time(client.node_id()));
  EXPECT_EQ(outcome.verdict, Verdict::kAccept);
  const ValidationOutcome echo =
      client.validate(live, h.network().local_time(client.node_id()));
  EXPECT_EQ(echo.verdict, Verdict::kIgnoreDuplicate);
}

TEST(ShardedBootstrap, CheckpointMissingSubscribedWatermarkIsRejected) {
  HarnessConfig cfg;
  cfg.num_nodes = 6;
  cfg.degree = 3;
  cfg.block_interval_ms = 2'000;
  cfg.node.tree_depth = 10;
  cfg.node.shards.num_shards = 4;
  RlnHarness h(cfg);
  h.register_all();
  h.run_ms(2'000);

  // A correctly signed checkpoint scoped to shard 0 only, served to a
  // client subscribed to shard 2: without shard 2's GC watermark the
  // client cannot know which epochs that shard already expired — it must
  // refuse the bootstrap outright.
  const auto key = hash::schnorr::keygen_from_seed(0x5CC);
  const std::vector<shard::ShardId> only_shard0{0};
  Checkpoint scoped = h.node(0).make_checkpoint(only_shard0);
  scoped.sign(key);
  ASSERT_TRUE(scoped.watermark_for(0).has_value());
  ASSERT_FALSE(scoped.watermark_for(2).has_value());
  sim::StaleCheckpointService misscoped_service(h.network(),
                                                scoped.serialize());

  shard::ShardConfig client_shards;
  client_shards.num_shards = 4;
  client_shards.subscribe = {2};
  RlnLightClient client(h.network(), h.node(5).identity(),
                        *h.node(5).group().own_index(),
                        cfg.node.validator.epoch, 0x11D, client_shards);
  client.attach_chain(h.chain(), h.contract(), key.pk);
  h.network().connect(misscoped_service.node_id(), client.node_id());

  bool called = false;
  bool ok = true;
  client.bootstrap(misscoped_service.node_id(), [&](bool accepted) {
    called = true;
    ok = accepted;
  });
  h.run_ms(2'000);
  EXPECT_TRUE(called);
  EXPECT_FALSE(ok);
  EXPECT_FALSE(client.bootstrapped());
}

// -- Per-shard crash-restart recovery ----------------------------------------

TEST(ShardedCrashRestart, PerShardLogsRecoverIndependently) {
  HarnessConfig cfg;
  cfg.num_nodes = 5;
  cfg.degree = 3;
  cfg.block_interval_ms = 2'000;
  cfg.node.tree_depth = 10;
  cfg.node.validator.epoch.epoch_length_ms = 60'000;
  cfg.node.shards.num_shards = 2;
  cfg.persist_dir = fresh_dir("per_shard_logs");
  RlnHarness h(cfg);
  h.register_all();
  h.run_ms(2'000);

  const shard::ShardMap map(cfg.node.shards);
  const std::string topic0 = shard::content_topic_for_shard(map, 0);
  const std::string topic1 = shard::content_topic_for_shard(map, 1);
  // Distinct traffic volumes per shard so recovery proves per-shard
  // routing, not just totals.
  for (std::size_t i = 1; i < h.size(); ++i) {
    ASSERT_EQ(h.node(i).try_publish(to_bytes("s0#" + std::to_string(i)),
                                    topic0),
              WakuRlnRelayNode::PublishStatus::kOk);
  }
  ASSERT_EQ(h.node(1).try_publish(to_bytes("s1#1"), topic1),
            WakuRlnRelayNode::PublishStatus::kOk);
  ASSERT_EQ(h.node(2).try_publish(to_bytes("s1#2"), topic1),
            WakuRlnRelayNode::PublishStatus::kOk);
  h.run_ms(5'000);

  // Fold the verdict counters into a snapshot (the WAL carries only the
  // per-shard observations themselves), then crash with no further sim
  // time so the restored state must match byte for byte.
  h.node(0).force_snapshot();
  const auto& pre = h.node(0).validator();
  ASSERT_GT(pre.pipeline(0).log().entry_count(), 0u);
  ASSERT_GT(pre.pipeline(1).log().entry_count(), 0u);
  ASSERT_NE(pre.pipeline(0).log().entry_count(),
            pre.pipeline(1).log().entry_count());
  const Bytes pre_log0 = pre.pipeline(0).log().serialize();
  const Bytes pre_log1 = pre.pipeline(1).log().serialize();
  const Bytes pre_state = h.node(0).serialize_state();

  h.kill_node(0);
  h.restart_node(0);

  // Every shard's log came back byte-identical and the full durable state
  // round-tripped.
  const auto& post = h.node(0).validator();
  EXPECT_EQ(post.pipeline(0).log().serialize(), pre_log0);
  EXPECT_EQ(post.pipeline(1).log().serialize(), pre_log1);
  EXPECT_EQ(h.node(0).serialize_state(), pre_state);

  // Let the restarted node re-mesh before new traffic (messages that
  // propagate while it is outside every mesh are gone for good — that is
  // gossipsub, not a sharding property).
  h.run_ms(3'000);

  // Post-snapshot traffic lives only in the shard-tagged WAL tail: two
  // more shard-1 signals, then crash again — the tail must rebuild each
  // shard's log independently (shard 0 untouched, shard 1 grown by two).
  const std::size_t pre_entries0 = post.pipeline(0).log().entry_count();
  const std::size_t pre_entries1 = post.pipeline(1).log().entry_count();
  ASSERT_EQ(h.node(3).try_publish(to_bytes("s1#3"), topic1),
            WakuRlnRelayNode::PublishStatus::kOk);
  ASSERT_EQ(h.node(4).try_publish(to_bytes("s1#4"), topic1),
            WakuRlnRelayNode::PublishStatus::kOk);
  h.run_ms(5'000);
  ASSERT_EQ(h.node(0).validator().pipeline(1).log().entry_count(),
            pre_entries1 + 2);
  const Bytes tail_log1 = h.node(0).validator().pipeline(1).log().serialize();

  h.kill_node(0);
  h.restart_node(0);
  EXPECT_EQ(h.node(0).validator().pipeline(0).log().entry_count(),
            pre_entries0);
  EXPECT_EQ(h.node(0).validator().pipeline(1).log().entry_count(),
            pre_entries1 + 2);
  EXPECT_EQ(h.node(0).validator().pipeline(1).log().serialize(), tail_log1);

  // Restored quota state: the restarted publisher still refuses a second
  // same-epoch publish per shard, but keeps independent budgets.
  h.kill_node(1);
  h.run_ms(500);
  h.restart_node(1);
  h.run_ms(500);
  EXPECT_EQ(h.node(1).try_publish(to_bytes("again s0"), topic0),
            WakuRlnRelayNode::PublishStatus::kRateLimited);
  EXPECT_EQ(h.node(1).try_publish(to_bytes("again s1"), topic1),
            WakuRlnRelayNode::PublishStatus::kRateLimited);
}

// -- Shard-targeted flooder containment --------------------------------------

TEST(ShardFlood, FloodIsConfinedToTheAttackedShard) {
  sim::ShardFloodConfig cfg;
  cfg.harness.num_nodes = 12;
  cfg.harness.degree = 4;
  cfg.harness.block_interval_ms = 4'000;
  cfg.harness.node.tree_depth = 10;
  cfg.harness.node.validator.epoch.epoch_length_ms = 10'000;
  cfg.harness.node.gossip.validation_batch_max = 8;
  cfg.harness.node.shards.num_shards = 3;
  cfg.harness.seed = 0x5F100D;
  cfg.attacked_shard = 1;
  cfg.flood_burst_per_epoch = 5;
  cfg.warmup_ms = 8'000;
  cfg.attack_ms = 24'000;
  cfg.drain_ms = 8'000;

  const sim::ShardFloodOutcome out = sim::run_shard_flood_campaign(cfg);
  EXPECT_GT(out.spam_sent, 0u);
  // The flooder is slashed by the attacked shard's validators...
  EXPECT_TRUE(out.attacker_slashed);
  // ...while the other shards never even see the spam...
  EXPECT_EQ(out.spam_on_non_attacked_shards, 0u);
  // ...and their honest delivery is untouched (>= 99%).
  EXPECT_GE(out.min_non_attacked_delivery, 0.99);
}

}  // namespace
}  // namespace waku::rln

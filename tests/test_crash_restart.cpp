// Kill-and-restart suite for the durable-state subsystem wired through
// WakuRlnRelayNode: byte-identical snapshot restore, WAL-tail recovery of
// the nullifier log, event-stream resumption from the replay cursor,
// crash-safe commit-reveal slashing, and rate-limit state across restarts.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>

#include "common/serde.hpp"
#include "persist/snapshot.hpp"
#include "persist/state_store.hpp"
#include "rln/harness.hpp"

namespace waku::rln {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const fs::path dir =
      fs::temp_directory_path() / "waku_crash_restart_tests" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

HarnessConfig persisted_config(const std::string& dir) {
  HarnessConfig cfg;
  cfg.num_nodes = 4;
  cfg.degree = 2;
  cfg.block_interval_ms = 2'000;
  cfg.node.tree_depth = 10;
  cfg.node.validator.epoch.epoch_length_ms = 30'000;
  cfg.persist_dir = dir;
  return cfg;
}

/// Registers a brand-new member (no node behind it) straight on the
/// contract — used to advance the event stream while a node is down.
void register_external_member(RlnHarness& h, std::uint64_t tag) {
  Rng rng(tag);
  const Identity member = Identity::generate(rng);
  const chain::Address account = chain::Address::from_u64(0xE0000000 + tag);
  h.chain().create_account(account, 10 * chain::kGweiPerEth);
  chain::Transaction tx;
  tx.from = account;
  tx.to = h.contract();
  tx.method = "register";
  tx.calldata = member.pk_bytes();
  tx.value = h.chain()
                 .contract_at<chain::RlnMembershipContract>(h.contract())
                 .deposit();
  h.chain().submit(std::move(tx));
}

TEST(CrashRestart, SnapshotRestoreIsByteIdentical) {
  RlnHarness h(persisted_config(fresh_dir("byte_identical")));
  h.register_all();
  h.run_ms(3'000);
  // Traffic so the restored state is non-trivial: tree, root window,
  // nullifier log, and counters all have entries.
  for (std::size_t i = 1; i < h.size(); ++i) {
    h.node(i).try_publish(to_bytes("hello from " + std::to_string(i)));
  }
  h.run_ms(5'000);  // mid-epoch (epoch is 30 s)
  ASSERT_GT(h.node(0).validator().pipeline(0).log().entry_count(), 0u);

  h.node(0).force_snapshot();
  const Bytes pre_state = h.node(0).serialize_state();
  const Fr pre_root = h.node(0).group().root();
  const std::vector<Fr> pre_window = h.node(0).group().recent_roots();
  const Bytes pre_log = h.node(0).validator().pipeline(0).log().serialize();
  const auto pre_log_stats = h.node(0).validator().pipeline(0).log().stats();
  const auto pre_buckets =
      h.node(0).validator().pipeline(0).log().bucket_sizes();
  const std::uint64_t pre_cursor = h.node(0).event_cursor();

  h.kill_node(0);
  h.restart_node(0);

  // No simulated time passed: the restored node must be indistinguishable
  // from the snapshotted one, byte for byte.
  EXPECT_EQ(h.node(0).serialize_state(), pre_state);
  EXPECT_EQ(h.node(0).group().root(), pre_root);
  EXPECT_EQ(h.node(0).group().recent_roots(), pre_window);
  EXPECT_EQ(h.node(0).validator().pipeline(0).log().serialize(), pre_log);
  EXPECT_EQ(h.node(0).event_cursor(), pre_cursor);
  EXPECT_TRUE(h.node(0).is_registered());

  // The watermark/bucket introspection the restart suite relies on.
  const auto post_log_stats = h.node(0).validator().pipeline(0).log().stats();
  EXPECT_EQ(post_log_stats.min_epoch, pre_log_stats.min_epoch);
  EXPECT_EQ(post_log_stats.entries, pre_log_stats.entries);
  EXPECT_EQ(post_log_stats.buckets, pre_log_stats.buckets);
  EXPECT_EQ(h.node(0).validator().pipeline(0).log().bucket_sizes(),
            pre_buckets);
  // And the ValidatorStats mirror carries the watermark.
  EXPECT_EQ(h.node(0).validator().stats().log_min_epoch,
            post_log_stats.min_epoch);
}

TEST(CrashRestart, WalTailRestoresNullifierLogAfterSnapshot) {
  RlnHarness h(persisted_config(fresh_dir("wal_tail")));
  h.register_all();
  h.run_ms(3'000);
  h.node(1).try_publish(to_bytes("before snapshot"));
  h.run_ms(4'000);
  h.node(0).force_snapshot();

  // Post-snapshot traffic lives only in the WAL at crash time.
  h.node(2).try_publish(to_bytes("after snapshot 1"));
  h.node(3).try_publish(to_bytes("after snapshot 2"));
  h.run_ms(4'000);

  const Bytes pre_log = h.node(0).validator().pipeline(0).log().serialize();
  const std::size_t pre_entries =
      h.node(0).validator().pipeline(0).log().entry_count();
  ASSERT_GE(pre_entries, 3u);

  h.kill_node(0);
  h.restart_node(0);

  EXPECT_EQ(h.node(0).validator().pipeline(0).log().entry_count(),
            pre_entries);
  EXPECT_EQ(h.node(0).validator().pipeline(0).log().serialize(), pre_log);
}

TEST(CrashRestart, ResumesEventStreamFromCursorNotGenesis) {
  RlnHarness h(persisted_config(fresh_dir("cursor_resume")));
  h.register_all();
  h.run_ms(3'000);
  h.node(0).force_snapshot();
  const std::uint64_t cursor_at_crash = h.node(0).event_cursor();
  ASSERT_GT(cursor_at_crash, 0u);

  h.kill_node(0);

  // Membership churn while the node is down.
  register_external_member(h, 1);
  register_external_member(h, 2);
  h.run_ms(2 * h.config().block_interval_ms + 500);
  ASSERT_GT(h.chain().event_count(), cursor_at_crash);

  h.restart_node(0);

  // The restart replayed exactly the missed suffix of the event stream:
  // the cursor caught up and the tree agrees with a peer that never died.
  EXPECT_EQ(h.node(0).event_cursor(), h.chain().event_count());
  EXPECT_EQ(h.node(0).group().root(), h.node(1).group().root());
  EXPECT_EQ(h.node(0).group().member_count(),
            h.node(1).group().member_count());
  EXPECT_TRUE(h.node(0).is_registered());

  // And the revived node still participates: it can publish and the mesh
  // accepts it.
  h.run_ms(5'000);  // let heartbeats re-graft the mesh
  const std::uint64_t delivered_before = h.total_delivered();
  ASSERT_EQ(h.node(0).try_publish(to_bytes("back from the dead")),
            WakuRlnRelayNode::PublishStatus::kOk);
  h.run_ms(5'000);
  EXPECT_GT(h.total_delivered(), delivered_before);
}

TEST(CrashRestart, ReplayedBurstBlockMatchesAnUncrashedTwin) {
  // Two identical deployments. In each, node 0 snapshots, then one block
  // carries a burst of registrations. The first deployment's node 0 is
  // then killed and replays that block from its cursor; it must land on
  // the uncrashed twin's state byte for byte, with one window root for
  // the whole block.
  constexpr std::uint64_t kBurst = 12;
  RlnHarness crashed(persisted_config(fresh_dir("burst_crashed")));
  RlnHarness twin(persisted_config(fresh_dir("burst_twin")));
  std::uint64_t snapshot_cursor = 0;
  for (RlnHarness* h : {&crashed, &twin}) {
    h->register_all();
    h->run_ms(3'000);
    h->node(0).force_snapshot();
    snapshot_cursor = h->node(0).event_cursor();
    for (std::uint64_t tag = 1; tag <= kBurst; ++tag) {
      register_external_member(*h, 100 + tag);
    }
    const std::size_t roots_before = h->node(0).group().recent_root_count();
    h->run_ms(h->config().block_interval_ms + 500);
    ASSERT_EQ(h->node(0).event_cursor(), snapshot_cursor + kBurst);
    ASSERT_EQ(h->node(0).group().recent_root_count(), roots_before + 1);
  }

  crashed.kill_node(0);
  crashed.restart_node(0);

  EXPECT_EQ(crashed.node(0).event_cursor(), snapshot_cursor + kBurst);
  EXPECT_EQ(crashed.node(0).group().root(), twin.node(0).group().root());
  EXPECT_EQ(crashed.node(0).group().recent_roots(),
            twin.node(0).group().recent_roots());
  EXPECT_EQ(crashed.node(0).serialize_state(), twin.node(0).serialize_state());
}

TEST(CrashRestart, PendingSlashSurvivesCrashBetweenCommitAndReveal) {
  // Two nodes: node 0 (persisted, honest validator) and node 1 (spammer).
  // The spammer's own publishes are not self-validated, so node 0 is the
  // only peer that can detect the double-signal and slash.
  HarnessConfig cfg;
  cfg.num_nodes = 2;
  cfg.degree = 1;
  cfg.block_interval_ms = 20'000;  // nothing mines during the spam window
  cfg.node.tree_depth = 10;
  cfg.node.validator.epoch.epoch_length_ms = 60'000;
  cfg.persist_dir = fresh_dir("pending_slash");
  RlnHarness h(cfg);
  h.register_all();
  h.run_ms(3'000);

  const chain::Gwei spammer_deposit =
      h.chain()
          .contract_at<chain::RlnMembershipContract>(h.contract())
          .deposit();
  const chain::Gwei balance_before = h.chain().balance(h.node(0).account());

  // Double-signal within one epoch.
  h.node(1).force_publish(to_bytes("spam one"));
  h.node(1).force_publish(to_bytes("spam two"));
  h.run_ms(3'000);  // deliver + validate; commit tx submitted, block not yet

  ASSERT_EQ(h.node(0).stats().slash_commits, 1u);
  ASSERT_EQ(h.node(0).stats().slash_reveals, 0u);
  ASSERT_EQ(h.node(0).pending_slash_count(), 1u);

  // Crash before the commit is even mined — the (sk, salt) pair now exists
  // only in node 0's WAL.
  h.kill_node(0);
  h.run_ms(2 * cfg.block_interval_ms);  // SlashCommitted mines while down

  h.restart_node(0);
  // Restart replays the WAL (pending slash) and then the event stream from
  // the cursor; the SlashCommitted event meets the journaled pending entry
  // and the reveal goes out.
  h.run_ms(3 * cfg.block_interval_ms);

  EXPECT_EQ(h.node(0).stats().slash_reveals, 1u);
  EXPECT_EQ(h.node(0).stats().slash_rewards, 1u);
  EXPECT_EQ(h.node(0).pending_slash_count(), 0u);
  // The spammer's membership is gone and the stake moved to the slasher
  // (minus gas).
  EXPECT_EQ(h.node(0).group().removed_count(), 1u);
  EXPECT_FALSE(h.node(1).is_registered());
  EXPECT_GT(h.chain().balance(h.node(0).account()) + spammer_deposit / 2,
            balance_before);
}

TEST(CrashRestart, SnapshotInsideASlashBlockKeepsTheBlockRoot) {
  // Every journal write snapshots, so the slash-resolve record node 0
  // writes while applying MemberSlashed fires a snapshot inside the
  // block: after the removal, before the block's root reaches the window.
  // Killed right then, node 0 must come back with that root in its window,
  // equal to a twin deployment whose node 0 never died.
  const auto config = [](const std::string& name) {
    HarnessConfig cfg;
    cfg.num_nodes = 2;
    cfg.degree = 1;
    cfg.block_interval_ms = 20'000;
    cfg.node.tree_depth = 10;
    cfg.node.validator.epoch.epoch_length_ms = 60'000;
    cfg.node.persist.snapshot_every_records = 1;
    cfg.persist_dir = fresh_dir(name);
    return cfg;
  };
  RlnHarness crashed(config("slash_block_crashed"));
  RlnHarness twin(config("slash_block_twin"));
  for (RlnHarness* h : {&crashed, &twin}) {
    h->register_all();
    h->run_ms(3'000);
    h->node(1).force_publish(to_bytes("spam one"));
    h->node(1).force_publish(to_bytes("spam two"));
    // Commit, then reveal, each in its own block; stop as soon as the
    // reveal's MemberSlashed has been applied.
    for (int step = 0; step < 1'000 && h->node(0).group().removed_count() == 0;
         ++step) {
      h->run_ms(100);
    }
    ASSERT_EQ(h->node(0).group().removed_count(), 1u);
    ASSERT_EQ(h->node(0).stats().slash_rewards, 1u);
    ASSERT_TRUE(h->node(0).group().is_recent_root(h->node(0).group().root()));
  }

  crashed.kill_node(0);
  // One more block lands while node 0 is down (and in the twin): the
  // slash block's root must come back ahead of this block's.
  for (RlnHarness* h : {&crashed, &twin}) {
    register_external_member(*h, 7);
    h->run_ms(h->config().block_interval_ms + 500);
  }
  crashed.restart_node(0);

  const GroupManager& g = crashed.node(0).group();
  EXPECT_EQ(g.root(), twin.node(0).group().root());
  EXPECT_TRUE(g.is_recent_root(g.root()));
  EXPECT_EQ(g.recent_roots(), twin.node(0).group().recent_roots());
  EXPECT_EQ(crashed.node(0).serialize_state(), twin.node(0).serialize_state());
}

TEST(CrashRestart, OwnRateLimitSurvivesRestartWithoutSnapshot) {
  // No snapshot is ever taken: restore runs purely off the WAL plus a
  // cold event replay from genesis — the same-epoch republish must still
  // be refused, or the node would double-signal against itself.
  HarnessConfig cfg = persisted_config(fresh_dir("rate_limit"));
  cfg.node.validator.epoch.epoch_length_ms = 120'000;  // one long epoch
  RlnHarness h(cfg);
  h.register_all();
  h.run_ms(2'000);

  ASSERT_EQ(h.node(1).try_publish(to_bytes("once")),
            WakuRlnRelayNode::PublishStatus::kOk);
  h.run_ms(2'000);

  h.kill_node(1);
  h.restart_node(1);

  EXPECT_TRUE(h.node(1).is_registered());  // rebuilt by cold event replay
  EXPECT_EQ(h.node(1).try_publish(to_bytes("twice, same epoch")),
            WakuRlnRelayNode::PublishStatus::kRateLimited);
}

TEST(CrashRestart, KeystoreSealedSnapshotRestoresSameIdentity) {
  HarnessConfig cfg = persisted_config(fresh_dir("keystore_sealed"));
  cfg.node.keystore_password = "hunter2";
  RlnHarness h(cfg);
  h.register_all();
  h.run_ms(3'000);
  const Fr sk_before = h.node(0).identity().sk;
  h.node(0).force_snapshot();

  // The sealed blob never carries the sk in the clear.
  const Bytes snapshot = h.node(0).serialize_state();
  const Bytes sk_bytes = sk_before.to_bytes_be();
  const auto found = std::search(snapshot.begin(), snapshot.end(),
                                 sk_bytes.begin(), sk_bytes.end());
  EXPECT_EQ(found, snapshot.end());

  h.kill_node(0);
  h.restart_node(0);
  EXPECT_EQ(h.node(0).identity().sk, sk_before);
  EXPECT_TRUE(h.node(0).is_registered());
}

TEST(CrashRestart, KeystoreSealedSnapshotFailsClosedOnWrongPassword) {
  const std::string dir = fresh_dir("keystore_fail_closed");
  HarnessConfig cfg = persisted_config(dir);
  cfg.node.keystore_password = "correct horse";
  RlnHarness h(cfg);
  h.register_all();
  h.run_ms(3'000);
  h.node(0).force_snapshot();
  h.kill_node(0);

  // A restart with the wrong password must refuse to construct — booting
  // with a fresh identity would silently fork the membership.
  NodeConfig wrong = cfg.node;
  wrong.account = h.node(1).account();  // any funded account
  wrong.persist_dir = dir + "/node0";
  wrong.keystore_password = "wrong trombone";
  EXPECT_THROW(
      {
        WakuRlnRelayNode doomed(h.network(), h.chain(), h.contract(), wrong,
                                /*seed=*/999);
      },
      std::runtime_error);

  // The right password still restores.
  h.restart_node(0);
  EXPECT_TRUE(h.node(0).is_registered());
}

TEST(CrashRestart, OldSnapshotVersionRefusesToBootWithTypedError) {
  // Snapshots are strict: there is no migration path, and no fallback to
  // chain replay either (the own-publish quota and the commit-reveal
  // salts exist only in durable state). An old payload must fail node
  // construction with a descriptive runtime_error, like a wrong keystore
  // password — not with a contract violation.
  const std::string dir = fresh_dir("old_snapshot_version");
  RlnHarness h(persisted_config(dir));
  h.register_all();
  h.run_ms(3'000);
  h.node(0).force_snapshot();
  h.kill_node(0);

  // What an older binary left behind: the newest snapshot rewritten as a
  // version-4 payload, one generation later, same replay filter.
  persist::SnapshotEngine engine(dir + "/node0");
  std::optional<persist::SnapshotEngine::Loaded> latest = engine.load_latest();
  ASSERT_TRUE(latest.has_value());
  ASSERT_EQ(latest->payload[0], 5);
  latest->payload[0] = 4;
  persist::SnapshotMeta meta = latest->meta;
  ++meta.generation;
  engine.write(meta, latest->payload);

  try {
    h.restart_node(0);
    FAIL() << "restart accepted a version-4 snapshot";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version 4"), std::string::npos)
        << e.what();
  }
}

TEST(CrashRestart, UnknownReshardPhaseInWalRefusesToBoot) {
  // A kReshardPhase record whose phase byte is above kDrain is corrupt:
  // the restart fails with the decoder's typed error instead of booting
  // with the record skipped.
  const std::string dir = fresh_dir("unknown_reshard_phase");
  RlnHarness h(persisted_config(dir));
  h.register_all();
  h.run_ms(3'000);
  h.kill_node(0);
  {
    persist::StateStore store(dir + "/node0");
    ByteWriter w;
    w.write_u8(7);   // phase
    w.write_u64(0);  // linger_until_epoch
    store.append(static_cast<std::uint8_t>(WalTag::kReshardPhase), w.data());
  }
  EXPECT_THROW(h.restart_node(0), std::out_of_range);
}

TEST(CrashRestart, WithdrawnMemberPurgesPendingSlash) {
  // The in-flight set must not leak: a pending slash against an index
  // that withdraws before the reveal lands is purged (and journaled as
  // resolved) so the slot is not blocked forever.
  HarnessConfig cfg;
  cfg.num_nodes = 2;
  cfg.degree = 1;
  cfg.block_interval_ms = 20'000;
  cfg.node.tree_depth = 10;
  cfg.node.validator.epoch.epoch_length_ms = 60'000;
  cfg.persist_dir = fresh_dir("withdraw_purge");
  RlnHarness h(cfg);
  h.register_all();
  h.run_ms(3'000);

  h.node(1).force_publish(to_bytes("spam a"));
  h.node(1).force_publish(to_bytes("spam b"));
  h.run_ms(3'000);
  ASSERT_EQ(h.node(0).pending_slash_count(), 1u);

  // The spammer front-runs the reveal with a withdraw: same member, exits
  // with the deposit. The contract removes the leaf; the reveal that
  // follows reverts on-chain.
  {
    ByteWriter w;
    w.write_raw(h.node(1).identity().sk.to_bytes_be());
    w.write_u64(*h.node(1).group().own_index());
    w.write_raw(merkle::serialize_path(
        h.node(0).group().path_of(*h.node(1).group().own_index())));
    chain::Transaction tx;
    tx.from = h.node(1).account();
    tx.to = h.contract();
    tx.method = "withdraw";
    tx.calldata = std::move(w).take();
    tx.gas_price = 100;  // outbid the reveal: classic front-run
    h.chain().submit(std::move(tx));
  }
  h.run_ms(3 * cfg.block_interval_ms);

  // MemberWithdrawn resolved the pending slash; nothing stays in flight.
  EXPECT_EQ(h.node(0).pending_slash_count(), 0u);
  EXPECT_EQ(h.node(0).stats().slash_rewards, 0u);
  EXPECT_FALSE(h.node(1).is_registered());
}

TEST(CrashRestart, StalePendingSlashExpiresAfterConfiguredEpochs) {
  // A commit whose SlashCommitted/reveal chain never completes (here: the
  // spammer withdraws in the same block, and we drop the withdraw-purge by
  // crashing node 0 in between... simpler: mine nothing at all) must be
  // dropped by the epoch-based expiry so the index can be re-slashed.
  HarnessConfig cfg;
  cfg.num_nodes = 2;
  cfg.degree = 1;
  // Blocks far apart: the commit tx never mines inside the test window,
  // so no SlashCommitted event ever arrives.
  cfg.block_interval_ms = 10'000'000;
  cfg.node.tree_depth = 10;
  cfg.node.validator.epoch.epoch_length_ms = 5'000;
  cfg.node.slash_expiry_epochs = 3;
  cfg.persist_dir = fresh_dir("slash_expiry");
  RlnHarness h(cfg);

  // Manual registration mining (block interval is huge).
  h.node(0).register_membership();
  h.node(1).register_membership();
  h.chain().mine_block(h.sim().now() + 1);
  h.run_ms(2'000);
  ASSERT_TRUE(h.node(0).is_registered());
  ASSERT_TRUE(h.node(1).is_registered());

  h.node(1).force_publish(to_bytes("spam x"));
  h.node(1).force_publish(to_bytes("spam y"));
  h.run_ms(3'000);
  ASSERT_EQ(h.node(0).pending_slash_count(), 1u);

  // 3-epoch expiry at 5 s epochs: well past it, the upkeep tick purges.
  h.run_ms(6 * cfg.node.validator.epoch.epoch_length_ms);
  EXPECT_EQ(h.node(0).pending_slash_count(), 0u);
  EXPECT_EQ(h.node(0).stats().slashes_expired, 1u);

  // Expiry survives a restart too (it was journaled as resolved).
  h.kill_node(0);
  h.restart_node(0);
  EXPECT_EQ(h.node(0).pending_slash_count(), 0u);
}

TEST(CrashRestart, MidReshardCrashResumesEachPhase) {
  // Kill/restart in every cutover phase (announce, overlap, drain, and
  // the post-drop-old linger): the node must resume the exact journaled
  // phase with no nullifier or quota state lost or doubled.
  HarnessConfig cfg = persisted_config(fresh_dir("mid_reshard"));
  cfg.node.shards.num_shards = 2;
  cfg.node.gossip.validation_batch_max = 4;
  RlnHarness h(cfg);
  h.register_all();
  h.run_ms(3'000);
  const shard::ShardMap old_map = h.node(0).shards().map();
  const std::string topic = shard::content_topic_for_shard(old_map, 0);

  // -- Announce, then crash.
  for (std::size_t i = 0; i < h.size(); ++i) {
    ASSERT_TRUE(h.node(i).begin_reshard(4));
  }
  h.kill_node(0);
  h.restart_node(0);
  EXPECT_EQ(h.node(0).shards().phase(), shard::ReshardPhase::kAnnounce);
  EXPECT_EQ(h.node(0).shards().next(), nullptr);

  // -- Overlap with live traffic, then crash mid-window.
  for (std::size_t i = 0; i < h.size(); ++i) h.node(i).advance_reshard();
  h.run_ms(3'000);  // heartbeats: dual meshes form
  ASSERT_EQ(h.node(1).try_publish(to_bytes("overlap traffic"), topic),
            WakuRlnRelayNode::PublishStatus::kOk);
  ASSERT_EQ(h.node(0).try_publish(to_bytes("own overlap publish"), topic),
            WakuRlnRelayNode::PublishStatus::kOk);
  h.run_ms(3'000);  // deliver + validate: domain logs fill, WAL journals
  const std::size_t domain_entries =
      h.node(0).shards().reshard().domain_entries();
  ASSERT_GT(domain_entries, 0u);
  h.node(0).force_snapshot();
  const Bytes pre_state = h.node(0).serialize_state();

  h.kill_node(0);
  h.restart_node(0);
  EXPECT_EQ(h.node(0).shards().phase(), shard::ReshardPhase::kOverlap);
  ASSERT_NE(h.node(0).shards().next(), nullptr);
  // Nothing lost: the domain log (shared cutover quota) and the full
  // node state survived byte-for-byte.
  EXPECT_EQ(h.node(0).shards().reshard().domain_entries(), domain_entries);
  EXPECT_EQ(h.node(0).serialize_state(), pre_state);
  // Nothing doubled: the node's own same-epoch republish is still
  // refused — forgetting it published would make it double-signal
  // against itself.
  EXPECT_EQ(h.node(0).try_publish(to_bytes("same epoch again"), topic),
            WakuRlnRelayNode::PublishStatus::kRateLimited);

  // -- Drain, then crash.
  for (std::size_t i = 0; i < h.size(); ++i) h.node(i).advance_reshard();
  h.kill_node(0);
  h.restart_node(0);
  EXPECT_EQ(h.node(0).shards().phase(), shard::ReshardPhase::kDrain);
  ASSERT_NE(h.node(0).shards().next(), nullptr);
  EXPECT_EQ(h.node(0).shards().reshard().domain_entries(), domain_entries);

  // -- Drop-old, then crash during the linger window.
  for (std::size_t i = 0; i < h.size(); ++i) h.node(i).advance_reshard();
  h.kill_node(0);
  h.restart_node(0);
  EXPECT_EQ(h.node(0).shards().phase(), shard::ReshardPhase::kStable);
  EXPECT_EQ(h.node(0).shards().map().num_shards(), 4);
  EXPECT_EQ(h.node(0).shards().map().generation(), old_map.generation() + 1);
  EXPECT_EQ(h.node(0).shards().next(), nullptr);
  // The domain linger survived: straggler old-generation traffic still
  // debits the shared cutover quota after the restart.
  EXPECT_TRUE(h.node(0).shards().reshard().lingering());
  EXPECT_EQ(h.node(0).shards().reshard().domain_entries(), domain_entries);
  // The conservative drop-old quota merge survived too.
  EXPECT_EQ(h.node(0).try_publish(to_bytes("post drop-old"), topic),
            WakuRlnRelayNode::PublishStatus::kRateLimited);

  // -- The revived node still participates on the new layout.
  h.run_ms(cfg.node.validator.epoch.epoch_length_ms);
  const std::uint64_t delivered_before = h.total_delivered();
  ASSERT_EQ(h.node(0).try_publish(to_bytes("fresh epoch, new layout"), topic),
            WakuRlnRelayNode::PublishStatus::kOk);
  h.run_ms(5'000);
  EXPECT_GT(h.total_delivered(), delivered_before);
}

TEST(CrashRestart, SecondCutoverReplaysAfterJournaledLingerEnd) {
  // Two back-to-back reshards with NO snapshot in between: the WAL holds
  // cutover #1 end-to-end, the journaled linger-end record, and cutover
  // #2 up to overlap. Replay must land cutover #2's records on a
  // coordinator whose first linger already ended — without the journaled
  // expiry, the second announce would be silently refused and the
  // overlap record would abort the restart.
  HarnessConfig cfg = persisted_config(fresh_dir("second_cutover"));
  cfg.node.shards.num_shards = 2;
  cfg.node.validator.epoch.epoch_length_ms = 10'000;
  RlnHarness h(cfg);
  h.register_all();
  h.run_ms(2'000);

  for (std::size_t i = 0; i < h.size(); ++i) {
    ASSERT_TRUE(h.node(i).begin_reshard(4));
  }
  for (int step = 0; step < 3; ++step) {
    for (std::size_t i = 0; i < h.size(); ++i) h.node(i).advance_reshard();
  }
  ASSERT_TRUE(h.node(0).shards().reshard().lingering());
  // Thr+1 epochs pass; the upkeep tick journals the linger end.
  h.run_ms(5 * cfg.node.validator.epoch.epoch_length_ms);
  ASSERT_FALSE(h.node(0).shards().reshard().lingering());

  for (std::size_t i = 0; i < h.size(); ++i) {
    ASSERT_TRUE(h.node(i).begin_reshard(8));
    ASSERT_TRUE(h.node(i).advance_reshard());  // overlap
  }
  ASSERT_EQ(h.node(0).shards().phase(), shard::ReshardPhase::kOverlap);

  h.kill_node(0);
  h.restart_node(0);
  EXPECT_EQ(h.node(0).shards().phase(), shard::ReshardPhase::kOverlap);
  ASSERT_NE(h.node(0).shards().next(), nullptr);
  EXPECT_EQ(h.node(0).shards().next()->map().num_shards(), 8);
  EXPECT_EQ(h.node(0).shards().map().num_shards(), 4);
}

TEST(CrashRestart, CutoverObservationSurvivesCrashWithoutSnapshot) {
  // No snapshot at all: the domain log must rebuild purely from the WAL
  // (kReshardPhase re-seeds it, kCutoverObservation records replay the
  // overlap-era entries), so a double-signal straddling the crash is
  // still caught.
  HarnessConfig cfg = persisted_config(fresh_dir("cutover_wal_only"));
  cfg.num_nodes = 2;
  cfg.degree = 1;
  cfg.node.shards.num_shards = 2;
  // One long epoch: both halves of the pair must share a nullifier.
  cfg.node.validator.epoch.epoch_length_ms = 120'000;
  RlnHarness h(cfg);
  h.register_all();
  h.run_ms(3'000);
  const std::string topic =
      shard::content_topic_for_shard(h.node(0).shards().map(), 0);

  for (std::size_t i = 0; i < h.size(); ++i) {
    ASSERT_TRUE(h.node(i).begin_reshard(4));
    h.node(i).advance_reshard();  // overlap
  }
  h.run_ms(3'000);

  // First half of a cross-generation pair lands before the crash...
  h.node(1).force_publish_generation(to_bytes("half one"), topic, false);
  h.run_ms(2'000);
  ASSERT_GT(h.node(0).shards().reshard().domain_entries(), 0u);

  h.kill_node(0);
  h.restart_node(0);
  h.run_ms(3'000);  // re-mesh

  // ...the second half (same epoch, other generation) arrives after: the
  // rebuilt domain log must fold them into one signal and slash.
  ASSERT_EQ(h.node(1).force_publish_generation(to_bytes("half two"), topic,
                                               true),
            WakuRlnRelayNode::PublishStatus::kOk);
  h.run_ms(3 * cfg.block_interval_ms);
  EXPECT_EQ(h.node(0).stats().slash_commits, 1u);
  EXPECT_FALSE(h.node(1).is_registered());
}

// -- On-disk layout -----------------------------------------------------------

/// Reads the little-endian u64 at `offset` of a record payload.
std::uint64_t u64_at(const Bytes& payload, std::size_t offset) {
  ByteReader r(BytesView(payload).subspan(offset, 8));
  return r.read_u64();
}

TEST(NodeJournalLayout, EveryWalTagMatchesFormatsDoc) {
  // One persistent run that journals every WalTag 1..10: honest
  // publishes, a double-signal slashed and revealed, and an
  // operator-driven 1 -> 2 reshard through linger end. WAL-only
  // durability, so every record stays on disk for inspection. Each tag's
  // number, shard-tag rule, payload length and one field are checked
  // against docs/FORMATS.md ("Node record schema"). No digest is pinned:
  // the layout, not one compiler's float/hash output, is the contract.
  HarnessConfig cfg;
  cfg.num_nodes = 3;
  cfg.degree = 2;
  cfg.block_interval_ms = 2'000;
  cfg.node.tree_depth = 10;
  cfg.node.validator.epoch.epoch_length_ms = 5'000;
  cfg.node.validator.max_epoch_gap = 2;
  cfg.seed = 0x0B5;
  cfg.node.operator_loop.enabled = true;
  cfg.node.operator_loop.trip_epochs = 2;
  cfg.node.operator_loop.phase_dwell_epochs = 1;
  cfg.node.operator_loop.cooldown_epochs = 1'000;
  cfg.node.load_tracker.overload_msgs_per_sec = 0.05;
  cfg.persist_dir = fresh_dir("wal_layout");
  cfg.node.persist.snapshot_every_records = 0;
  RlnHarness h(cfg);
  h.register_all();
  h.run_ms(5'000);

  const std::optional<std::uint64_t> spammer = h.node(2).group().own_index();
  ASSERT_TRUE(spammer.has_value());
  h.node(2).force_publish(to_bytes("spam one"));
  h.node(2).force_publish(to_bytes("spam two"));
  h.run_ms(10'000);
  ASSERT_FALSE(h.node(2).is_registered());
  for (int e = 0; e < 14; ++e) {
    (void)h.node(static_cast<std::size_t>(e) % 2)
        .try_publish(to_bytes("load " + std::to_string(e)));
    h.run_ms(5'000);
  }
  h.run_ms(25'000);  // past the linger window
  WakuRlnRelayNode& node = h.node(1);
  ASSERT_EQ(node.shards().map().num_shards(), 2u);
  ASSERT_FALSE(node.shards().reshard().lingering());
  const std::uint64_t now_epoch = node.current_epoch();

  struct Record {
    std::uint16_t shard;
    Bytes payload;
  };
  std::map<std::uint8_t, std::vector<Record>> by_tag;
  node.state_store()->replay_wal(
      [&](std::uint8_t type, std::uint16_t shard, BytesView payload) {
        by_tag[type].push_back(Record{shard, Bytes(payload.begin(),
                                                   payload.end())});
      });
  for (std::uint8_t tag = 1; tag <= 10; ++tag) {
    ASSERT_FALSE(by_tag[tag].empty()) << "no record with tag " << int(tag);
  }
  ASSERT_EQ(by_tag.size(), 10u);  // nothing outside the documented schema

  // Observation records (1 = own generation, 7 = incoming generation,
  // 8 = shared domain log): epoch u64 | nullifier 32 | share x 32 |
  // share y 32 | proof fp u64, shard-tagged.
  for (const std::uint8_t tag : {1, 7, 8}) {
    for (const Record& rec : by_tag[tag]) {
      ASSERT_EQ(rec.payload.size(), 112u) << int(tag);
      EXPECT_LT(rec.shard, 2u) << int(tag);
      EXPECT_GT(u64_at(rec.payload, 0), 0u) << int(tag);
      EXPECT_LE(u64_at(rec.payload, 0), now_epoch) << int(tag);
    }
  }
  // The domain is the old single-shard generation.
  for (const Record& rec : by_tag[8]) EXPECT_EQ(rec.shard, 0u);

  // 2: sk 32 | salt 32 | index u64 | commitment 32 | commit_epoch u64.
  ASSERT_EQ(by_tag[2].size(), 1u);
  const Record& commit = by_tag[2][0];
  ASSERT_EQ(commit.payload.size(), 112u);
  EXPECT_EQ(u64_at(commit.payload, 64), *spammer);
  EXPECT_LE(u64_at(commit.payload, 104), now_epoch);
  // 3: the commitment the reveal answered.
  ASSERT_EQ(by_tag[3].size(), 1u);
  ASSERT_EQ(by_tag[3][0].payload.size(), 32u);
  EXPECT_TRUE(std::equal(by_tag[3][0].payload.begin(),
                         by_tag[3][0].payload.end(),
                         commit.payload.begin() + 72));
  // 4: the retired index.
  ASSERT_EQ(by_tag[4].size(), 1u);
  ASSERT_EQ(by_tag[4][0].payload.size(), 8u);
  EXPECT_EQ(u64_at(by_tag[4][0].payload, 0), *spammer);

  // 5: own-publish epoch, under the quota shard.
  for (const Record& rec : by_tag[5]) {
    ASSERT_EQ(rec.payload.size(), 8u);
    EXPECT_LT(rec.shard, 2u);
    EXPECT_LE(u64_at(rec.payload, 0), now_epoch);
  }

  // 6: phase u8 | linger_until u64 [+ announce: target u16 | count u16 |
  // shard u16 × count]; one record per transition, in order.
  ASSERT_EQ(by_tag[6].size(), 4u);
  const std::vector<std::uint8_t> phases = {1, 2, 3, 0};
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const Bytes& p = by_tag[6][i].payload;
    ASSERT_GE(p.size(), 9u);
    EXPECT_EQ(p[0], phases[i]);
  }
  const Bytes& announce = by_tag[6][0].payload;
  ASSERT_GE(announce.size(), 13u);
  ByteReader ar(BytesView(announce).subspan(9));
  EXPECT_EQ(ar.read_u16(), 2u);  // target shard count
  const std::uint16_t subscribe_count = ar.read_u16();
  EXPECT_EQ(announce.size(), 13u + 2u * subscribe_count);
  EXPECT_EQ(by_tag[6][1].payload.size(), 9u);
  EXPECT_EQ(by_tag[6][2].payload.size(), 9u);
  EXPECT_EQ(by_tag[6][3].payload.size(), 9u);
  EXPECT_GT(u64_at(by_tag[6][3].payload, 1), 0u);  // drop-old linger end

  // 9: empty.
  ASSERT_EQ(by_tag[9].size(), 1u);
  EXPECT_TRUE(by_tag[9][0].payload.empty());

  // 10: action u8 | epoch u64 | target u16 — one begin, then advances.
  ASSERT_EQ(by_tag[10].size(), 4u);
  for (std::size_t i = 0; i < by_tag[10].size(); ++i) {
    const Bytes& p = by_tag[10][i].payload;
    ASSERT_EQ(p.size(), 11u);
    EXPECT_EQ(p[0], i == 0 ? 0u : 1u);
    EXPECT_LE(u64_at(p, 1), now_epoch);
  }
  ByteReader br(BytesView(by_tag[10][0].payload).subspan(9));
  EXPECT_EQ(br.read_u16(), 2u);

  // Node-global records carry shard tag 0.
  for (const std::uint8_t tag : {2, 3, 4, 6, 9, 10}) {
    for (const Record& rec : by_tag[tag]) EXPECT_EQ(rec.shard, 0u) << int(tag);
  }

  // Snapshot payload header: version 5, plaintext (unsealed) identity.
  const Bytes state = node.serialize_state();
  ASSERT_GE(state.size(), 2u + 32u + 8u);
  EXPECT_EQ(state[0], 5u);
  EXPECT_EQ(state[1], 0u);
  EXPECT_TRUE(std::equal(state.begin() + 2, state.begin() + 34,
                         node.identity().sk.to_bytes_be().begin()));
  EXPECT_EQ(u64_at(state, 34), node.event_cursor());
}

}  // namespace
}  // namespace waku::rln

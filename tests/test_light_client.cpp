// Tests for the light-client path: tree-sync + lightpush via a full
// service node (§IV-A hybrid architecture + 19/WAKU2-LIGHTPUSH).
#include <gtest/gtest.h>

#include "common/serde.hpp"
#include "hash/poseidon.hpp"
#include "hash/sha256.hpp"
#include "rln/harness.hpp"
#include "rln/light_client.hpp"

namespace waku::rln {
namespace {

struct LightFixture : ::testing::Test {
  HarnessConfig cfg;
  std::unique_ptr<RlnHarness> h;
  std::unique_ptr<RlnFullServiceNode> service;
  std::unique_ptr<RlnLightClient> client;

  void SetUp() override {
    cfg.num_nodes = 8;
    cfg.degree = 3;
    cfg.block_interval_ms = 2'000;
    cfg.node.tree_depth = 10;
    cfg.node.validator.epoch.epoch_length_ms = 10'000;
    h = std::make_unique<RlnHarness>(cfg);
    h->register_all();
    h->run_ms(3'000);

    // The light client's identity was registered out of band: reuse a
    // registered node's identity/index but speak only via the service.
    service = std::make_unique<RlnFullServiceNode>(h->network(), h->node(0));
    client = std::make_unique<RlnLightClient>(
        h->network(), h->node(7).identity(),
        *h->node(7).group().own_index(),
        cfg.node.validator.epoch, 0x11C);
    h->network().connect(service->node_id(), client->node_id());
  }
};

TEST_F(LightFixture, LightPublishReachesTheMesh) {
  bool acked = false;
  client->publish(service->node_id(), to_bytes("hello from a light client"),
                  "/light/1/chat/proto", [&](bool ok) { acked = ok; });
  h->run_ms(8'000);

  EXPECT_TRUE(acked);
  EXPECT_EQ(client->published(), 1u);
  EXPECT_EQ(client->acked(), 1u);
  EXPECT_EQ(service->tree_requests(), 1u);
  EXPECT_EQ(service->pushes_accepted(), 1u);

  // Everyone in the mesh (minus the impersonated node 7, which would
  // dedup by nullifier) received it.
  std::uint64_t delivered = 0;
  for (std::size_t i = 0; i < h->size(); ++i) {
    delivered += h->node(i).stats().delivered;
  }
  EXPECT_GE(delivered, h->size() - 1);
}

TEST_F(LightFixture, DoubleLightPublishInOneEpochIsRefused) {
  // The service validates pushes with its own RLN validator: the second
  // message in the same epoch is a double-signal and is refused (and the
  // spammer would be slashed by the normal pipeline).
  bool first = false;
  bool second = true;
  client->publish(service->node_id(), to_bytes("one"), "/t",
                  [&](bool ok) { first = ok; });
  h->run_ms(2'000);
  client->publish(service->node_id(), to_bytes("two"), "/t",
                  [&](bool ok) { second = ok; });
  h->run_ms(2'000);

  EXPECT_TRUE(first);
  EXPECT_FALSE(second);
  EXPECT_EQ(service->pushes_rejected(), 1u);
}

TEST_F(LightFixture, UnknownMemberIndexGetsNoTreeResponse) {
  RlnLightClient stranger(h->network(), Identity::from_secret(Fr::from_u64(7)),
                          /*member_index=*/999,
                          cfg.node.validator.epoch, 0x11D);
  h->network().connect(service->node_id(), stranger.node_id());
  bool called = false;
  stranger.publish(service->node_id(), to_bytes("hi"), "/t",
                   [&](bool) { called = true; });
  h->run_ms(3'000);
  EXPECT_FALSE(called);  // service ignores out-of-range requests
  EXPECT_EQ(stranger.published(), 0u);
}

TEST_F(LightFixture, CheckpointBootstrapValidatesLiveTraffic) {
  const auto key = hash::schnorr::keygen_from_seed(0xC4E1);
  service->set_checkpoint_signer(key);
  client->attach_chain(h->chain(), h->contract(), key.pk);

  bool ok = false;
  client->bootstrap(service->node_id(), [&](bool accepted) { ok = accepted; });
  h->run_ms(2'000);

  ASSERT_TRUE(ok);
  ASSERT_TRUE(client->bootstrapped());
  // O(log N) transfer, no genesis replay: the checkpoint's cursor covered
  // the whole registration history, so the client applied zero (or nearly
  // zero) historical events itself.
  EXPECT_GT(client->bootstrap_cursor(), 0u);
  EXPECT_EQ(client->light_group().member_count(),
            h->node(0).group().member_count());
  EXPECT_EQ(client->light_group().root(), h->node(0).group().root());

  // The bootstrapped client validates live mesh traffic.
  WakuMessage live;
  bool captured = false;
  h->node(3).set_message_handler([&](const WakuMessage& m) {
    if (!captured) {
      live = m;
      captured = true;
    }
  });
  ASSERT_EQ(h->node(1).try_publish(to_bytes("live traffic")),
            WakuRlnRelayNode::PublishStatus::kOk);
  h->run_ms(4'000);
  ASSERT_TRUE(captured);
  const ValidationOutcome outcome = client->validate(
      live, h->network().local_time(client->node_id()));
  EXPECT_EQ(outcome.verdict, Verdict::kAccept);
  // A replay of the same message is a duplicate, not fresh traffic: the
  // client runs the full pipeline, nullifier log included.
  const ValidationOutcome echo = client->validate(
      live, h->network().local_time(client->node_id()));
  EXPECT_EQ(echo.verdict, Verdict::kIgnoreDuplicate);
}

TEST_F(LightFixture, BootstrappedClientFollowsMembershipChurn) {
  const auto key = hash::schnorr::keygen_from_seed(0xC4E2);
  service->set_checkpoint_signer(key);
  client->attach_chain(h->chain(), h->contract(), key.pk);
  bool ok = false;
  client->bootstrap(service->node_id(), [&](bool accepted) { ok = accepted; });
  h->run_ms(2'000);
  ASSERT_TRUE(ok);

  // New registration after the checkpoint: the client keeps tracking the
  // event stream from its cursor, so its root follows the full nodes'.
  Rng rng(0xFEE7);
  const Identity newcomer = Identity::generate(rng);
  const chain::Address account = chain::Address::from_u64(0xE0000042);
  h->chain().create_account(account, 10 * chain::kGweiPerEth);
  chain::Transaction tx;
  tx.from = account;
  tx.to = h->contract();
  tx.method = "register";
  tx.calldata = newcomer.pk_bytes();
  tx.value = h->chain()
                 .contract_at<chain::RlnMembershipContract>(h->contract())
                 .deposit();
  h->chain().submit(std::move(tx));
  h->run_ms(2 * cfg.block_interval_ms + 500);

  EXPECT_GT(client->events_applied(), 0u);
  EXPECT_EQ(client->light_group().member_count(),
            h->node(0).group().member_count());
  EXPECT_EQ(client->light_group().root(), h->node(0).group().root());
}

// -- Delta checkpoints (poll-mode window tracking) ---------------------------

struct DeltaFixture : LightFixture {
  hash::schnorr::KeyPair key = hash::schnorr::keygen_from_seed(0xDE17A);
  chain::Address whale = chain::Address::from_u64(0xFFF777);
  std::uint64_t next_pk_seed = 40'000;

  void SetUp() override {
    LightFixture::SetUp();
    h->chain().create_account(whale, 50 * chain::kGweiPerEth);
    service->set_checkpoint_signer(key);
    client->attach_chain(h->chain(), h->contract(), key.pk);
    bool ok = false;
    client->bootstrap(service->node_id(),
                      [&](bool accepted) { ok = accepted; });
    h->run_ms(2'000);
    ASSERT_TRUE(ok);
  }

  chain::Gwei deposit() {
    return h->chain()
        .contract_at<chain::RlnMembershipContract>(h->contract())
        .deposit();
  }

  /// One register_batch transaction: n new members, ONE chain event.
  void churn_batch(std::uint32_t n) {
    ByteWriter w;
    w.write_u32(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      w.write_raw(hash::poseidon1(Fr::from_u64(next_pk_seed++)).to_bytes_be());
    }
    chain::Transaction tx;
    tx.from = whale;
    tx.to = h->contract();
    tx.method = "register_batch";
    tx.calldata = std::move(w).take();
    tx.value = deposit() * n;
    h->chain().submit(std::move(tx));
    h->run_ms(2 * cfg.block_interval_ms + 500);
  }

  void submit_single() {
    chain::Transaction tx;
    tx.from = whale;
    tx.to = h->contract();
    tx.method = "register";
    tx.calldata = hash::poseidon1(Fr::from_u64(next_pk_seed++)).to_bytes_be();
    tx.value = deposit();
    h->chain().submit(std::move(tx));
  }

  /// n separate register transactions mined in one block: n events, one
  /// root transition (the window advances per block).
  void churn_singles(std::uint32_t n) {
    for (std::uint32_t i = 0; i < n; ++i) submit_single();
    h->run_ms(2 * cfg.block_interval_ms + 500);
  }

  /// n register transactions, each mined in a block of its own: n events,
  /// n root transitions.
  void churn_blocks(std::uint32_t n) {
    for (std::uint32_t i = 0; i < n; ++i) {
      submit_single();
      h->run_ms(cfg.block_interval_ms);
    }
    h->run_ms(cfg.block_interval_ms + 500);
  }
};

TEST_F(DeltaFixture, DeltaSyncAdvancesOfflineClientWindow) {
  client->go_offline();
  const std::uint64_t offline_cursor = client->sync_cursor();
  const Fr offline_root = client->light_group().recent_roots().back();

  churn_batch(5);  // one event the client missed
  ASSERT_NE(h->node(0).group().root(), offline_root);
  EXPECT_FALSE(client->light_group().is_recent_root(h->node(0).group().root()));

  bool ok = false;
  client->delta_sync(service->node_id(), [&](bool r) { ok = r; });
  h->run_ms(1'000);
  ASSERT_TRUE(ok);
  EXPECT_EQ(service->deltas_served(), 1u);
  EXPECT_EQ(service->delta_fallbacks_served(), 0u);
  EXPECT_EQ(client->delta_syncs_applied(), 1u);
  EXPECT_EQ(client->sync_cursor(), h->node(0).event_cursor());
  EXPECT_EQ(client->light_group().member_count(),
            h->node(0).group().member_count());
  EXPECT_TRUE(client->light_group().is_recent_root(h->node(0).group().root()));

  // The delta is a fraction of the full checkpoint it replaces.
  const auto delta =
      h->node(0).make_delta_checkpoint(offline_cursor, offline_root);
  ASSERT_TRUE(delta.has_value());
  const std::size_t full_size = h->node(0).make_checkpoint().serialize().size();
  EXPECT_LT(delta->serialize().size() * 3, full_size);
}

TEST_F(DeltaFixture, RepeatedDeltaSyncsTrackContinuousChurn) {
  client->go_offline();
  for (int round = 0; round < 3; ++round) {
    churn_batch(3);
    bool ok = false;
    client->delta_sync(service->node_id(), [&](bool r) { ok = r; });
    h->run_ms(1'000);
    ASSERT_TRUE(ok) << "round " << round;
    EXPECT_TRUE(
        client->light_group().is_recent_root(h->node(0).group().root()));
  }
  EXPECT_EQ(client->delta_syncs_applied(), 3u);
  EXPECT_EQ(client->delta_full_fallbacks(), 0u);
}

TEST_F(DeltaFixture, DeltaGapFallsBackToFullCheckpoint) {
  client->go_offline();
  // More root transitions than kDeltaRootTailMax (one per block): a delta
  // would silently drop intermediate roots from the client's window, so
  // the server must refuse it and serve a full checkpoint instead.
  churn_blocks(static_cast<std::uint32_t>(kDeltaRootTailMax) + 4);

  bool ok = false;
  client->delta_sync(service->node_id(), [&](bool r) { ok = r; });
  h->run_ms(1'000);
  ASSERT_TRUE(ok);
  EXPECT_EQ(service->deltas_served(), 0u);
  EXPECT_EQ(service->delta_fallbacks_served(), 1u);
  EXPECT_EQ(client->delta_syncs_applied(), 0u);
  EXPECT_EQ(client->delta_full_fallbacks(), 1u);
  // The fallback is a complete re-bootstrap: state is current again.
  EXPECT_EQ(client->light_group().member_count(),
            h->node(0).group().member_count());
  EXPECT_TRUE(client->light_group().is_recent_root(h->node(0).group().root()));
}

TEST_F(DeltaFixture, BurstBlockIsOneRootTransition) {
  client->go_offline();
  const std::uint64_t offline_cursor = client->sync_cursor();
  const Fr offline_root = client->light_group().recent_roots().back();
  const std::size_t offline_roots = client->light_group().recent_root_count();

  // More registrations than kDeltaRootTailMax, all in one block: the block
  // is one root transition, so a lossless delta still covers it.
  const std::uint32_t burst = static_cast<std::uint32_t>(kDeltaRootTailMax) + 4;
  churn_singles(burst);
  ASSERT_EQ(h->node(0).event_cursor(), offline_cursor + burst);

  const auto delta =
      h->node(0).make_delta_checkpoint(offline_cursor, offline_root);
  ASSERT_TRUE(delta.has_value());
  ASSERT_EQ(delta->root_tail.size(), 1u);
  EXPECT_EQ(delta->root_tail.back(), h->node(0).group().root());

  bool ok = false;
  client->delta_sync(service->node_id(), [&](bool r) { ok = r; });
  h->run_ms(1'000);
  ASSERT_TRUE(ok);
  EXPECT_EQ(service->deltas_served(), 1u);
  EXPECT_EQ(service->delta_fallbacks_served(), 0u);
  EXPECT_EQ(client->delta_syncs_applied(), 1u);
  EXPECT_EQ(client->sync_cursor(), h->node(0).event_cursor());
  EXPECT_EQ(client->light_group().recent_root_count(), offline_roots + 1);
  EXPECT_EQ(client->light_group().recent_roots(),
            h->node(0).group().recent_roots());
}

TEST_F(DeltaFixture, DeltaRefusedForUnknownOrForkedBase) {
  // Cursor ahead of the server: nothing to prove, no delta.
  EXPECT_FALSE(h->node(0)
                   .make_delta_checkpoint(h->node(0).event_cursor() + 100,
                                          h->node(0).group().root())
                   .has_value());
  // Claimed root does not match the recorded root at that cursor: a
  // forked/forged base must not receive a delta bound to it.
  EXPECT_FALSE(h->node(0)
                   .make_delta_checkpoint(h->node(0).event_cursor(),
                                          Fr::from_u64(0xBAD))
                   .has_value());
  // The honest base gets one (empty tail: no transitions since).
  const auto delta = h->node(0).make_delta_checkpoint(
      h->node(0).event_cursor(), h->node(0).group().root());
  ASSERT_TRUE(delta.has_value());
  EXPECT_TRUE(delta->root_tail.empty());
  EXPECT_EQ(delta->to_cursor, h->node(0).event_cursor());
}

TEST_F(DeltaFixture, TamperedDeltaPayloadFailsSchnorrVerification) {
  churn_batch(2);
  auto delta = h->node(0).make_delta_checkpoint(
      h->node(0).event_cursor(), h->node(0).group().root());
  ASSERT_TRUE(delta.has_value());
  delta->sign(key);
  ASSERT_TRUE(delta->verify(key.pk));

  DeltaCheckpoint tampered = *delta;
  tampered.member_count += 1;
  EXPECT_FALSE(tampered.verify(key.pk));
  tampered = *delta;
  tampered.root_tail.push_back(Fr::from_u64(7));
  EXPECT_FALSE(tampered.verify(key.pk));
  // Serialization round-trips the signature.
  const DeltaCheckpoint back =
      DeltaCheckpoint::deserialize(delta->serialize());
  EXPECT_TRUE(back.verify(key.pk));
  EXPECT_EQ(back.serialize(), delta->serialize());
}

TEST_F(LightFixture, TamperedOrMiskeyedCheckpointRejected) {
  // Signed under one key, verified against another's public half: the
  // Schnorr check must fail and leave the client un-bootstrapped.
  service->set_checkpoint_signer(hash::schnorr::keygen_from_seed(0xAAA1));
  client->attach_chain(h->chain(), h->contract(),
                       hash::schnorr::keygen_from_seed(0xBBB2).pk);
  bool called = false;
  bool ok = true;
  client->bootstrap(service->node_id(), [&](bool accepted) {
    called = true;
    ok = accepted;
  });
  h->run_ms(2'000);
  EXPECT_TRUE(called);
  EXPECT_FALSE(ok);
  EXPECT_FALSE(client->bootstrapped());
}

TEST_F(LightFixture, TamperedCheckpointPayloadFailsSchnorrVerification) {
  // Any single-byte flip in the signed payload — counters, watermarks,
  // roots, view — must invalidate the signature fail-closed.
  const auto key = hash::schnorr::keygen_from_seed(0xC4E3);
  rln::Checkpoint cp = h->node(0).make_checkpoint();
  cp.sign(key);
  ASSERT_TRUE(cp.verify(key.pk));

  rln::Checkpoint tampered = cp;
  tampered.member_count += 1;
  EXPECT_FALSE(tampered.verify(key.pk));

  tampered = cp;
  ASSERT_FALSE(tampered.nullifier_watermarks.empty());
  tampered.nullifier_watermarks[0].min_epoch += 1;
  EXPECT_FALSE(tampered.verify(key.pk));

  tampered = cp;
  ASSERT_FALSE(tampered.view.empty());
  tampered.view[0] ^= 0x01;
  EXPECT_FALSE(tampered.verify(key.pk));

  // A tampered signature fails too (both halves).
  tampered = cp;
  tampered.signature.s.limb[0] ^= 1;
  EXPECT_FALSE(tampered.verify(key.pk));
  tampered = cp;
  tampered.signature.r += Fr::one();
  EXPECT_FALSE(tampered.verify(key.pk));

  // And serialization round-trips the signature intact.
  const rln::Checkpoint wire = rln::Checkpoint::deserialize(cp.serialize());
  EXPECT_TRUE(wire.verify(key.pk));
}

TEST(CheckpointWire, SerializeBytesArePinned) {
  // Hand-built full and delta checkpoints with two shard watermarks,
  // signed under a fixed key: the wire bytes documented in
  // docs/FORMATS.md must not move under a refactor of either codec.
  const auto key = hash::schnorr::keygen_from_seed(0xC4E3);
  const std::vector<shard::ShardWatermark> watermarks{{0, 3}, {2, 9}};

  Checkpoint cp;
  cp.event_cursor = 7;
  cp.member_count = 5;
  cp.removed_count = 1;
  cp.nullifier_watermarks = watermarks;
  cp.recent_roots = {Fr::from_u64(11), Fr::from_u64(12)};
  cp.view = {1, 2, 3};
  cp.sign(key);

  DeltaCheckpoint delta;
  delta.from_cursor = 7;
  delta.from_root = Fr::from_u64(12);
  delta.to_cursor = 9;
  delta.member_count = 6;
  delta.removed_count = 1;
  delta.nullifier_watermarks = watermarks;
  delta.root_tail = {Fr::from_u64(13), Fr::from_u64(14)};
  delta.sign(key);

  EXPECT_EQ(to_hex(hash::sha256(cp.serialize())),
            "e6b81276363066915c472664fda3f90dfdafdac558b9f30a749b4ed0efc49aa7");
  EXPECT_EQ(to_hex(hash::sha256(delta.serialize())),
            "d1fd1a65b32e02a837a04a1ef8b18771d41f3938d50c6a5818fccd71d236ff35");
  EXPECT_EQ(Checkpoint::deserialize(cp.serialize()).serialize(),
            cp.serialize());
  EXPECT_EQ(DeltaCheckpoint::deserialize(delta.serialize()).serialize(),
            delta.serialize());
}

TEST_F(LightFixture, ClientSecretNeverNeededByService) {
  // Structural check: the proof is generated client-side; the service only
  // ever sees the finished message. (The API makes this true by
  // construction — this test documents it.)
  client->publish(service->node_id(), to_bytes("sovereign"), "/t", nullptr);
  h->run_ms(5'000);
  EXPECT_EQ(service->pushes_accepted(), 1u);
  // The pushed message carried a valid bundle without the service holding
  // the client identity: validation passed at every relay hop.
  std::uint64_t rejected = 0;
  for (std::size_t i = 0; i < h->size(); ++i) {
    rejected += h->node(i).relay().stats().rejected;
  }
  EXPECT_EQ(rejected, 0u);
}

// -- Malformed frames from a peer --------------------------------------------

/// A peer that only injects raw frames (and ignores whatever it receives).
struct RawPeer : net::NetNode {
  explicit RawPeer(net::Network& net) : network(net), id(net.add_node(this)) {}
  void on_message(net::NodeId, BytesView) override {}
  net::Network& network;
  net::NodeId id;
};

struct MalformedFrameFixture : LightFixture {
  std::unique_ptr<RawPeer> peer;

  void SetUp() override {
    LightFixture::SetUp();
    peer = std::make_unique<RawPeer>(h->network());
    h->network().connect(peer->id, service->node_id());
    h->network().connect(peer->id, client->node_id());
  }

  /// A light publish started now; true once the service acked it.
  bool publish_is_acked(const std::string& body) {
    bool acked = false;
    client->publish(service->node_id(), to_bytes(body), "/t",
                    [&](bool ok) { acked = ok; });
    h->run_ms(5'000);
    return acked;
  }
};

TEST_F(MalformedFrameFixture, EmptyFrameIsDroppedAtBothEndpoints) {
  h->network().send(peer->id, service->node_id(), Bytes{});
  h->network().send(peer->id, client->node_id(), Bytes{});
  EXPECT_NO_THROW(h->run_ms(1'000));
  EXPECT_EQ(service->malformed_frames(), 1u);
  EXPECT_EQ(client->malformed_frames(), 1u);
  EXPECT_TRUE(publish_is_acked("after an empty frame"));
}

TEST_F(MalformedFrameFixture, TruncatedTreeRequestIsDropped) {
  // kTreeReq wants a u64 member index; three bytes are not one.
  h->network().send(peer->id, service->node_id(),
                    Bytes{static_cast<std::uint8_t>(LightFrame::kTreeReq), 1,
                          2, 3});
  EXPECT_NO_THROW(h->run_ms(1'000));
  EXPECT_EQ(service->malformed_frames(), 1u);
  EXPECT_TRUE(publish_is_acked("after a truncated tree request"));
}

TEST_F(MalformedFrameFixture, TruncatedTreeResponseKeepsThePendingPublish) {
  // Forged responses (one hop) land before the service's real one (two
  // hops) while the publish is pending: each must be dropped without
  // consuming that publish — a truncated frame, and a well-framed one
  // whose path has no levels (no RLN circuit exists for it).
  bool acked = false;
  client->publish(service->node_id(), to_bytes("raced by a forged response"),
                  "/t", [&](bool ok) { acked = ok; });
  h->network().send(peer->id, client->node_id(),
                    Bytes{static_cast<std::uint8_t>(LightFrame::kTreeResp), 9,
                          9});
  ByteWriter depth_zero;
  depth_zero.write_u8(static_cast<std::uint8_t>(LightFrame::kTreeResp));
  depth_zero.write_raw(Bytes(32, 0));
  depth_zero.write_u64(1);
  depth_zero.write_bytes(merkle::serialize_path(merkle::MerklePath{}));
  h->network().send(peer->id, client->node_id(),
                    std::move(depth_zero).take());
  EXPECT_NO_THROW(h->run_ms(5'000));
  EXPECT_EQ(client->malformed_frames(), 2u);
  EXPECT_TRUE(acked);
  EXPECT_EQ(client->published(), 1u);
}

}  // namespace
}  // namespace waku::rln

// Unit tests for the RLN core: identities, epochs, proof bundles, the
// nullifier log, group management in both storage modes, and the validator
// pipeline (paper §III).
#include <gtest/gtest.h>

#include "chain/rln_contract.hpp"
#include "common/expect.hpp"
#include "hash/poseidon.hpp"
#include "hash/sha256.hpp"
#include "rln/group_manager.hpp"
#include "rln/identity.hpp"
#include "rln/nullifier_log.hpp"
#include "rln/rate_limit_proof.hpp"
#include "rln/validation_pipeline.hpp"
#include "zksnark/rln_circuit.hpp"

namespace waku::rln {
namespace {

using ff::Fr;
using ff::U256;

TEST(Identity, CommitmentIsPoseidonOfSecret) {
  Rng rng(401);
  const Identity id = Identity::generate(rng);
  EXPECT_EQ(id.pk, hash::poseidon1(id.sk));
}

TEST(Identity, KeysAre32Bytes) {
  // Paper §IV: "Each peer persists a 32B public and secret key".
  Rng rng(403);
  const Identity id = Identity::generate(rng);
  EXPECT_EQ(id.sk_bytes().size(), 32u);
  EXPECT_EQ(id.pk_bytes().size(), 32u);
}

TEST(Identity, FromSecretRoundTrip) {
  Rng rng(405);
  const Identity a = Identity::generate(rng);
  const Identity b = Identity::from_secret(a.sk);
  EXPECT_EQ(a, b);
}

TEST(Identity, DistinctIdentities) {
  Rng rng(407);
  EXPECT_NE(Identity::generate(rng), Identity::generate(rng));
}

TEST(Epoch, PaperExample) {
  // §III-D: UnixTime 1644810116 s, T = 30 s -> epoch 54827003.
  EpochConfig cfg{.epoch_length_ms = 30'000};
  EXPECT_EQ(cfg.epoch_at(1'644'810'116'000ULL), 54'827'003ULL);
}

TEST(Epoch, BoundariesAreHalfOpen) {
  EpochConfig cfg{.epoch_length_ms = 1000};
  EXPECT_EQ(cfg.epoch_at(999), 0u);
  EXPECT_EQ(cfg.epoch_at(1000), 1u);
  EXPECT_EQ(cfg.epoch_at(1999), 1u);
}

TEST(Epoch, MaxEpochGapFormula) {
  // Thr = ceil((NetworkDelay + ClockAsynchrony) / T)  (§III-F)
  EXPECT_EQ(max_epoch_gap(2000, 1000, 1000), 3u);
  EXPECT_EQ(max_epoch_gap(2500, 0, 1000), 3u);   // ceil
  EXPECT_EQ(max_epoch_gap(0, 0, 1000), 0u);
  EXPECT_EQ(max_epoch_gap(100, 100, 30'000), 1u);
}

TEST(Epoch, DistanceIsSymmetric) {
  EXPECT_EQ(epoch_distance(5, 9), 4u);
  EXPECT_EQ(epoch_distance(9, 5), 4u);
  EXPECT_EQ(epoch_distance(7, 7), 0u);
}

TEST(RateLimitProofWire, RoundTrip) {
  Rng rng(409);
  RateLimitProof p;
  p.share_x = Fr::random(rng);
  p.share_y = Fr::random(rng);
  p.nullifier = Fr::random(rng);
  p.epoch = 54'827'003;
  p.root = Fr::random(rng);
  const Bytes proof_bytes = rng.next_bytes(128);
  p.proof = zksnark::Proof::deserialize(proof_bytes);

  const Bytes wire = p.serialize();
  EXPECT_EQ(wire.size(), RateLimitProof::kSerializedSize);
  EXPECT_EQ(RateLimitProof::deserialize(wire), p);
}

TEST(RateLimitProofWire, AttachExtract) {
  Rng rng(411);
  WakuMessage msg;
  msg.payload = to_bytes("hello rln");
  RateLimitProof p;
  p.share_x = Fr::random(rng);
  p.epoch = 99;
  attach_proof(msg, p);
  const auto extracted = extract_proof(msg);
  ASSERT_TRUE(extracted.has_value());
  EXPECT_EQ(*extracted, p);
}

TEST(RateLimitProofWire, ExtractMissingOrMalformed) {
  WakuMessage msg;
  msg.payload = to_bytes("x");
  EXPECT_FALSE(extract_proof(msg).has_value());
  msg.rate_limit_proof = to_bytes("too short");
  EXPECT_FALSE(extract_proof(msg).has_value());
}

TEST(RateLimitProofWire, MessageHashBindsContent) {
  WakuMessage a;
  a.payload = to_bytes("one");
  WakuMessage b;
  b.payload = to_bytes("two");
  EXPECT_NE(message_hash(a), message_hash(b));
}

// x = H(m) is a public input of every proof and the x-coordinate of every
// Shamir share, so a different value for the same message breaks proofs.
TEST(RateLimitProofWire, MessageHashIsPinned) {
  WakuMessage empty;
  WakuMessage full;
  full.payload.resize(300);
  for (std::size_t i = 0; i < full.payload.size(); ++i) {
    full.payload[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  full.content_topic = "/toy/1/chat/proto";
  EXPECT_EQ(to_hex(message_hash(empty).to_bytes_be()),
            "0249335c42c6e34787a38b2f8936ee2901c0f7e2dfbda25aae6ee44a09f42fac");
  EXPECT_EQ(to_hex(message_hash(full).to_bytes_be()),
            "1499ccf7f7088455f7124b96d27ec37ba85df1ecfa11f19f93d4dc1026e4cfe4");
}

TEST(RateLimitProofWire, MessageHashIsSha256OfSignalBytes) {
  Rng rng(0x516);
  for (int i = 0; i < 64; ++i) {
    WakuMessage m;
    m.payload = rng.next_bytes(rng.next_below(700));
    m.content_topic = to_string(rng.next_bytes(rng.next_below(48)));
    m.timestamp_ms = rng.next_u64();
    EXPECT_EQ(message_hash(m),
              Fr::from_bytes_reduce(hash::sha256_bytes(m.signal_bytes())))
        << "message " << i;
  }
}

TEST(NullifierLogUnit, NewThenDuplicateThenConflict) {
  NullifierLog log;
  const Fr nullifier = Fr::from_u64(7);
  const sss::Share s1{Fr::from_u64(1), Fr::from_u64(10)};
  const sss::Share s2{Fr::from_u64(2), Fr::from_u64(20)};

  EXPECT_EQ(log.observe(5, nullifier, s1).outcome,
            NullifierLog::Outcome::kNew);
  EXPECT_EQ(log.observe(5, nullifier, s1).outcome,
            NullifierLog::Outcome::kDuplicate);
  const auto conflict = log.observe(5, nullifier, s2);
  EXPECT_EQ(conflict.outcome, NullifierLog::Outcome::kConflict);
  ASSERT_TRUE(conflict.previous_share.has_value());
  EXPECT_EQ(*conflict.previous_share, s1);
}

TEST(NullifierLogUnit, EpochsAreIndependent) {
  NullifierLog log;
  const Fr nullifier = Fr::from_u64(7);
  const sss::Share s{Fr::from_u64(1), Fr::from_u64(10)};
  EXPECT_EQ(log.observe(5, nullifier, s).outcome, NullifierLog::Outcome::kNew);
  EXPECT_EQ(log.observe(6, nullifier, s).outcome, NullifierLog::Outcome::kNew);
}

TEST(NullifierLogUnit, GcDropsOldEpochs) {
  NullifierLog log;
  const sss::Share s{Fr::from_u64(1), Fr::from_u64(10)};
  for (std::uint64_t e = 0; e < 10; ++e) {
    log.observe(e, Fr::from_u64(e), s);
  }
  EXPECT_EQ(log.epoch_count(), 10u);
  log.gc(/*current_epoch=*/9, /*thr=*/2);
  EXPECT_EQ(log.epoch_count(), 3u);  // epochs 7, 8, 9 retained
  EXPECT_GT(log.storage_bytes(), 0u);
}

TEST(NullifierLogUnit, DistinctNullifiersCoexist) {
  NullifierLog log;
  const sss::Share s{Fr::from_u64(1), Fr::from_u64(10)};
  EXPECT_EQ(log.observe(1, Fr::from_u64(100), s).outcome,
            NullifierLog::Outcome::kNew);
  EXPECT_EQ(log.observe(1, Fr::from_u64(101), s).outcome,
            NullifierLog::Outcome::kNew);
  EXPECT_EQ(log.entry_count(), 2u);
}

TEST(NullifierLog, SerializeBytesArePinned) {
  // A seeded fill that hits every observe outcome (duplicates, conflicts
  // with distinct x, equal-x equivocations), observes below the GC
  // watermark, and gc calls on an empty and a live log. The serialized
  // bytes (watermark, conflict count, buckets by epoch, entries by
  // nullifier) are the format the crash-restart snapshots carry, so a
  // change to the log's storage must leave them untouched.
  NullifierLog log;
  log.gc(/*current_epoch=*/10, /*thr=*/3);  // empty log: seeds watermark 7
  Rng rng(0x5EED);
  std::size_t outcomes[3] = {0, 0, 0};
  std::size_t equal_x_conflicts = 0;
  for (std::uint64_t i = 0; i < 6000; ++i) {
    const std::uint64_t current = 10 + i / 300;
    const std::uint64_t epoch = current - rng.next_below(6);
    const Fr nullifier = Fr::from_u64(rng.next_below(120));
    const sss::Share share{Fr::from_u64(rng.next_below(3)),
                           Fr::from_u64(rng.next_below(3))};
    const auto r = log.observe(epoch, nullifier, share, rng.next_u64());
    ++outcomes[static_cast<int>(r.outcome)];
    if (r.outcome == NullifierLog::Outcome::kConflict && !r.sk_recoverable) {
      ++equal_x_conflicts;
    }
    if (i % 300 == 299) log.gc(current, /*thr=*/3);
  }
  EXPECT_GT(outcomes[0], 0u);
  EXPECT_GT(outcomes[1], 0u);
  EXPECT_GT(outcomes[2], 0u);
  EXPECT_GT(equal_x_conflicts, 0u);

  const Bytes bytes = log.serialize();
  EXPECT_EQ(to_hex(hash::sha256_bytes(bytes)),
            "37e99a13bb14d31d6d5d3214762cdebd9a867dfec23b0c5a37275cfb0a8123ff");
  NullifierLog restored;
  restored.restore(bytes);
  EXPECT_EQ(restored.serialize(), bytes);
  EXPECT_EQ(restored.bucket_sizes(), log.bucket_sizes());
}

// -- GroupManager ------------------------------------------------------------

chain::Event registered_event(std::uint64_t index, const Fr& pk) {
  chain::Event ev;
  ev.name = "MemberRegistered";
  ev.topics = {U256{index}, pk.to_u256()};
  return ev;
}

chain::Event slashed_event(std::uint64_t index, const Fr& pk,
                           const merkle::MerklePath& path) {
  chain::Event ev;
  ev.name = "MemberSlashed";
  ev.topics = {U256{index}, pk.to_u256(), U256{0xBEEF}};
  ev.data = merkle::serialize_path(path);
  return ev;
}

TEST(GroupManagerUnit, FullModeTracksMembers) {
  GroupManager gm(8, TreeMode::kFullTree);
  Rng rng(419);
  const Identity me = Identity::generate(rng);
  gm.set_own_identity(me);

  gm.on_event(registered_event(0, hash::poseidon1(Fr::from_u64(1))));
  EXPECT_FALSE(gm.own_index().has_value());
  gm.on_event(registered_event(1, me.pk));
  ASSERT_TRUE(gm.own_index().has_value());
  EXPECT_EQ(*gm.own_index(), 1u);
  EXPECT_EQ(gm.member_count(), 2u);

  // The own path verifies against the tracked root.
  EXPECT_TRUE(merkle::verify_path(gm.root(), me.pk, gm.own_path()));
}

TEST(GroupManagerUnit, IndexLookupForSlashing) {
  GroupManager gm(8, TreeMode::kFullTree);
  const Fr pk = hash::poseidon1(Fr::from_u64(5));
  gm.on_event(registered_event(0, pk));
  ASSERT_TRUE(gm.index_of(pk).has_value());
  EXPECT_EQ(*gm.index_of(pk), 0u);
  EXPECT_FALSE(gm.index_of(Fr::from_u64(123)).has_value());
}

TEST(GroupManagerUnit, RemovalClearsLookupAndOwnIndex) {
  GroupManager gm(8, TreeMode::kFullTree);
  Rng rng(421);
  const Identity me = Identity::generate(rng);
  gm.set_own_identity(me);
  gm.on_event(registered_event(0, me.pk));
  ASSERT_TRUE(gm.own_index().has_value());

  const merkle::MerklePath path = gm.path_of(0);
  gm.on_event(slashed_event(0, me.pk, path));
  EXPECT_FALSE(gm.own_index().has_value());  // we were slashed
  EXPECT_FALSE(gm.index_of(me.pk).has_value());
  EXPECT_EQ(gm.removed_count(), 1u);
}

TEST(GroupManagerUnit, OutOfOrderEventRejected) {
  GroupManager gm(8, TreeMode::kFullTree);
  EXPECT_THROW(gm.on_event(registered_event(3, Fr::from_u64(1))),
               ContractViolation);
}

TEST(GroupManagerUnit, RecentRootWindow) {
  GroupManager gm(8, TreeMode::kFullTree, /*root_window=*/3);
  const Fr r0 = gm.root();
  gm.on_event(registered_event(0, hash::poseidon1(Fr::from_u64(1))));
  const Fr r1 = gm.root();
  gm.on_event(registered_event(1, hash::poseidon1(Fr::from_u64(2))));
  const Fr r2 = gm.root();
  EXPECT_TRUE(gm.is_recent_root(r0));
  EXPECT_TRUE(gm.is_recent_root(r1));
  EXPECT_TRUE(gm.is_recent_root(r2));
  gm.on_event(registered_event(2, hash::poseidon1(Fr::from_u64(3))));
  EXPECT_FALSE(gm.is_recent_root(r0));  // rolled out of the window
  EXPECT_TRUE(gm.is_recent_root(gm.root()));
}

TEST(GroupManagerUnit, PartialModeShrinksAfterOwnRegistration) {
  GroupManager full(10, TreeMode::kFullTree);
  GroupManager light(10, TreeMode::kPartialView);
  Rng rng(431);
  const Identity me = Identity::generate(rng);
  light.set_own_identity(me);

  // A pile of strangers registers, then us, then more strangers.
  std::vector<Fr> pks;
  for (int i = 0; i < 40; ++i) pks.push_back(hash::poseidon1(Fr::random(rng)));
  std::uint64_t index = 0;
  for (int i = 0; i < 20; ++i) {
    const auto ev = registered_event(index++, pks[static_cast<std::size_t>(i)]);
    full.on_event(ev);
    light.on_event(ev);
  }
  const std::size_t bootstrap_bytes = light.storage_bytes();
  {
    const auto ev = registered_event(index++, me.pk);
    full.on_event(ev);
    light.on_event(ev);
  }
  for (int i = 20; i < 40; ++i) {
    const auto ev = registered_event(index++, pks[static_cast<std::size_t>(i)]);
    full.on_event(ev);
    light.on_event(ev);
  }

  EXPECT_EQ(light.root(), full.root());
  EXPECT_TRUE(merkle::verify_path(light.root(), me.pk, light.own_path()));
  // After the switch the partial view is far below the bootstrap tree size
  // and the full replica.
  EXPECT_LT(light.storage_bytes(), bootstrap_bytes);
  EXPECT_LT(light.storage_bytes() * 3, full.storage_bytes());
}

TEST(GroupManagerUnit, PartialModeAppliesRemovalsViaEventPath) {
  GroupManager full(10, TreeMode::kFullTree);
  GroupManager light(10, TreeMode::kPartialView);
  Rng rng(433);
  const Identity me = Identity::generate(rng);
  light.set_own_identity(me);

  std::vector<Fr> pks;
  std::uint64_t index = 0;
  for (int i = 0; i < 8; ++i) {
    pks.push_back(hash::poseidon1(Fr::random(rng)));
    const auto ev = registered_event(index++, pks.back());
    full.on_event(ev);
    light.on_event(ev);
  }
  const auto me_ev = registered_event(index++, me.pk);
  full.on_event(me_ev);
  light.on_event(me_ev);

  // Slash member 3: the event carries the pre-removal path (from a full
  // node), which the light view uses to stay synced.
  const auto ev = slashed_event(3, pks[3], full.path_of(3));
  full.on_event(ev);
  light.on_event(ev);
  EXPECT_EQ(light.root(), full.root());
  EXPECT_TRUE(merkle::verify_path(light.root(), me.pk, light.own_path()));
}

// -- GroupManager: per-block apply ------------------------------------------

TEST(GroupManagerBlocks, BurstBlockKeepsThePreBlockRoot) {
  // W registrations in one block push one root into a W-root window, so
  // the root proofs in flight were made against survives the block. Fed
  // one event at a time (each its own block) the same events evict it.
  constexpr std::size_t kWindow = 10;
  Rng rng(451);
  GroupManager block(20, TreeMode::kFullTree, kWindow);
  GroupManager singles(20, TreeMode::kFullTree, kWindow);
  const chain::Event first =
      registered_event(0, hash::poseidon1(Fr::random(rng)));
  block.on_event(first);
  singles.on_event(first);
  const Fr pre_block_root = block.root();
  const std::size_t roots_before = block.recent_root_count();

  std::vector<chain::Event> events;
  for (std::uint64_t i = 1; i <= kWindow; ++i) {
    events.push_back(registered_event(i, hash::poseidon1(Fr::random(rng))));
  }
  block.apply(events);
  block.commit_block();
  for (const chain::Event& ev : events) singles.on_event(ev);

  EXPECT_EQ(block.root(), singles.root());
  EXPECT_EQ(block.member_count(), kWindow + 1);
  EXPECT_EQ(block.recent_root_count(), roots_before + 1);
  EXPECT_TRUE(block.is_recent_root(pre_block_root));
  EXPECT_FALSE(singles.is_recent_root(pre_block_root));
}

TEST(GroupManagerBlocks, MixedBlockMatchesEventByEventState) {
  // One block: singles, a folded batch holding our own pk, a slash, more
  // singles. Applied as a block it must reach the event-by-event state,
  // and every non-registration event must see the tree exactly as the
  // event-by-event follower saw it there.
  Rng rng(453);
  const Identity me = Identity::generate(rng);
  std::vector<Fr> pks;
  for (int i = 0; i < 12; ++i) pks.push_back(hash::poseidon1(Fr::random(rng)));
  pks[6] = me.pk;

  // Members 0..3 exist before the block (member 2 gets slashed in it).
  std::vector<chain::Event> prior;
  for (std::uint64_t i = 0; i < 4; ++i) {
    prior.push_back(registered_event(i, pks[i]));
  }

  std::vector<chain::Event> events;
  events.push_back(registered_event(4, pks[4]));
  chain::Event batch;
  batch.name = "MembersRegistered";
  batch.topics = {U256{5}, U256{3}};
  for (std::size_t i = 5; i < 8; ++i) {
    const Bytes b = pks[i].to_bytes_be();
    batch.data.insert(batch.data.end(), b.begin(), b.end());
  }
  events.push_back(batch);
  events.push_back(registered_event(8, pks[8]));
  // The slash path is the one a full node attaches at this position.
  {
    GroupManager at_slash(10, TreeMode::kFullTree);
    for (const chain::Event& ev : prior) at_slash.on_event(ev);
    for (const chain::Event& ev : events) at_slash.on_event(ev);
    events.push_back(slashed_event(2, pks[2], at_slash.path_of(2)));
  }
  events.push_back(registered_event(9, pks[9]));
  events.push_back(registered_event(10, pks[10]));

  for (const TreeMode mode : {TreeMode::kFullTree, TreeMode::kPartialView}) {
    GroupManager ref(10, mode);
    GroupManager blk(10, mode);
    ref.set_own_identity(me);
    blk.set_own_identity(me);
    for (const chain::Event& ev : prior) {
      ref.on_event(ev);
      blk.on_event(ev);
    }
    std::vector<Fr> ref_roots;
    for (const chain::Event& ev : events) {
      ref.on_event(ev);
      ref_roots.push_back(ref.root());
    }
    std::size_t seen = 0;
    blk.apply(events, [&](const chain::Event& ev) {
      ASSERT_LT(seen, events.size());
      EXPECT_EQ(&ev, &events[seen]);
      if (ev.name == "MemberSlashed") {
        EXPECT_EQ(blk.root(), ref_roots[seen]);
      }
      ++seen;
    });
    blk.commit_block();
    EXPECT_EQ(seen, events.size());

    EXPECT_EQ(blk.root(), ref.root());
    EXPECT_EQ(blk.member_count(), ref.member_count());
    EXPECT_EQ(blk.removed_count(), 1u);
    ASSERT_EQ(blk.own_index(), std::optional<std::uint64_t>{6});
    EXPECT_TRUE(merkle::verify_path(blk.root(), me.pk, blk.own_path()));
    // One window entry for the whole block (the event-by-event follower
    // pushed one per event).
    EXPECT_EQ(blk.recent_root_count(), prior.size() + 2);
    EXPECT_EQ(blk.recent_roots().back(), ref.root());
    if (mode == TreeMode::kFullTree) {
      for (std::uint64_t i = 0; i < 11; ++i) {
        EXPECT_EQ(blk.path_of(i).siblings, ref.path_of(i).siblings) << i;
        EXPECT_EQ(blk.index_of(pks[i]), ref.index_of(pks[i])) << i;
      }
    }
  }
}

// -- Validator ----------------------------------------------------------------

struct ValidatorFixture : ::testing::Test {
  static constexpr std::size_t kDepth = 8;
  GroupManager group{kDepth, TreeMode::kFullTree};
  Rng rng{now_seed()};
  Identity alice = Identity::generate(rng);
  Identity bob = Identity::generate(rng);
  ValidatorConfig vcfg{.epoch = EpochConfig{.epoch_length_ms = 1000},
                       .max_epoch_gap = 2};
  ValidationPipeline validator{zksnark::rln_keypair(kDepth).vk, group, vcfg};

  static std::uint64_t now_seed() { return 437; }

  void SetUp() override {
    chain::Event ev;
    ev.name = "MemberRegistered";
    ev.topics = {U256{0}, alice.pk.to_u256()};
    group.on_event(ev);
    ev.topics = {U256{1}, bob.pk.to_u256()};
    group.on_event(ev);
  }

  WakuMessage make_message(const Identity& who, std::uint64_t who_index,
                           const std::string& body, std::uint64_t epoch) {
    WakuMessage msg;
    msg.payload = to_bytes(body);
    attach_proof(msg, make_rate_limit_proof(who.sk, group.path_of(who_index),
                                            msg, epoch, rng));
    return msg;
  }
};

TEST_F(ValidatorFixture, AcceptsHonestMessage) {
  const WakuMessage msg = make_message(alice, 0, "hello", 10);
  const auto outcome = validator.validate_one(msg, 10'500);  // epoch 10
  EXPECT_EQ(outcome.verdict, Verdict::kAccept);
}

TEST_F(ValidatorFixture, IgnoresDuplicate) {
  const WakuMessage msg = make_message(alice, 0, "hello", 10);
  (void)validator.validate_one(msg, 10'500);
  EXPECT_EQ(validator.validate_one(msg, 10'600).verdict,
            Verdict::kIgnoreDuplicate);
}

TEST_F(ValidatorFixture, DetectsDoubleSignalAndRecoversKey) {
  const WakuMessage m1 = make_message(alice, 0, "first", 10);
  const WakuMessage m2 = make_message(alice, 0, "second", 10);
  EXPECT_EQ(validator.validate_one(m1, 10'500).verdict, Verdict::kAccept);
  const auto outcome = validator.validate_one(m2, 10'600);
  EXPECT_EQ(outcome.verdict, Verdict::kRejectSpam);
  ASSERT_TRUE(outcome.recovered_sk.has_value());
  EXPECT_EQ(*outcome.recovered_sk, alice.sk);  // cryptographic slashing
}

TEST_F(ValidatorFixture, DifferentEpochsDontConflict) {
  const WakuMessage m1 = make_message(alice, 0, "first", 10);
  const WakuMessage m2 = make_message(alice, 0, "second", 11);
  EXPECT_EQ(validator.validate_one(m1, 10'500).verdict, Verdict::kAccept);
  EXPECT_EQ(validator.validate_one(m2, 11'200).verdict, Verdict::kAccept);
}

TEST_F(ValidatorFixture, DifferentMembersDontConflict) {
  const WakuMessage m1 = make_message(alice, 0, "from alice", 10);
  const WakuMessage m2 = make_message(bob, 1, "from bob", 10);
  EXPECT_EQ(validator.validate_one(m1, 10'500).verdict, Verdict::kAccept);
  EXPECT_EQ(validator.validate_one(m2, 10'600).verdict, Verdict::kAccept);
}

TEST_F(ValidatorFixture, RejectsEpochTooFarPast) {
  const WakuMessage msg = make_message(alice, 0, "old", 5);
  EXPECT_EQ(validator.validate_one(msg, 10'500).verdict,
            Verdict::kIgnoreEpochGap);  // |10 - 5| > Thr = 2
}

TEST_F(ValidatorFixture, RejectsEpochTooFarFuture) {
  const WakuMessage msg = make_message(alice, 0, "future", 15);
  EXPECT_EQ(validator.validate_one(msg, 10'500).verdict,
            Verdict::kIgnoreEpochGap);
}

TEST_F(ValidatorFixture, AcceptsWithinEpochGap) {
  const WakuMessage msg = make_message(alice, 0, "slightly old", 9);
  EXPECT_EQ(validator.validate_one(msg, 10'500).verdict, Verdict::kAccept);
}

TEST_F(ValidatorFixture, RejectsMissingProof) {
  WakuMessage msg;
  msg.payload = to_bytes("bare");
  EXPECT_EQ(validator.validate_one(msg, 10'500).verdict,
            Verdict::kRejectNoProof);
}

TEST_F(ValidatorFixture, RejectsTamperedPayload) {
  WakuMessage msg = make_message(alice, 0, "authentic", 10);
  msg.payload = to_bytes("tampered!");  // breaks x = H(m)
  EXPECT_EQ(validator.validate_one(msg, 10'500).verdict,
            Verdict::kRejectBadProof);
}

TEST_F(ValidatorFixture, RejectsGarbageProof) {
  WakuMessage msg = make_message(alice, 0, "real", 10);
  auto bundle = *extract_proof(msg);
  bundle.proof = zksnark::Proof::deserialize(rng.next_bytes(128));
  attach_proof(msg, bundle);
  EXPECT_EQ(validator.validate_one(msg, 10'500).verdict,
            Verdict::kRejectBadProof);
}

TEST_F(ValidatorFixture, RejectsUnknownRoot) {
  WakuMessage msg = make_message(alice, 0, "real", 10);
  auto bundle = *extract_proof(msg);
  bundle.root = Fr::from_u64(0xBAD);
  attach_proof(msg, bundle);
  EXPECT_EQ(validator.validate_one(msg, 10'500).verdict,
            Verdict::kRejectStaleRoot);
}

TEST_F(ValidatorFixture, NonMemberCannotForgeProof) {
  // An unregistered identity borrows alice's path but proves with its own
  // sk: the computed root differs -> stale root rejection (it never even
  // reaches proof verification).
  Rng rng2(439);
  const Identity eve = Identity::generate(rng2);
  WakuMessage msg;
  msg.payload = to_bytes("evil");
  // The bundle's root is that of a tree containing eve -- fake.
  attach_proof(msg, make_rate_limit_proof(eve.sk, group.path_of(0), msg, 10,
                                          rng2));
  EXPECT_EQ(validator.validate_one(msg, 10'500).verdict,
            Verdict::kRejectStaleRoot);
}

TEST_F(ValidatorFixture, StatsAreTracked) {
  (void)validator.validate_one(make_message(alice, 0, "a", 10), 10'500);
  (void)validator.validate_one(make_message(alice, 0, "b", 10), 10'600);
  WakuMessage bare;
  bare.payload = to_bytes("no proof");
  (void)validator.validate_one(bare, 10'700);
  const ValidatorStats& s = validator.stats();
  EXPECT_EQ(s.accepted, 1u);
  EXPECT_EQ(s.spam_detected, 1u);
  EXPECT_EQ(s.no_proof, 1u);
}

TEST_F(ValidatorFixture, GcTrimsLog) {
  (void)validator.validate_one(make_message(alice, 0, "a", 10), 10'500);
  EXPECT_EQ(validator.log().entry_count(), 1u);
  validator.gc(100'000);  // epoch 100, far past Thr
  EXPECT_EQ(validator.log().entry_count(), 0u);
}

}  // namespace
}  // namespace waku::rln

// Tests for the chain simulator and both membership contracts: gas
// accounting, balances, reverts, events, the flat-list vs on-chain-tree
// cost asymmetry (paper §III-A), commit-reveal slashing (§III-F), and the
// early-withdrawal escape (§IV-B).
#include <gtest/gtest.h>

#include "chain/blockchain.hpp"
#include "chain/rln_contract.hpp"
#include "chain/semaphore_contract.hpp"
#include "common/rng.hpp"
#include "common/serde.hpp"
#include "hash/poseidon.hpp"
#include "merkle/merkle_tree.hpp"
#include "rln/group_manager.hpp"

namespace waku::chain {
namespace {

using ff::Fr;
using ff::U256;

constexpr Gwei kDeposit = 1'000'000;  // 0.001 ETH in gwei

struct ChainFixture : ::testing::Test {
  Blockchain chain;
  Address rln_addr;
  Address alice = Address::from_u64(0xA11CE);
  Address bob = Address::from_u64(0xB0B);
  Rng rng{31337};

  void SetUp() override {
    rln_addr = chain.deploy(std::make_unique<RlnMembershipContract>(kDeposit));
    chain.create_account(alice, 100 * kGweiPerEth);
    chain.create_account(bob, 100 * kGweiPerEth);
  }

  RlnMembershipContract& rln() {
    return chain.contract_at<RlnMembershipContract>(rln_addr);
  }

  Transaction register_tx(const Address& from, const Fr& pk) {
    Transaction tx;
    tx.from = from;
    tx.to = rln_addr;
    tx.method = "register";
    tx.calldata = pk.to_bytes_be();
    tx.value = kDeposit;
    return tx;
  }

  TxReceipt run(Transaction tx) {
    const auto handle = chain.submit(std::move(tx));
    chain.mine_block(chain.height() * 12'000);
    return *chain.receipt(handle);
  }
};

TEST_F(ChainFixture, AccountsAndBalances) {
  EXPECT_EQ(chain.balance(alice), 100 * kGweiPerEth);
  EXPECT_EQ(chain.balance(Address::from_u64(999)), 0u);
}

TEST_F(ChainFixture, RegisterSucceedsAndDepositsStake) {
  const Fr sk = Fr::random(rng);
  const Fr pk = hash::poseidon1(sk);
  const TxReceipt r = run(register_tx(alice, pk));
  ASSERT_TRUE(r.success) << r.revert_reason;
  EXPECT_EQ(rln().member_count_view(), 1u);
  EXPECT_EQ(rln().member_at_view(0), pk.to_u256());
  EXPECT_EQ(chain.balance(rln_addr), kDeposit);
}

TEST_F(ChainFixture, RegisterEmitsEvent) {
  const Fr pk = hash::poseidon1(Fr::random(rng));
  const TxReceipt r = run(register_tx(alice, pk));
  ASSERT_EQ(r.events.size(), 1u);
  EXPECT_EQ(r.events[0].name, "MemberRegistered");
  EXPECT_EQ(r.events[0].topics[0], U256{0});
  EXPECT_EQ(r.events[0].topics[1], pk.to_u256());
}

TEST_F(ChainFixture, RegisterChargesFeeFromSender) {
  const Gwei before = chain.balance(alice);
  const TxReceipt r = run(register_tx(alice, hash::poseidon1(Fr::one())));
  ASSERT_TRUE(r.success);
  EXPECT_EQ(chain.balance(alice), before - kDeposit - r.fee_paid);
}

TEST_F(ChainFixture, RegisterGasIsNearPaperFigure) {
  // Paper §IV-A: ~40k gas per membership on the flat-list contract. The
  // first registration pays a one-time count-slot initialization, so the
  // steady-state figure is the second one.
  ASSERT_TRUE(run(register_tx(bob, hash::poseidon1(Fr::from_u64(2)))).success);
  const TxReceipt r = run(register_tx(alice, hash::poseidon1(Fr::one())));
  ASSERT_TRUE(r.success);
  EXPECT_GT(r.gas_used, 30'000u);
  EXPECT_LT(r.gas_used, 55'000u);
}

TEST_F(ChainFixture, WrongDepositReverts) {
  Transaction tx = register_tx(alice, hash::poseidon1(Fr::one()));
  tx.value = kDeposit / 2;
  const TxReceipt r = run(std::move(tx));
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.revert_reason, "register: wrong deposit");
  EXPECT_EQ(rln().member_count_view(), 0u);
  EXPECT_EQ(chain.balance(rln_addr), 0u);  // value transfer unwound
}

TEST_F(ChainFixture, ZeroCommitmentReverts) {
  const TxReceipt r = run(register_tx(alice, Fr::zero()));
  EXPECT_FALSE(r.success);
}

TEST_F(ChainFixture, RevertRefundsValueButChargesGas) {
  const Gwei before = chain.balance(alice);
  Transaction tx = register_tx(alice, hash::poseidon1(Fr::one()));
  tx.value = 1;  // wrong deposit
  const TxReceipt r = run(std::move(tx));
  ASSERT_FALSE(r.success);
  EXPECT_GT(r.fee_paid, 0u);
  EXPECT_EQ(chain.balance(alice), before - r.fee_paid);
}

TEST_F(ChainFixture, InsufficientFundsFailsWithoutStateChange) {
  const Address pauper = Address::from_u64(0xDEAD);
  chain.create_account(pauper, 10);  // can't even cover gas
  const TxReceipt r = run(register_tx(pauper, hash::poseidon1(Fr::one())));
  EXPECT_FALSE(r.success);
  EXPECT_EQ(chain.balance(pauper), 10u);
}

TEST_F(ChainFixture, BatchRegistrationAmortizesGas) {
  // Paper §IV-A: batching halves per-member insertion cost (~40k -> ~20k).
  const TxReceipt single = run(register_tx(alice, hash::poseidon1(Fr::one())));

  constexpr std::uint32_t kBatch = 16;
  ByteWriter w;
  w.write_u32(kBatch);
  for (std::uint32_t i = 0; i < kBatch; ++i) {
    w.write_raw(hash::poseidon1(Fr::from_u64(100 + i)).to_bytes_be());
  }
  Transaction tx;
  tx.from = bob;
  tx.to = rln_addr;
  tx.method = "register_batch";
  tx.calldata = std::move(w).take();
  tx.value = kDeposit * kBatch;
  const TxReceipt batch = run(std::move(tx));
  ASSERT_TRUE(batch.success) << batch.revert_reason;
  EXPECT_EQ(rln().member_count_view(), 1 + kBatch);

  const std::uint64_t per_member = batch.gas_used / kBatch;
  EXPECT_LT(per_member, single.gas_used * 6 / 10);  // >=40% saving
}

TEST_F(ChainFixture, BatchRegistrationEmitsOneFoldedEvent) {
  // One MembersRegistered event for the whole batch; GroupManager folds it
  // into a single root transition (no intermediate roots in the window).
  constexpr std::uint32_t kBatch = 8;
  ByteWriter w;
  w.write_u32(kBatch);
  std::vector<Fr> pks;
  for (std::uint32_t i = 0; i < kBatch; ++i) {
    pks.push_back(hash::poseidon1(Fr::from_u64(500 + i)));
    w.write_raw(pks.back().to_bytes_be());
  }
  Transaction tx;
  tx.from = alice;
  tx.to = rln_addr;
  tx.method = "register_batch";
  tx.calldata = std::move(w).take();
  tx.value = kDeposit * kBatch;
  const TxReceipt r = run(std::move(tx));
  ASSERT_TRUE(r.success) << r.revert_reason;
  ASSERT_EQ(r.events.size(), 1u);
  EXPECT_EQ(r.events[0].name, "MembersRegistered");
  EXPECT_EQ(r.events[0].topics[0], U256{0});       // base index
  EXPECT_EQ(r.events[0].topics[1], U256{kBatch});  // count
  EXPECT_EQ(r.events[0].data.size(), std::size_t{kBatch} * 32);

  rln::GroupManager folded(20, rln::TreeMode::kFullTree, 10);
  const std::size_t roots_before = folded.recent_root_count();
  folded.on_event(r.events[0]);
  EXPECT_EQ(folded.member_count(), kBatch);
  EXPECT_EQ(folded.recent_root_count(), roots_before + 1);

  // Folded root == the root after the same leaves inserted one at a time.
  merkle::IncrementalMerkleTree reference(20);
  for (const Fr& pk : pks) reference.insert(pk);
  EXPECT_EQ(folded.root(), reference.root());
}

TEST_F(ChainFixture, ReplayCursorCrossesBatchAtomically) {
  // A batch is ONE event in the global log: a restarting follower whose
  // cursor sits just before it replays the whole batch in one on_event and
  // lands on the same state as a follower that never crashed.
  ASSERT_TRUE(
      run(register_tx(alice, hash::poseidon1(Fr::from_u64(1)))).success);

  rln::GroupManager live(20, rln::TreeMode::kFullTree, 10);
  chain.replay_blocks(0, [&](Blockchain::BlockEvents block) {
    live.apply(block);
    live.commit_block();
  });
  const std::uint64_t cursor = chain.event_count();  // pre-batch cursor

  constexpr std::uint32_t kBatch = 5;
  ByteWriter w;
  w.write_u32(kBatch);
  for (std::uint32_t i = 0; i < kBatch; ++i) {
    w.write_raw(hash::poseidon1(Fr::from_u64(600 + i)).to_bytes_be());
  }
  Transaction tx;
  tx.from = bob;
  tx.to = rln_addr;
  tx.method = "register_batch";
  tx.calldata = std::move(w).take();
  tx.value = kDeposit * kBatch;
  ASSERT_TRUE(run(std::move(tx)).success);
  ASSERT_EQ(chain.event_count(), cursor + 1);  // the batch is one record

  // "Crash-restart": resume a second follower from the saved cursor.
  chain.replay_blocks(cursor, [&](Blockchain::BlockEvents block) {
    live.apply(block);
    live.commit_block();
  });
  rln::GroupManager restarted(20, rln::TreeMode::kFullTree, 10);
  chain.replay_blocks(0, [&](Blockchain::BlockEvents block) {
    restarted.apply(block);
    restarted.commit_block();
  });
  EXPECT_EQ(restarted.member_count(), live.member_count());
  EXPECT_EQ(restarted.root(), live.root());
}

TEST_F(ChainFixture, BatchWithWrongValueReverts) {
  ByteWriter w;
  w.write_u32(2);
  w.write_raw(hash::poseidon1(Fr::from_u64(1)).to_bytes_be());
  w.write_raw(hash::poseidon1(Fr::from_u64(2)).to_bytes_be());
  Transaction tx;
  tx.from = alice;
  tx.to = rln_addr;
  tx.method = "register_batch";
  tx.calldata = std::move(w).take();
  tx.value = kDeposit;  // should be 2x
  EXPECT_FALSE(run(std::move(tx)).success);
}

TEST_F(ChainFixture, WithdrawBatchRefundsAndFoldsRemovals) {
  // Six members, then one withdraw_batch removing #1 and #4: one payout,
  // one event, and both a full-tree follower and a checkpoint-bootstrapped
  // root tracker fold it into a single root transition.
  std::vector<Fr> sks;
  std::vector<Fr> pks;
  for (std::uint64_t i = 0; i < 6; ++i) {
    sks.push_back(Fr::from_u64(900 + i));
    pks.push_back(hash::poseidon1(sks.back()));
    ASSERT_TRUE(run(register_tx(alice, pks.back())).success);
  }

  rln::GroupManager full(20, rln::TreeMode::kFullTree, 10);
  chain.replay_blocks(0, [&](Blockchain::BlockEvents block) {
    full.apply(block);
    full.commit_block();
  });
  rln::GroupManager tracker =
      rln::GroupManager::from_checkpoint(full.export_checkpoint(), 10);

  // Paths must be sequentially valid: record i is checked against the
  // tree after records 0..i-1, so compute them against a mutating mirror.
  merkle::IncrementalMerkleTree mirror(20);
  for (const Fr& pk : pks) mirror.insert(pk);
  ByteWriter w;
  w.write_u32(2);
  for (std::uint64_t index : {std::uint64_t{1}, std::uint64_t{4}}) {
    w.write_raw(sks[index].to_bytes_be());
    w.write_u64(index);
    w.write_bytes(merkle::serialize_path(mirror.auth_path(index)));
    mirror.remove(index);
  }
  Transaction tx;
  tx.from = bob;
  tx.to = rln_addr;
  tx.method = "withdraw_batch";
  tx.calldata = std::move(w).take();
  const Gwei before = chain.balance(bob);
  const TxReceipt r = run(std::move(tx));
  ASSERT_TRUE(r.success) << r.revert_reason;
  EXPECT_EQ(chain.balance(bob), before + 2 * kDeposit - r.fee_paid);
  ASSERT_EQ(r.events.size(), 1u);
  EXPECT_EQ(r.events[0].name, "MembersWithdrawn");
  EXPECT_EQ(r.events[0].topics[0], U256{2});
  EXPECT_TRUE(rln().member_at_view(1).is_zero());
  EXPECT_TRUE(rln().member_at_view(4).is_zero());

  const std::size_t full_roots = full.recent_root_count();
  const std::size_t tracker_roots = tracker.recent_root_count();
  full.on_event(r.events[0]);
  tracker.on_event(r.events[0]);
  EXPECT_EQ(full.root(), mirror.root());
  EXPECT_EQ(tracker.root(), mirror.root());
  EXPECT_EQ(full.recent_root_count(), full_roots + 1);
  EXPECT_EQ(tracker.recent_root_count(), tracker_roots + 1);
}

struct SlashFixture : ChainFixture {
  Fr spammer_sk;
  std::uint64_t spammer_index = 0;

  void SetUp() override {
    ChainFixture::SetUp();
    spammer_sk = Fr::random(rng);
    const TxReceipt r = run(register_tx(alice, hash::poseidon1(spammer_sk)));
    ASSERT_TRUE(r.success);
    spammer_index = 0;
  }

  Transaction commit_tx(const Address& slasher, const U256& salt) {
    Transaction tx;
    tx.from = slasher;
    tx.to = rln_addr;
    tx.method = "commit_slash";
    tx.calldata = u256_to_bytes_be(RlnMembershipContract::make_slash_commitment(
        spammer_sk, salt, slasher));
    return tx;
  }

  Transaction reveal_tx(const Address& slasher, const U256& salt) {
    ByteWriter w;
    w.write_raw(spammer_sk.to_bytes_be());
    w.write_raw(u256_to_bytes_be(salt));
    w.write_u64(spammer_index);
    Transaction tx;
    tx.from = slasher;
    tx.to = rln_addr;
    tx.method = "reveal_slash";
    tx.calldata = std::move(w).take();
    return tx;
  }
};

TEST_F(SlashFixture, CommitRevealSlashPaysReward) {
  const U256 salt{777};
  ASSERT_TRUE(run(commit_tx(bob, salt)).success);

  const Gwei before = chain.balance(bob);
  const TxReceipt r = run(reveal_tx(bob, salt));
  ASSERT_TRUE(r.success) << r.revert_reason;
  EXPECT_EQ(chain.balance(bob), before + kDeposit - r.fee_paid);
  EXPECT_TRUE(rln().member_at_view(spammer_index).is_zero());
  ASSERT_EQ(r.events.size(), 1u);
  EXPECT_EQ(r.events[0].name, "MemberSlashed");
}

TEST_F(SlashFixture, RevealInSameBlockAsCommitReverts) {
  const U256 salt{778};
  chain.submit(commit_tx(bob, salt));
  const auto h = chain.submit(reveal_tx(bob, salt));
  chain.mine_block(24'000);
  EXPECT_FALSE(chain.receipt(h)->success);  // commit not yet mature
}

TEST_F(SlashFixture, RevealWithoutCommitReverts) {
  const TxReceipt r = run(reveal_tx(bob, U256{779}));
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.revert_reason, "reveal_slash: no matching commitment");
}

TEST_F(SlashFixture, CopiedRevealCannotStealReward) {
  // The §III-F race: alice observes bob's reveal in the mempool and copies
  // the sk. With commit-reveal, her reveal fails (commitment binds bob).
  const U256 salt{780};
  ASSERT_TRUE(run(commit_tx(bob, salt)).success);

  // Alice's copied reveal, front-running bob's in the same block.
  ByteWriter w;
  w.write_raw(spammer_sk.to_bytes_be());
  w.write_raw(u256_to_bytes_be(salt));
  w.write_u64(spammer_index);
  Transaction steal;
  steal.from = alice;
  steal.to = rln_addr;
  steal.method = "reveal_slash";
  steal.calldata = std::move(w).take();

  const auto h_alice = chain.submit(std::move(steal));
  const auto h_bob = chain.submit(reveal_tx(bob, salt));
  chain.mine_block(36'000);
  EXPECT_FALSE(chain.receipt(h_alice)->success);
  EXPECT_TRUE(chain.receipt(h_bob)->success);
}

TEST_F(SlashFixture, DirectSlashIsFrontRunnable) {
  // Without commit-reveal the copier who lands first wins — the race the
  // paper warns about (E10 quantifies it).
  ByteWriter w;
  w.write_raw(spammer_sk.to_bytes_be());
  w.write_u64(spammer_index);
  Transaction honest;
  honest.from = bob;
  honest.to = rln_addr;
  honest.method = "slash_direct";
  honest.calldata = w.data();

  Transaction thief = honest;
  thief.from = alice;  // front-runner

  const auto h_thief = chain.submit(std::move(thief));
  const auto h_honest = chain.submit(std::move(honest));
  chain.mine_block(12'000);
  EXPECT_TRUE(chain.receipt(h_thief)->success);
  EXPECT_FALSE(chain.receipt(h_honest)->success);
}

TEST_F(SlashFixture, SlashWithWrongSkReverts) {
  ByteWriter w;
  w.write_raw(Fr::random(rng).to_bytes_be());
  w.write_u64(spammer_index);
  Transaction tx;
  tx.from = bob;
  tx.to = rln_addr;
  tx.method = "slash_direct";
  tx.calldata = std::move(w).take();
  const TxReceipt r = run(std::move(tx));
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.revert_reason, "identity key does not match member");
}

TEST_F(SlashFixture, WithdrawReturnsDeposit) {
  // §IV-B "escaping punishment by early withdrawal": the spammer exits
  // before being slashed and reclaims the stake.
  ByteWriter w;
  w.write_raw(spammer_sk.to_bytes_be());
  w.write_u64(spammer_index);
  Transaction tx;
  tx.from = alice;
  tx.to = rln_addr;
  tx.method = "withdraw";
  tx.calldata = std::move(w).take();
  const Gwei before = chain.balance(alice);
  const TxReceipt r = run(std::move(tx));
  ASSERT_TRUE(r.success);
  EXPECT_EQ(chain.balance(alice), before + kDeposit - r.fee_paid);

  // Late slashing attempt now fails: the slot is empty.
  ByteWriter w2;
  w2.write_raw(spammer_sk.to_bytes_be());
  w2.write_u64(spammer_index);
  Transaction slash;
  slash.from = bob;
  slash.to = rln_addr;
  slash.method = "slash_direct";
  slash.calldata = std::move(w2).take();
  EXPECT_FALSE(run(std::move(slash)).success);
}

TEST_F(ChainFixture, EventsReachSubscribers) {
  std::vector<std::string> seen;
  chain.subscribe_events([&](const Event& ev) { seen.push_back(ev.name); });
  run(register_tx(alice, hash::poseidon1(Fr::one())));
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "MemberRegistered");
}

TEST_F(ChainFixture, PendingTransactionsWaitForBlock) {
  chain.submit(register_tx(alice, hash::poseidon1(Fr::one())));
  EXPECT_EQ(chain.pending_count(), 1u);
  EXPECT_EQ(rln().member_count_view(), 0u);  // not yet visible (§IV-A delay)
  chain.mine_block(12'000);
  EXPECT_EQ(chain.pending_count(), 0u);
  EXPECT_EQ(rln().member_count_view(), 1u);
}

TEST_F(ChainFixture, StaticCallDoesNotMutate) {
  run(register_tx(alice, hash::poseidon1(Fr::one())));
  const Bytes out = chain.static_call(rln_addr, "member_count", {});
  ByteReader r(out);
  EXPECT_EQ(r.read_u64(), 1u);
  EXPECT_EQ(chain.balance(alice), chain.balance(alice));
}

TEST_F(ChainFixture, UnknownMethodReverts) {
  Transaction tx;
  tx.from = alice;
  tx.to = rln_addr;
  tx.method = "no_such_method";
  EXPECT_FALSE(run(std::move(tx)).success);
}

// --- Semaphore baseline contract ---

struct SemaphoreFixture : ::testing::Test {
  static constexpr std::size_t kDepth = 16;
  Blockchain chain;
  Address sem_addr;
  Address alice = Address::from_u64(0xA11CE);
  Rng rng{271828};

  void SetUp() override {
    sem_addr =
        chain.deploy(std::make_unique<SemaphoreContract>(kDepth, kDeposit));
    chain.create_account(alice, 1000 * kGweiPerEth);
  }

  SemaphoreContract& sem() {
    return chain.contract_at<SemaphoreContract>(sem_addr);
  }

  TxReceipt register_pk(const Fr& pk) {
    Transaction tx;
    tx.from = alice;
    tx.to = sem_addr;
    tx.method = "register";
    tx.calldata = pk.to_bytes_be();
    tx.value = kDeposit;
    const auto h = chain.submit(std::move(tx));
    chain.mine_block(chain.height() * 12'000);
    return *chain.receipt(h);
  }
};

TEST_F(SemaphoreFixture, OnChainTreeMatchesOffChainTree) {
  merkle::IncrementalMerkleTree reference(kDepth);
  for (std::uint64_t i = 0; i < 10; ++i) {
    const Fr pk = hash::poseidon1(Fr::from_u64(500 + i));
    ASSERT_TRUE(register_pk(pk).success);
    reference.insert(pk);
    EXPECT_EQ(sem().root_view(), reference.root().to_u256()) << "member " << i;
  }
}

TEST_F(SemaphoreFixture, InsertionGasIsLogarithmicAndLarge) {
  // The §III-A motivation: on-chain tree maintenance costs orders of
  // magnitude more than the flat list (which is ~40k).
  const TxReceipt r = register_pk(hash::poseidon1(Fr::one()));
  ASSERT_TRUE(r.success);
  EXPECT_GT(r.gas_used, 500'000u);  // ~depth * (poseidon + sstore)
}

TEST_F(SemaphoreFixture, RemovalCostsAsMuchAsInsertion) {
  ASSERT_TRUE(register_pk(hash::poseidon1(Fr::one())).success);
  ByteWriter w;
  w.write_u64(0);
  Transaction tx;
  tx.from = alice;
  tx.to = sem_addr;
  tx.method = "remove";
  tx.calldata = std::move(w).take();
  const auto h = chain.submit(std::move(tx));
  chain.mine_block(99'000);
  const TxReceipt r = *chain.receipt(h);
  ASSERT_TRUE(r.success) << r.revert_reason;
  EXPECT_GT(r.gas_used, 500'000u);

  merkle::IncrementalMerkleTree reference(kDepth);
  reference.insert(hash::poseidon1(Fr::one()));
  reference.remove(0);
  EXPECT_EQ(sem().root_view(), reference.root().to_u256());
}

TEST_F(SemaphoreFixture, BroadcastStoresSignalAndBlocksDoubles) {
  ASSERT_TRUE(register_pk(hash::poseidon1(Fr::one())).success);

  const U256 nullifier{42};
  ByteWriter w;
  w.write_raw(u256_to_bytes_be(nullifier));
  const Bytes payload = to_bytes("hello semaphore");
  w.write_u32(static_cast<std::uint32_t>(payload.size()));
  w.write_raw(payload);

  Transaction tx;
  tx.from = alice;
  tx.to = sem_addr;
  tx.method = "broadcast_signal";
  tx.calldata = w.data();
  const auto h1 = chain.submit(tx);
  chain.mine_block(50'000);
  const TxReceipt r1 = *chain.receipt(h1);
  ASSERT_TRUE(r1.success) << r1.revert_reason;
  EXPECT_EQ(sem().signal_count_view(), 1u);
  // Messaging through the contract costs real gas per message (E9).
  EXPECT_GT(r1.gas_used, SemaphoreContract::kGroth16VerifyGas);

  // Same nullifier again: double-signal rejected on-chain.
  const auto h2 = chain.submit(tx);
  chain.mine_block(62'000);
  EXPECT_FALSE(chain.receipt(h2)->success);
}

TEST(EventCodec, RoundTripsEveryField) {
  Event ev;
  ev.contract = Address::from_u64(0xC0DE);
  ev.name = "MemberSlashed";
  ev.topics = {U256{7}, U256{1, 2, 3, 4}, U256{~std::uint64_t{0}}};
  ev.data = to_bytes("auth path payload bytes");
  ev.block_number = 42;

  const Bytes wire = serialize_event(ev);
  const Event back = deserialize_event(wire);
  EXPECT_EQ(back.contract, ev.contract);
  EXPECT_EQ(back.name, ev.name);
  EXPECT_EQ(back.topics, ev.topics);
  EXPECT_EQ(back.data, ev.data);
  EXPECT_EQ(back.block_number, ev.block_number);
  // Deterministic encoding: same event, same bytes.
  EXPECT_EQ(serialize_event(back), wire);

  // Truncated frames must throw, not half-parse.
  const BytesView half(wire.data(), wire.size() / 2);
  EXPECT_THROW(deserialize_event(half), std::out_of_range);
}

TEST(EventLog, ReplayFromCursorSeesExactlyTheSuffix) {
  Blockchain chain;
  chain.create_account(Address::from_u64(1), 10 * kGweiPerEth);
  const Address rln =
      chain.deploy(std::make_unique<RlnMembershipContract>(1'000'000));
  Rng rng(3);
  for (int i = 0; i < 3; ++i) {
    Transaction tx;
    tx.from = Address::from_u64(1);
    tx.to = rln;
    tx.method = "register";
    tx.calldata = Fr::random(rng).to_bytes_be();
    tx.value = 1'000'000;
    chain.submit(std::move(tx));
    chain.mine_block(10'000 * (i + 1));
  }
  ASSERT_EQ(chain.event_count(), 3u);
  std::vector<std::uint64_t> indices;
  std::size_t blocks = 0;
  chain.replay_blocks(1, [&](Blockchain::BlockEvents block) {
    ++blocks;
    for (const Event& ev : block) {
      EXPECT_EQ(ev.name, "MemberRegistered");
      indices.push_back(ev.topics[0].limb[0]);
    }
  });
  EXPECT_EQ(indices, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(blocks, 2u);  // one call per mined block
}

TEST(EventLog, BlockSubscribersSeeEachBlockWhole) {
  // Three registrations mined in one block, then one in the next: a block
  // subscriber gets two calls (3 events, then 1), a per-event subscriber
  // four, and a replay from a cursor inside the first block starts with
  // that block's remaining events.
  Blockchain chain;
  chain.create_account(Address::from_u64(1), 10 * kGweiPerEth);
  const Address rln =
      chain.deploy(std::make_unique<RlnMembershipContract>(1'000'000));
  std::vector<std::size_t> block_sizes;
  std::size_t events_seen = 0;
  chain.subscribe_blocks([&](Blockchain::BlockEvents block) {
    block_sizes.push_back(block.size());
  });
  chain.subscribe_events([&](const Event&) { ++events_seen; });
  auto submit_register = [&](std::uint64_t pk) {
    Transaction tx;
    tx.from = Address::from_u64(1);
    tx.to = rln;
    tx.method = "register";
    tx.calldata = Fr::from_u64(pk).to_bytes_be();
    tx.value = 1'000'000;
    chain.submit(std::move(tx));
  };
  for (std::uint64_t pk = 1; pk <= 3; ++pk) submit_register(pk);
  chain.mine_block(10'000);
  chain.mine_block(20'000);  // no events: no block callback
  submit_register(4);
  chain.mine_block(30'000);
  EXPECT_EQ(block_sizes, (std::vector<std::size_t>{3, 1}));
  EXPECT_EQ(events_seen, 4u);

  std::vector<std::size_t> replayed;
  chain.replay_blocks(1, [&](Blockchain::BlockEvents block) {
    replayed.push_back(block.size());
    EXPECT_EQ(block.front().block_number, block.back().block_number);
  });
  EXPECT_EQ(replayed, (std::vector<std::size_t>{2, 1}));
}

TEST(EventLog, UnsubscribedCallbackStopsFiring) {
  Blockchain chain;
  chain.create_account(Address::from_u64(1), 10 * kGweiPerEth);
  const Address rln =
      chain.deploy(std::make_unique<RlnMembershipContract>(1'000'000));
  int calls = 0;
  const std::uint64_t sub =
      chain.subscribe_events([&](const Event&) { ++calls; });
  auto register_one = [&](std::uint64_t at) {
    Transaction tx;
    tx.from = Address::from_u64(1);
    tx.to = rln;
    tx.method = "register";
    tx.calldata = Fr::from_u64(at).to_bytes_be();
    tx.value = 1'000'000;
    chain.submit(std::move(tx));
    chain.mine_block(at);
  };
  register_one(10'000);
  EXPECT_EQ(calls, 1);
  chain.unsubscribe_events(sub);
  register_one(20'000);
  EXPECT_EQ(calls, 1);  // detached: the restarted-node use case
}

}  // namespace
}  // namespace waku::chain

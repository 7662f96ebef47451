// End-to-end integration tests over the full stack: chain + contract +
// gossip network + RLN nodes, driven through the simulation harness.
// These exercise the complete paper §III flows: register -> sync ->
// publish -> route/validate -> detect spam -> slash -> reward.
#include <gtest/gtest.h>

#include "common/serde.hpp"
#include "rln/harness.hpp"
#include "rln/rate_limit_proof.hpp"

namespace waku::rln {
namespace {

HarnessConfig small_config(std::size_t nodes = 10) {
  HarnessConfig cfg;
  cfg.num_nodes = nodes;
  cfg.degree = std::min<std::size_t>(4, nodes - 1);
  cfg.block_interval_ms = 2'000;           // fast blocks for tests
  cfg.node.tree_depth = 10;
  cfg.node.validator.epoch.epoch_length_ms = 5'000;
  cfg.node.validator.max_epoch_gap = 2;
  return cfg;
}

TEST(Integration, RegistrationRoundTrip) {
  RlnHarness h(small_config(6));
  EXPECT_FALSE(h.node(0).is_registered());
  h.register_all();
  for (std::size_t i = 0; i < h.size(); ++i) {
    EXPECT_TRUE(h.node(i).is_registered()) << "node " << i;
    EXPECT_EQ(h.node(i).group().member_count(), h.size());
  }
  // All peers converged on the same root (§III-C sync requirement).
  const auto root = h.node(0).group().root();
  for (std::size_t i = 1; i < h.size(); ++i) {
    EXPECT_EQ(h.node(i).group().root(), root);
  }
  // Deposits are locked in the contract.
  EXPECT_EQ(h.chain().balance(h.contract()),
            h.config().deposit_gwei * h.size());
}

TEST(Integration, RegistrationHasBlockDelay) {
  // §IV-A: "peers have to wait some time before being able to publish".
  RlnHarness h(small_config(4));
  h.node(0).register_membership();
  EXPECT_FALSE(h.node(0).is_registered());
  h.run_ms(h.config().block_interval_ms / 2);
  EXPECT_FALSE(h.node(0).is_registered());  // tx still pending
  h.run_ms(h.config().block_interval_ms);
  EXPECT_TRUE(h.node(0).is_registered());   // block mined, event synced
}

TEST(Integration, HonestMessageReachesEveryone) {
  RlnHarness h(small_config(10));
  h.register_all();
  h.run_ms(5'000);  // allow meshes to settle

  ASSERT_EQ(h.node(0).try_publish(to_bytes("hello waku-rln-relay")),
            WakuRlnRelayNode::PublishStatus::kOk);
  h.run_ms(10'000);
  // Everyone (publisher included) delivered exactly one message.
  EXPECT_EQ(h.total_delivered(), h.size());
}

TEST(Integration, HonestRateLimitOneMessagePerEpoch) {
  RlnHarness h(small_config(6));
  h.register_all();
  h.run_ms(3'000);

  const auto first = h.node(0).try_publish(to_bytes("one"));
  const auto second = h.node(0).try_publish(to_bytes("two"));
  EXPECT_EQ(first, WakuRlnRelayNode::PublishStatus::kOk);
  EXPECT_EQ(second, WakuRlnRelayNode::PublishStatus::kRateLimited);

  // Next epoch opens the gate again.
  h.run_ms(h.config().node.validator.epoch.epoch_length_ms);
  EXPECT_EQ(h.node(0).try_publish(to_bytes("three")),
            WakuRlnRelayNode::PublishStatus::kOk);
}

TEST(Integration, UnregisteredCannotPublish) {
  RlnHarness h(small_config(4));
  EXPECT_EQ(h.node(0).try_publish(to_bytes("premature")),
            WakuRlnRelayNode::PublishStatus::kNotRegistered);
}

TEST(Integration, SpammerIsDetectedSlashedAndLosesDeposit) {
  RlnHarness h(small_config(10));
  h.register_all();
  h.run_ms(5'000);

  WakuRlnRelayNode& spammer = h.node(0);
  const chain::Gwei deposit = h.config().deposit_gwei;

  // Double-signal: two different messages in the same epoch (§III-F).
  ASSERT_EQ(spammer.force_publish(to_bytes("spam one")),
            WakuRlnRelayNode::PublishStatus::kOk);
  ASSERT_EQ(spammer.force_publish(to_bytes("spam two")),
            WakuRlnRelayNode::PublishStatus::kOk);

  // Detection happens at the first relaying hop; commit-reveal slashing
  // then needs two block intervals.
  h.run_ms(8 * h.config().block_interval_ms);

  // Someone recovered the spammer's sk and slashed it on-chain.
  std::uint64_t spam_detections = 0;
  std::uint64_t reward_winners = 0;
  for (std::size_t i = 1; i < h.size(); ++i) {
    spam_detections += h.node(i).validator().stats().spam_detected;
    reward_winners += h.node(i).stats().slash_rewards;
  }
  EXPECT_GE(spam_detections, 1u);
  EXPECT_EQ(reward_winners, 1u);  // exactly one slasher wins the race

  // The spammer's membership is gone everywhere.
  for (std::size_t i = 0; i < h.size(); ++i) {
    EXPECT_FALSE(
        h.node(i).group().index_of(spammer.identity().pk).has_value());
  }
  EXPECT_FALSE(spammer.is_registered());

  // The deposit moved from the contract to the winning slasher.
  EXPECT_EQ(h.chain().balance(h.contract()), deposit * (h.size() - 1));

  // And the slashed spammer can no longer publish.
  EXPECT_EQ(spammer.try_publish(to_bytes("post-slash")),
            WakuRlnRelayNode::PublishStatus::kNotRegistered);
}

TEST(Integration, SpamIsNotPropagatedBeyondFirstHop) {
  // §IV security: "spam messages are dropped immediately and not
  // propagated" — the second spam message dies at the spammer's direct
  // connections. The first message must fully propagate before the second
  // is sent; otherwise the two race and every node simply rejects
  // whichever arrives later (that case is exercised in the slashing test).
  HarnessConfig cfg = small_config(12);
  cfg.node.validator.epoch.epoch_length_ms = 60'000;  // both in one epoch
  RlnHarness h(cfg);
  h.register_all();
  h.run_ms(5'000);

  WakuRlnRelayNode& spammer = h.node(0);
  spammer.force_publish(to_bytes("legit-looking"));
  h.run_ms(5'000);  // full propagation
  spammer.force_publish(to_bytes("the spam"));
  h.run_ms(6'000);

  // First message delivered everywhere; the second only at the spammer.
  EXPECT_LE(h.total_delivered(), h.size() + 1 + h.network().neighbors(0).size());
  std::uint64_t rejected = 0;
  for (std::size_t i = 1; i < h.size(); ++i) {
    rejected += h.node(i).relay().stats().rejected;
  }
  // Rejections happened only at direct neighbors of the spammer.
  EXPECT_LE(rejected, h.network().neighbors(0).size());
  EXPECT_GE(rejected, 1u);
}

TEST(Integration, InvalidProofFloodIsContained) {
  // §IV security: invalid-proof attackers only hurt their direct
  // connections; nothing is relayed.
  RlnHarness h(small_config(12));
  h.register_all();
  h.run_ms(5'000);

  const std::uint64_t delivered_before = h.total_delivered();
  for (int i = 0; i < 5; ++i) {
    h.node(0).publish_with_invalid_proof(to_bytes("junk"));
    h.run_ms(300);
  }
  h.run_ms(5'000);

  EXPECT_EQ(h.total_delivered(),
            delivered_before + 5);  // only the attacker's own deliveries
  std::uint64_t forwarded_spam = 0;
  for (std::size_t i = 1; i < h.size(); ++i) {
    forwarded_spam += h.node(i).stats().delivered;
  }
  EXPECT_EQ(forwarded_spam, 0u);
}

TEST(Integration, ManyHonestPublishersAllDeliver) {
  RlnHarness h(small_config(10));
  h.register_all();
  h.run_ms(5'000);

  std::size_t published = 0;
  for (std::size_t i = 0; i < h.size(); ++i) {
    if (h.node(i).try_publish(to_bytes("msg from " + std::to_string(i))) ==
        WakuRlnRelayNode::PublishStatus::kOk) {
      ++published;
    }
  }
  ASSERT_EQ(published, h.size());
  h.run_ms(15'000);
  EXPECT_EQ(h.total_delivered(), h.size() * h.size());
  // No spam was detected among honest traffic.
  for (std::size_t i = 0; i < h.size(); ++i) {
    EXPECT_EQ(h.node(i).validator().stats().spam_detected, 0u);
  }
}

TEST(Integration, SlashingRaceOnlyOneWinnerGetsPaid) {
  // Multiple honest peers detect the same double-signal and all try to
  // slash; commit-reveal guarantees a single reward payment (§III-F).
  RlnHarness h(small_config(12));
  h.register_all();
  h.run_ms(5'000);

  const chain::Gwei contract_before = h.chain().balance(h.contract());
  h.node(0).force_publish(to_bytes("a"));
  h.node(0).force_publish(to_bytes("b"));
  h.run_ms(10 * h.config().block_interval_ms);

  // Exactly one deposit left the contract.
  EXPECT_EQ(h.chain().balance(h.contract()),
            contract_before - h.config().deposit_gwei);
}

TEST(Integration, EpochGapDropsLaggingMessages) {
  // A node whose clock is far behind emits messages with old epochs that
  // validators ignore (§III-F item 1).
  HarnessConfig cfg = small_config(8);
  RlnHarness h(cfg);
  // Skew node 0's clock back by 4 epochs (> Thr = 2).
  h.network().set_clock_skew(h.node(0).node_id(),
                             -static_cast<std::int64_t>(
                                 4 * cfg.node.validator.epoch.epoch_length_ms));
  h.register_all();
  // Run long enough that the skewed clock is well past zero (local_time
  // clamps at zero, which would otherwise compress the gap).
  h.run_ms(40'000);

  h.node(0).try_publish(to_bytes("from the past"));
  h.run_ms(6'000);
  // Only the skewed publisher itself delivered; everyone else ignored it.
  EXPECT_EQ(h.total_delivered(), 1u);
  std::uint64_t gap_drops = 0;
  for (std::size_t i = 1; i < h.size(); ++i) {
    gap_drops += h.node(i).validator().stats().epoch_gap;
  }
  EXPECT_GE(gap_drops, 1u);
}

TEST(Integration, WithdrawalEscapesSlashing) {
  // §IV-B open problem: a spammer who withdraws before being slashed saves
  // the deposit; late slashes fail.
  RlnHarness h(small_config(8));
  h.register_all();
  h.run_ms(3'000);

  WakuRlnRelayNode& sneaky = h.node(0);
  const chain::Gwei balance_before = h.chain().balance(sneaky.account());

  // Withdraw first (the contract pays the deposit back)...
  chain::Transaction tx;
  tx.from = sneaky.account();
  tx.to = h.contract();
  tx.method = "withdraw";
  ByteWriter w;
  w.write_raw(sneaky.identity().sk.to_bytes_be());
  w.write_u64(*sneaky.group().own_index());
  w.write_raw(
      merkle::serialize_path(sneaky.group().path_of(*sneaky.group().own_index())));
  tx.calldata = std::move(w).take();
  h.chain().submit(std::move(tx));
  h.run_ms(2 * h.config().block_interval_ms);

  EXPECT_GT(h.chain().balance(sneaky.account()), balance_before);
  EXPECT_FALSE(sneaky.is_registered());
  // ...then any spam evidence against it can no longer be monetized.
  for (std::size_t i = 1; i < h.size(); ++i) {
    EXPECT_FALSE(h.node(i).group().index_of(sneaky.identity().pk).has_value());
  }
}

TEST(Integration, LightNodesTrackGroupViaPartialView) {
  HarnessConfig cfg = small_config(8);
  cfg.node.tree_mode = TreeMode::kPartialView;
  RlnHarness h(cfg);
  h.register_all();
  h.run_ms(3'000);

  // All partial-view nodes share the same root as a freshly computed full
  // tree would, and can publish valid proofs.
  ASSERT_EQ(h.node(2).try_publish(to_bytes("from a light node")),
            WakuRlnRelayNode::PublishStatus::kOk);
  h.run_ms(8'000);
  EXPECT_EQ(h.total_delivered(), h.size());
}

TEST(Integration, HonestMessageSurvivesABurstBlockOfRegistrations) {
  // The root window holds one root per block. A message proved against
  // the current root must still validate after the next block carries W
  // (a whole window's worth of) registrations: the block pushes one root,
  // so the pre-block root stays in every validator's window.
  RlnHarness h(small_config(6));
  h.register_all();
  h.run_ms(5'000);

  const Fr pre_block_root = h.node(0).group().root();
  const std::uint64_t stale_before = h.total_validation_stats().stale_root;
  ASSERT_EQ(h.node(0).try_publish(to_bytes("proved before the burst")),
            WakuRlnRelayNode::PublishStatus::kOk);

  // Same virtual instant, before any frame lands: one block of W
  // registrations from members with no node behind them.
  const chain::Address whale = chain::Address::from_u64(0xB0057);
  h.chain().create_account(whale, 100 * chain::kGweiPerEth);
  for (std::size_t i = 0; i < GroupManager::kDefaultRootWindow; ++i) {
    chain::Transaction tx;
    tx.from = whale;
    tx.to = h.contract();
    tx.method = "register";
    tx.calldata = Identity::from_secret(Fr::from_u64(0xB00 + i)).pk_bytes();
    tx.value = h.config().deposit_gwei;
    h.chain().submit(std::move(tx));
  }
  h.chain().mine_block(h.sim().now());
  for (std::size_t i = 0; i < h.size(); ++i) {
    ASSERT_EQ(h.node(i).group().member_count(),
              h.size() + GroupManager::kDefaultRootWindow);
    EXPECT_TRUE(h.node(i).group().is_recent_root(pre_block_root))
        << "node " << i;
  }

  h.run_ms(10'000);
  EXPECT_EQ(h.total_validation_stats().stale_root, stale_before);
  EXPECT_EQ(h.total_delivered(), h.size());
}

// -- stale-root verdicts under windowed validation ----------------------------

/// Windowed validation on fixed-latency links: every router starts at time
/// 0, so window flushes (heartbeats) land on whole seconds.
HarnessConfig windowed_config(std::size_t nodes) {
  HarnessConfig cfg = small_config(nodes);
  cfg.node.gossip.validation_batch_max = 4;
  cfg.link = {.base_latency_ms = 40, .jitter_ms = 0};
  return cfg;
}

struct RouterTotals {
  std::uint64_t rejected = 0;
  std::uint64_t ignored = 0;
};

RouterTotals router_totals(RlnHarness& h) {
  RouterTotals t;
  for (std::size_t i = 0; i < h.size(); ++i) {
    t.rejected += h.node(i).relay().stats().rejected;
    t.ignored += h.node(i).relay().stats().ignored;
  }
  return t;
}

/// Mines one block holding a registration of a member with no node
/// behind it: one root-window move on every node.
void mine_registration_block(RlnHarness& h, std::uint64_t salt) {
  const chain::Address whale = chain::Address::from_u64(0xB0057 + salt);
  h.chain().create_account(whale, 100 * chain::kGweiPerEth);
  chain::Transaction tx;
  tx.from = whale;
  tx.to = h.contract();
  tx.method = "register";
  tx.calldata = Identity::from_secret(Fr::from_u64(0xD00 + salt)).pk_bytes();
  tx.value = h.config().deposit_gwei;
  h.chain().submit(std::move(tx));
  h.chain().mine_block(h.sim().now());
}

TEST(Integration, RootStaleOnArrivalIsRejectedUnderWindowedValidation) {
  RlnHarness h(windowed_config(6));
  h.register_all();
  h.run_ms(5'000);

  const net::NodeId sender = h.node(0).node_id();
  const std::size_t neighbors = h.network().neighbors(sender).size();
  const RouterTotals before = router_totals(h);
  h.node(0).publish_with_stale_root(to_bytes("stale on arrival"));
  h.run_ms(1'500);  // arrival, then the next heartbeat flushes the window

  const RouterTotals after = router_totals(h);
  EXPECT_EQ(after.rejected - before.rejected, neighbors);
  EXPECT_EQ(after.ignored, before.ignored);
  for (std::size_t i = 1; i < h.size(); ++i) {
    if (!h.network().connected(h.node(i).node_id(), sender)) continue;
    EXPECT_GT(h.node(i).relay().router().scores().invalid_messages(sender),
              0.0)
        << "node " << i;
  }
}

TEST(Integration, StaleRootFlooderIsGraylistedUnderWindowedValidation) {
  RlnHarness h(windowed_config(6));
  h.register_all();
  h.run_ms(5'000);

  const net::NodeId sender = h.node(0).node_id();
  std::vector<bool> graylisted(h.size(), false);
  for (int k = 0; k < 30; ++k) {
    h.node(0).publish_with_stale_root(to_bytes("flood " + std::to_string(k)));
    h.run_ms(100);
    for (std::size_t i = 1; i < h.size(); ++i) {
      if (h.node(i).relay().router().scores().graylisted(sender)) {
        graylisted[i] = true;
      }
    }
  }
  for (std::size_t i = 1; i < h.size(); ++i) {
    if (!h.network().connected(h.node(i).node_id(), sender)) continue;
    EXPECT_TRUE(graylisted[i]) << "node " << i;
  }
  // Once graylisted, the flooder's frames are dropped before validation.
  EXPECT_LT(h.total_validation_stats().stale_root,
            30 * h.network().neighbors(sender).size());
}

TEST(Integration, RootThatLeavesTheWindowWhileBufferedIsIgnored) {
  RlnHarness h(windowed_config(6));
  h.register_all();
  h.run_ms(5'000);

  // Node 0 proves two messages against the current root R0.
  WakuRlnRelayNode& a = h.node(0);
  const Fr r0 = a.group().root();
  Rng rng(77);
  const auto proved = [&](const std::string& body) {
    WakuMessage msg;
    msg.payload = to_bytes(body);
    msg.content_topic = kDefaultContentTopic;
    attach_proof(msg, make_rate_limit_proof(a.identity().sk,
                                            a.group().own_path(), msg,
                                            a.current_epoch(), rng));
    return msg;
  };
  const WakuMessage buffered = proved("buffered while the window moves");
  const WakuMessage late = proved("sent after the window moved");
  // W-1 root-changing blocks leave R0 the oldest root in every window.
  for (std::size_t b = 0; b + 1 < GroupManager::kDefaultRootWindow; ++b) {
    mine_registration_block(h, b);
  }
  for (std::size_t i = 0; i < h.size(); ++i) {
    ASSERT_TRUE(h.node(i).group().is_recent_root(r0)) << "node " << i;
  }

  // Publish 100 ms into a heartbeat interval: the message arrives and sits
  // in its window, then the W-th block evicts R0 before the flush.
  h.run_ms(1'100 - h.sim().now() % 1'000);
  const std::string topic = a.shard_topic_for(kDefaultContentTopic);
  const net::NodeId sender = a.node_id();
  const std::size_t neighbors = h.network().neighbors(sender).size();
  const RouterTotals before = router_totals(h);
  const std::uint64_t stale_before = h.total_validation_stats().stale_root;
  a.relay().publish_on(topic, buffered);
  h.run_ms(100);
  for (std::size_t i = 1; i < h.size(); ++i) {
    if (!h.network().connected(h.node(i).node_id(), sender)) continue;
    ASSERT_EQ(h.node(i).relay().router().pending_validation_total(), 1u)
        << "node " << i;
  }
  mine_registration_block(h, GroupManager::kDefaultRootWindow);
  ASSERT_FALSE(h.node(1).group().is_recent_root(r0));
  h.run_ms(2'000);

  RouterTotals after = router_totals(h);
  EXPECT_EQ(h.total_validation_stats().stale_root - stale_before, neighbors);
  EXPECT_EQ(after.ignored - before.ignored, neighbors);
  EXPECT_EQ(after.rejected, before.rejected);
  for (std::size_t i = 1; i < h.size(); ++i) {
    EXPECT_EQ(h.node(i).relay().router().scores().invalid_messages(sender),
              0.0)
        << "node " << i;
  }

  // The same root, now stale before the message arrives: rejected, and
  // the sender is scored.
  a.relay().publish_on(topic, late);
  h.run_ms(1'500);
  after = router_totals(h);
  EXPECT_EQ(after.rejected - before.rejected, neighbors);
  for (std::size_t i = 1; i < h.size(); ++i) {
    if (!h.network().connected(h.node(i).node_id(), sender)) continue;
    EXPECT_GT(h.node(i).relay().router().scores().invalid_messages(sender),
              0.0)
        << "node " << i;
  }
}

}  // namespace
}  // namespace waku::rln

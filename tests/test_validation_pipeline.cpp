// Tests for the staged batch-validation pipeline: partition-invariant
// verdicts, batched Groth16 with per-proof fallback isolation, the rolling
// root cache, and epoch-bucket pruning of the sharded nullifier log.
#include <gtest/gtest.h>

#include "gossipsub/router.hpp"
#include "hash/poseidon.hpp"
#include "rln/group_manager.hpp"
#include "rln/harness.hpp"
#include "rln/nullifier_log.hpp"
#include "rln/rate_limit_proof.hpp"
#include "rln/validation_pipeline.hpp"
#include "zksnark/rln_circuit.hpp"

namespace waku::rln {
namespace {

using ff::Fr;
using ff::U256;

constexpr std::size_t kDepth = 8;

/// One arrival time for each of `n` messages.
std::vector<std::uint64_t> arrivals(std::size_t n, std::uint64_t now_ms) {
  return std::vector<std::uint64_t>(n, now_ms);
}

chain::Event registered_event(std::uint64_t index, const Fr& pk) {
  chain::Event ev;
  ev.name = "MemberRegistered";
  ev.topics = {U256{index}, pk.to_u256()};
  return ev;
}

struct PipelineFixture : ::testing::Test {
  GroupManager group{kDepth, TreeMode::kFullTree};
  Rng rng{541};
  Identity alice = Identity::generate(rng);
  Identity bob = Identity::generate(rng);
  ValidatorConfig vcfg{.epoch = EpochConfig{.epoch_length_ms = 1000},
                       .max_epoch_gap = 2};

  void SetUp() override {
    group.on_event(registered_event(0, alice.pk));
    group.on_event(registered_event(1, bob.pk));
  }

  [[nodiscard]] ValidationPipeline make_pipeline(std::uint64_t seed = 7) {
    return ValidationPipeline(zksnark::rln_keypair(kDepth).vk, group, vcfg,
                              seed);
  }

  WakuMessage make_message(const Identity& who, std::uint64_t who_index,
                           const std::string& body, std::uint64_t epoch) {
    WakuMessage msg;
    msg.payload = to_bytes(body);
    attach_proof(msg, make_rate_limit_proof(who.sk, group.path_of(who_index),
                                            msg, epoch, rng));
    return msg;
  }

  WakuMessage corrupt_proof(WakuMessage msg) {
    auto bundle = *extract_proof(msg);
    bundle.proof.binding[0] ^= 1;
    attach_proof(msg, bundle);
    return msg;
  }

  /// A traffic mix that exercises every verdict: honest publishes, a
  /// gossip echo, a double-signal, a corrupted proof, a corrupted echo,
  /// a stale-epoch message, and a proof-less message.
  std::vector<WakuMessage> mixed_traffic() {
    std::vector<WakuMessage> msgs;
    msgs.push_back(make_message(alice, 0, "alice says hi", 10));   // accept
    msgs.push_back(make_message(bob, 1, "bob says hi", 10));       // accept
    msgs.push_back(msgs[0]);                                       // echo
    msgs.push_back(make_message(alice, 0, "alice again", 10));     // spam
    msgs.push_back(corrupt_proof(make_message(bob, 1, "zap", 11)));  // bad
    msgs.push_back(corrupt_proof(msgs[1]));  // replay with mangled proof
    msgs.push_back(make_message(bob, 1, "ancient", 2));  // epoch gap
    WakuMessage bare;
    bare.payload = to_bytes("no proof at all");
    msgs.push_back(bare);                                          // no proof
    msgs.push_back(make_message(bob, 1, "bob epoch 11", 11));      // accept
    return msgs;
  }
};

TEST_F(PipelineFixture, BatchMatchesSequentialOnMixedTraffic) {
  const std::vector<WakuMessage> msgs = mixed_traffic();
  const std::uint64_t now = 10'500;

  // Reference: one pipeline, messages fed one at a time.
  ValidationPipeline sequential = make_pipeline(1);
  std::vector<Verdict> expected;
  for (const WakuMessage& m : msgs) {
    expected.push_back(sequential.validate_one(m, now).verdict);
  }

  // Any partition of the same sequence must yield the same verdicts.
  for (const std::size_t chunk : {msgs.size(), std::size_t{3}, std::size_t{2},
                                  std::size_t{4}}) {
    ValidationPipeline batched = make_pipeline(2 + chunk);
    std::vector<Verdict> got;
    for (std::size_t i = 0; i < msgs.size(); i += chunk) {
      const std::size_t len = std::min(chunk, msgs.size() - i);
      const auto out = batched.validate_batch(
          std::span<const WakuMessage>(msgs.data() + i, len),
          arrivals(len, now));
      for (const auto& o : out) got.push_back(o.verdict);
    }
    EXPECT_EQ(got, expected) << "partition with chunk size " << chunk;
  }

  // Sanity on the reference itself. Note the tampered replay (index 5):
  // same share as the accepted message but different proof bytes — it
  // must be rejected (and penalized), not ignored as an echo.
  EXPECT_EQ(expected,
            (std::vector<Verdict>{
                Verdict::kAccept, Verdict::kAccept, Verdict::kIgnoreDuplicate,
                Verdict::kRejectSpam, Verdict::kRejectBadProof,
                Verdict::kRejectBadProof, Verdict::kIgnoreEpochGap,
                Verdict::kRejectNoProof, Verdict::kAccept}));
}

TEST_F(PipelineFixture, CleanBatchSettlesWithOneAggregatedCheck) {
  std::vector<WakuMessage> msgs;
  for (int e = 10; e < 14; ++e) {
    msgs.push_back(make_message(alice, 0, "a" + std::to_string(e),
                                static_cast<std::uint64_t>(e)));
    msgs.push_back(make_message(bob, 1, "b" + std::to_string(e),
                                static_cast<std::uint64_t>(e)));
  }
  ValidationPipeline pipeline = make_pipeline();
  const auto out =
      pipeline.validate_batch(msgs, arrivals(msgs.size(), 12'000));
  for (const auto& o : out) EXPECT_EQ(o.verdict, Verdict::kAccept);
  const ValidatorStats s = pipeline.stats();
  EXPECT_EQ(s.accepted, msgs.size());
  EXPECT_EQ(s.batch_aggregated, 1u);
  EXPECT_EQ(s.batch_fallbacks, 0u);
}

TEST_F(PipelineFixture, CorruptedProofTriggersFallbackAndIsIsolated) {
  std::vector<WakuMessage> msgs;
  msgs.push_back(make_message(alice, 0, "good alice", 10));
  msgs.push_back(corrupt_proof(make_message(bob, 1, "evil bob", 10)));
  msgs.push_back(make_message(bob, 1, "good bob", 11));

  ValidationPipeline pipeline = make_pipeline();
  const auto out =
      pipeline.validate_batch(msgs, arrivals(msgs.size(), 10'500));
  EXPECT_EQ(out[0].verdict, Verdict::kAccept);
  EXPECT_EQ(out[1].verdict, Verdict::kRejectBadProof);
  EXPECT_EQ(out[2].verdict, Verdict::kAccept);

  // The aggregate check failed, so the batch was isolated per proof; the
  // two honest messages survived the fallback untouched.
  const ValidatorStats s = pipeline.stats();
  EXPECT_EQ(s.batch_fallbacks, 1u);
  EXPECT_EQ(s.batch_aggregated, 0u);
  EXPECT_EQ(s.accepted, 2u);
  EXPECT_EQ(s.bad_proof, 1u);
}

TEST_F(PipelineFixture, DoubleSignalRecoversSecretInBatch) {
  std::vector<WakuMessage> msgs;
  msgs.push_back(make_message(alice, 0, "first", 10));
  msgs.push_back(make_message(alice, 0, "second", 10));
  ValidationPipeline pipeline = make_pipeline();
  const auto out =
      pipeline.validate_batch(msgs, arrivals(msgs.size(), 10'500));
  EXPECT_EQ(out[0].verdict, Verdict::kAccept);
  EXPECT_EQ(out[1].verdict, Verdict::kRejectSpam);
  ASSERT_TRUE(out[1].recovered_sk.has_value());
  EXPECT_EQ(*out[1].recovered_sk, alice.sk);
}

TEST_F(PipelineFixture, EchoShortCircuitsBeforeTheVerifier) {
  ValidationPipeline pipeline = make_pipeline();
  const WakuMessage msg = make_message(alice, 0, "hello", 10);
  EXPECT_EQ(pipeline.validate_one(msg, 10'500).verdict, Verdict::kAccept);
  EXPECT_EQ(pipeline.validate_one(msg, 10'600).verdict,
            Verdict::kIgnoreDuplicate);
  const ValidatorStats s = pipeline.stats();
  EXPECT_EQ(s.precheck_duplicates, 1u);  // never reached the SNARK stage
}

// -- rolling root cache -------------------------------------------------------

TEST_F(PipelineFixture, StaleRootRejectedAfterCacheEviction) {
  // A proof generated now references the current root; after root_window
  // further tree mutations the root rolls out of the cache.
  GroupManager narrow(kDepth, TreeMode::kFullTree, /*root_window=*/2);
  narrow.on_event(registered_event(0, alice.pk));
  ValidationPipeline pipeline(zksnark::rln_keypair(kDepth).vk, narrow, vcfg);

  WakuMessage msg;
  msg.payload = to_bytes("proved against a soon-stale root");
  const RateLimitProof bundle =
      make_rate_limit_proof(alice.sk, narrow.path_of(0), msg, 10, rng);
  attach_proof(msg, bundle);

  EXPECT_TRUE(narrow.is_recent_root(bundle.root));
  // Two more registrations push two fresh roots: window of 2 evicts ours.
  narrow.on_event(registered_event(1, bob.pk));
  EXPECT_TRUE(narrow.is_recent_root(bundle.root));  // still within window
  EXPECT_EQ(pipeline.validate_one(msg, 10'500).verdict, Verdict::kAccept);
  narrow.on_event(
      registered_event(2, hash::poseidon1(Fr::from_u64(0xC0FFEE))));
  EXPECT_FALSE(narrow.is_recent_root(bundle.root));
  const auto outcome = pipeline.validate_one(msg, 10'600);
  // The echo precheck fires only for fresh-root messages; eviction wins.
  EXPECT_EQ(outcome.verdict, Verdict::kRejectStaleRoot);
}

TEST(RootCacheUnit, EvictionIsFifoOverDistinctRoots) {
  GroupManager gm(kDepth, TreeMode::kFullTree, /*root_window=*/3);
  std::vector<Fr> roots{gm.root()};
  for (std::uint64_t i = 0; i < 5; ++i) {
    gm.on_event(registered_event(i, hash::poseidon1(Fr::from_u64(i + 1))));
    roots.push_back(gm.root());
  }
  // Only the last 3 of the 6 roots remain.
  EXPECT_EQ(gm.recent_root_count(), 3u);
  for (std::size_t i = 0; i < roots.size(); ++i) {
    EXPECT_EQ(gm.is_recent_root(roots[i]), i >= 3) << "root " << i;
  }
}

// -- epoch-sharded nullifier log ----------------------------------------------

TEST(NullifierShards, PruneAtThrBoundaryDropsOnlyExpiredBuckets) {
  NullifierLog log;
  const sss::Share s{Fr::from_u64(1), Fr::from_u64(2)};
  for (std::uint64_t e = 100; e < 110; ++e) {
    log.observe(e, Fr::from_u64(e), s);
    log.observe(e, Fr::from_u64(1000 + e), s);
  }
  EXPECT_EQ(log.epoch_count(), 10u);
  EXPECT_EQ(log.entry_count(), 20u);

  // Thr boundary: cutoff = current - thr; the cutoff epoch itself (the
  // oldest epoch still within the gap window) must survive.
  log.gc(/*current_epoch=*/109, /*thr=*/2);
  EXPECT_EQ(log.epoch_count(), 3u);  // 107, 108, 109
  EXPECT_EQ(log.entry_count(), 6u);
  EXPECT_TRUE(log.peek(107, Fr::from_u64(107)).has_value());
  EXPECT_FALSE(log.peek(106, Fr::from_u64(106)).has_value());

  // Idempotent at the same boundary.
  log.gc(109, 2);
  EXPECT_EQ(log.epoch_count(), 3u);

  const NullifierLog::Stats stats = log.stats();
  EXPECT_EQ(stats.entries, 6u);
  EXPECT_EQ(stats.buckets, 3u);
  EXPECT_EQ(stats.conflicts, 0u);
}

TEST(NullifierShards, SparseEpochsPruneWithoutRangeWalk) {
  NullifierLog log;
  const sss::Share s{Fr::from_u64(1), Fr::from_u64(2)};
  // Epochs far apart (e.g. a peer that slept): gc must not walk the gap.
  log.observe(10, Fr::from_u64(1), s);
  log.observe(54'827'003, Fr::from_u64(2), s);
  log.gc(/*current_epoch=*/54'827'004, /*thr=*/2);
  EXPECT_EQ(log.epoch_count(), 1u);
  EXPECT_TRUE(log.peek(54'827'003, Fr::from_u64(2)).has_value());
}

TEST(NullifierShards, SameXDifferentYIsConflictNotDuplicate) {
  NullifierLog log;
  const Fr nullifier = Fr::from_u64(7);
  const sss::Share honest{Fr::from_u64(3), Fr::from_u64(30)};
  const sss::Share equivocation{Fr::from_u64(3), Fr::from_u64(31)};
  EXPECT_EQ(log.observe(5, nullifier, honest).outcome,
            NullifierLog::Outcome::kNew);

  const auto result = log.observe(5, nullifier, equivocation);
  EXPECT_EQ(result.outcome, NullifierLog::Outcome::kConflict);
  // Identical x cannot be interpolated: flagged as unrecoverable so no
  // caller ever feeds it to Shamir (division by x2 - x1 = 0).
  EXPECT_FALSE(result.sk_recoverable);
  ASSERT_TRUE(result.previous_share.has_value());
  EXPECT_EQ(*result.previous_share, honest);
  EXPECT_EQ(log.stats().conflicts, 1u);

  // Distinct x stays recoverable.
  const auto distinct =
      log.observe(5, nullifier, sss::Share{Fr::from_u64(4), Fr::from_u64(9)});
  EXPECT_EQ(distinct.outcome, NullifierLog::Outcome::kConflict);
  EXPECT_TRUE(distinct.sk_recoverable);
}

TEST_F(PipelineFixture, StatsMirrorNullifierLog) {
  ValidationPipeline pipeline = make_pipeline();
  (void)pipeline.validate_one(make_message(alice, 0, "a", 10), 10'500);
  (void)pipeline.validate_one(make_message(bob, 1, "b", 11), 10'600);
  const ValidatorStats s = pipeline.stats();
  EXPECT_EQ(s.log_entries, 2u);
  EXPECT_EQ(s.log_buckets, 2u);
  EXPECT_EQ(s.log_conflicts, 0u);
}

// -- batched Groth16 directly -------------------------------------------------

TEST_F(PipelineFixture, VerifyBatchIsolatesExactlyTheBadProofs) {
  const zksnark::VerifyingKey& vk = zksnark::rln_keypair(kDepth).vk;
  std::vector<zksnark::BatchEntry> entries;
  for (int i = 0; i < 6; ++i) {
    WakuMessage msg =
        make_message(i % 2 == 0 ? alice : bob, i % 2 == 0 ? 0u : 1u,
                     std::string("m").append(std::to_string(i)),
                     10 + static_cast<std::uint64_t>(i));
    const auto bundle = *extract_proof(msg);
    entries.push_back(
        zksnark::BatchEntry{bundle.public_inputs(message_hash(msg)),
                            bundle.proof});
  }
  Rng batch_rng(99);
  auto clean = zksnark::verify_batch(vk, entries, batch_rng);
  EXPECT_TRUE(clean.aggregated);
  for (const bool ok : clean.ok) EXPECT_TRUE(ok);

  entries[2].proof.binding[7] ^= 0x40;
  entries[4].proof.c[0] ^= 0x01;
  auto dirty = zksnark::verify_batch(vk, entries, batch_rng);
  EXPECT_FALSE(dirty.aggregated);
  const std::vector<bool> expected{true, true, false, true, false, true};
  EXPECT_EQ(dirty.ok, expected);
}

TEST_F(PipelineFixture, VerifyBatchCountsThePairingWorkItPrices) {
  const zksnark::VerifyingKey& vk = zksnark::rln_keypair(kDepth).vk;
  std::vector<zksnark::BatchEntry> entries;
  for (int i = 0; i < 5; ++i) {
    WakuMessage msg = make_message(alice, 0, "m" + std::to_string(i),
                                   10 + static_cast<std::uint64_t>(i));
    const auto bundle = *extract_proof(msg);
    entries.push_back(zksnark::BatchEntry{
        bundle.public_inputs(message_hash(msg)), bundle.proof});
  }
  Rng batch_rng(7);
  // A clean window of k: k per-entry loops, the two shared ones, and one
  // final exponentiation.
  const auto clean = zksnark::verify_batch(vk, entries, batch_rng);
  ASSERT_TRUE(clean.aggregated);
  EXPECT_EQ(clean.miller_loops, 5u + 2u);
  EXPECT_EQ(clean.final_exps, 1u);

  // A dirty window pays the failed aggregate, then 3 and 1 per entry.
  entries[3].proof.binding[0] ^= 1;
  const auto dirty = zksnark::verify_batch(vk, entries, batch_rng);
  ASSERT_FALSE(dirty.aggregated);
  EXPECT_EQ(dirty.miller_loops, 5u + 2u + 3u * 5u);
  EXPECT_EQ(dirty.final_exps, 1u + 5u);

  // A batch of one is a single verify.
  const auto single = zksnark::verify_batch(
      vk, std::span<const zksnark::BatchEntry>(entries.data(), 1), batch_rng);
  EXPECT_EQ(single.miller_loops, 3u);
  EXPECT_EQ(single.final_exps, 1u);

  // The pipeline sums what each window's verifier priced.
  std::vector<WakuMessage> msgs;
  msgs.push_back(make_message(alice, 0, "clean a", 10));
  msgs.push_back(make_message(bob, 1, "clean b", 10));
  ValidationPipeline pipeline = make_pipeline();
  (void)pipeline.validate_batch(msgs, arrivals(msgs.size(), 10'500));
  EXPECT_EQ(pipeline.stats().miller_loops, 2u + 2u);
  EXPECT_EQ(pipeline.stats().final_exps, 1u);
  msgs = {make_message(alice, 0, "dirty a", 11),
          corrupt_proof(make_message(bob, 1, "dirty b", 11))};
  (void)pipeline.validate_batch(msgs, arrivals(msgs.size(), 10'500));
  EXPECT_EQ(pipeline.stats().miller_loops, 4u + (2u + 2u + 3u * 2u));
  EXPECT_EQ(pipeline.stats().final_exps, 1u + (1u + 2u));
}

TEST_F(PipelineFixture, BatchRejectsFieldReductionMalleableBinding) {
  // binding' = binding + r (as a 256-bit integer) has the same residue
  // mod r, so an aggregate over field-reduced whole tags would accept it
  // even though per-proof byte comparison rejects it. The half-tag
  // folding must catch this.
  const zksnark::VerifyingKey& vk = zksnark::rln_keypair(kDepth).vk;
  std::vector<zksnark::BatchEntry> entries;
  for (int i = 0; i < 3; ++i) {
    WakuMessage msg = make_message(alice, 0, "m" + std::to_string(i),
                                   10 + static_cast<std::uint64_t>(i));
    const auto bundle = *extract_proof(msg);
    entries.push_back(zksnark::BatchEntry{
        bundle.public_inputs(message_hash(msg)), bundle.proof});
  }
  const ff::U256 as_int = ff::u256_from_bytes_be(
      BytesView(entries[1].proof.binding.data(), 32));
  const Bytes forged = ff::u256_to_bytes_be(as_int + Fr::kModulus);
  std::copy(forged.begin(), forged.end(), entries[1].proof.binding.begin());
  // Same residue, different bytes: single verify must reject it...
  EXPECT_FALSE(
      zksnark::verify(vk, entries[1].public_inputs, entries[1].proof));
  // ...and the batch must agree (no partition-dependent acceptance).
  Rng batch_rng(123);
  const auto out = zksnark::verify_batch(vk, entries, batch_rng);
  EXPECT_FALSE(out.aggregated);
  const std::vector<bool> expected{true, false, true};
  EXPECT_EQ(out.ok, expected);
}

// -- per-peer quarantine through the router -----------------------------------

TEST_F(PipelineFixture, QuarantinedSenderIsValidatedApartFromHonestWindows) {
  // Receiver R batches windows of up to 4 through a real pipeline; P (bob)
  // and H (alice) publish to it directly. Every router starts at time 0,
  // so heartbeats (and window flushes) land on whole seconds.
  constexpr const char* kTopic = "quarantine";
  net::Simulator sim;
  net::Network network(sim, {.base_latency_ms = 20, .jitter_ms = 0}, 5);
  gossipsub::GossipSubConfig windowed;
  windowed.validation_batch_max = 4;
  gossipsub::GossipSubRouter r(network, windowed);
  gossipsub::GossipSubRouter p(network);
  gossipsub::GossipSubRouter h(network);
  network.connect(r.node_id(), p.node_id());
  network.connect(r.node_id(), h.node_id());

  ValidationPipeline pipeline = make_pipeline();
  struct Window {
    std::vector<net::NodeId> from;
    std::uint64_t aggregated = 0;
    std::uint64_t fallbacks = 0;
  };
  std::vector<Window> windows;
  r.set_batch_validator(
      kTopic, [&](std::span<const gossipsub::IncomingMessage> batch) {
        std::vector<WakuMessage> msgs;
        std::vector<std::uint64_t> at;
        Window w;
        for (const gossipsub::IncomingMessage& in : batch) {
          msgs.push_back(WakuMessage::deserialize(in.msg.data));
          at.push_back(in.received_at);
          w.from.push_back(in.from);
        }
        const ValidatorStats before = pipeline.stats();
        std::vector<gossipsub::ValidationResult> results;
        for (const ValidationOutcome& o : pipeline.validate_batch(msgs, at)) {
          using gossipsub::ValidationResult;
          const bool ignore = o.verdict == Verdict::kIgnoreDuplicate ||
                              o.verdict == Verdict::kIgnoreEpochGap;
          results.push_back(o.verdict == Verdict::kAccept
                                ? ValidationResult::kAccept
                            : ignore ? ValidationResult::kIgnore
                                     : ValidationResult::kReject);
        }
        const ValidatorStats after = pipeline.stats();
        w.aggregated = after.batch_aggregated - before.batch_aggregated;
        w.fallbacks = after.batch_fallbacks - before.batch_fallbacks;
        windows.push_back(std::move(w));
        return results;
      });
  for (gossipsub::GossipSubRouter* router : {&r, &p, &h}) {
    router->subscribe(kTopic, [](const gossipsub::PubSubMessage&) {});
    router->start();
  }
  const auto publish = [&](gossipsub::GossipSubRouter& from,
                           const WakuMessage& msg) {
    from.publish(kTopic, msg.serialize());
  };
  const auto epoch_now = [&] { return sim.now() / 1000; };
  sim.run_until(5'100);

  // One invalid publish from P: it arrives with a clean record, joins a
  // window, and the reject scores P.
  publish(p, corrupt_proof(make_message(bob, 1, "first bad", epoch_now())));
  sim.run_until(6'100);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_GT(r.scores().invalid_messages(p.node_id()), 0.0);

  // P's next publishes are windows of one; H's concurrent publishes share
  // one window, which settles by one aggregate.
  windows.clear();
  const std::uint64_t e = epoch_now();
  publish(p, corrupt_proof(make_message(bob, 1, "second bad", e)));
  for (const std::uint64_t epoch : {e - 1, e, e + 1}) {
    publish(h, make_message(alice, 0, "honest " + std::to_string(epoch),
                            epoch));
  }
  publish(p, make_message(bob, 1, "quarantined but valid", e + 1));
  sim.run_until(7'100);
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(windows[0].from, std::vector<net::NodeId>{p.node_id()});
  EXPECT_EQ(windows[1].from, std::vector<net::NodeId>{p.node_id()});
  EXPECT_EQ(windows[2].from, std::vector<net::NodeId>(3, h.node_id()));
  EXPECT_EQ(windows[1].aggregated, 1u);  // a valid window of one
  EXPECT_EQ(windows[2].aggregated, 1u);
  EXPECT_EQ(windows[2].fallbacks, 0u);
  EXPECT_FALSE(r.scores().graylisted(p.node_id()));

  // The P4 counter decays on the heartbeat; at zero, P's publishes join
  // windows again.
  sim.run_until(80'100);
  ASSERT_EQ(r.scores().invalid_messages(p.node_id()), 0.0);
  windows.clear();
  publish(p, make_message(bob, 1, "back in the window", epoch_now()));
  publish(h, make_message(alice, 0, "alongside", epoch_now()));
  sim.run_until(81'100);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].from,
            (std::vector<net::NodeId>{p.node_id(), h.node_id()}));
  EXPECT_EQ(windows[0].aggregated, 1u);
}

// -- end to end through the gossip mesh ---------------------------------------

TEST(PipelineEndToEnd, BatchedValidationDeliversAcrossTheMesh) {
  HarnessConfig cfg;
  cfg.num_nodes = 6;
  cfg.degree = 3;
  cfg.node.tree_depth = 12;
  cfg.node.validator.epoch.epoch_length_ms = 10'000;
  // Windows of up to 4 messages per validation flush: the relay path now
  // runs through the batch pipeline, not per-message validation.
  cfg.node.gossip.validation_batch_max = 4;
  RlnHarness h(cfg);
  h.register_all();

  h.node(0).try_publish(to_bytes("batched hello"));
  h.run_ms(15'000);

  EXPECT_EQ(h.total_delivered(), cfg.num_nodes);
  const ValidatorStats s = h.total_validation_stats();
  EXPECT_EQ(s.accepted, cfg.num_nodes - 1);  // every peer but the publisher
  EXPECT_EQ(s.bad_proof + s.spam_detected + s.no_proof + s.stale_root, 0u);
  EXPECT_GT(s.batches, 0u);
}

}  // namespace
}  // namespace waku::rln

// Concurrency correctness of the multithreaded validation executor and the
// shared stages it makes thread-safe:
//
//   * NullifierLog — exactly-one-signal under concurrent observes
//     (one kNew winner, no lost double-signal, no spurious conflict), and
//     structural invariants under an observe/gc race;
//   * GroupManager root window — lock-free version polling plus locked
//     window reads racing the event-stream writer, and the pipelines'
//     lane-side root-window mirrors racing a block writer;
//   * ValidationExecutor — per-shard completion ordering, kReject
//     backpressure accounting, drain();
//   * partition invariance — deterministic mode and parallel mode produce
//     identical per-message verdicts on identical inputs (deterministic
//     mode IS the pre-executor pipeline, so this pins parallel execution
//     to the original semantics);
//   * the per-depth circuit cache — concurrent first use builds one
//     constraint system and keypair that every prover then shares.
//
// These binaries are what the TSan CI flavor runs (scripts/run_tier1.sh
// thread).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "hash/poseidon.hpp"
#include "merkle/merkle_tree.hpp"
#include "rln/rate_limit_proof.hpp"
#include "rln/validation_executor.hpp"
#include "shard/sharded_validator.hpp"
#include "zksnark/rln_circuit.hpp"

namespace waku::rln {
namespace {

using ff::Fr;

constexpr std::size_t kDepth = 16;

// -- Nullifier log under concurrent observers ---------------------------------

TEST(ConcurrentNullifierLog, ConcurrentSameShareObservesYieldOneNewNoConflict) {
  // T threads race observe() with the IDENTICAL share: exactly one must
  // win kNew, everyone else must see kDuplicate, and no spurious conflict
  // (= no spurious slash) may appear.
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kNullifiers = 64;
  NullifierLog log;
  std::atomic<std::uint64_t> news{0};
  std::atomic<std::uint64_t> dups{0};
  std::atomic<std::uint64_t> conflicts{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, &news, &dups, &conflicts] {
      for (std::size_t n = 0; n < kNullifiers; ++n) {
        const Fr nullifier = Fr::from_u64(1000 + n);
        sss::Share share{Fr::from_u64(7), Fr::from_u64(n + 1)};
        const auto result =
            log.observe(/*epoch=*/n % 5, nullifier, share, /*proof_fp=*/n);
        switch (result.outcome) {
          case NullifierLog::Outcome::kNew: ++news; break;
          case NullifierLog::Outcome::kDuplicate: ++dups; break;
          case NullifierLog::Outcome::kConflict: ++conflicts; break;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(news.load(), kNullifiers);  // exactly one winner each
  EXPECT_EQ(dups.load(), (kThreads - 1) * kNullifiers);
  EXPECT_EQ(conflicts.load(), 0u);  // identical share: never a slash
  EXPECT_EQ(log.stats().conflicts, 0u);
  EXPECT_EQ(log.entry_count(), kNullifiers);
}

TEST(ConcurrentNullifierLog, ConcurrentConflictingObservesNeverLoseTheSignal) {
  // T threads race observe() with per-thread DISTINCT shares: one kNew
  // winner, and every loser must be told kConflict with a usable previous
  // share — a double-signal must never be masked as a duplicate.
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kNullifiers = 64;
  NullifierLog log;
  std::atomic<std::uint64_t> news{0};
  std::atomic<std::uint64_t> dups{0};
  std::atomic<std::uint64_t> conflicts{0};
  std::atomic<std::uint64_t> recoverable{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, &news, &dups, &conflicts, &recoverable, t] {
      for (std::size_t n = 0; n < kNullifiers; ++n) {
        const Fr nullifier = Fr::from_u64(5000 + n);
        // Distinct x per thread: every conflicting pair is interpolable.
        sss::Share share{Fr::from_u64(100 + t), Fr::from_u64(200 + t)};
        const auto result = log.observe(/*epoch=*/n % 3, nullifier, share);
        switch (result.outcome) {
          case NullifierLog::Outcome::kNew: ++news; break;
          case NullifierLog::Outcome::kDuplicate: ++dups; break;
          case NullifierLog::Outcome::kConflict:
            ++conflicts;
            EXPECT_TRUE(result.previous_share.has_value());
            if (result.sk_recoverable) ++recoverable;
            break;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(news.load(), kNullifiers);
  EXPECT_EQ(dups.load(), 0u);  // distinct shares are never duplicates
  EXPECT_EQ(conflicts.load(), (kThreads - 1) * kNullifiers);
  EXPECT_EQ(recoverable.load(), conflicts.load());  // all distinct-x pairs
  EXPECT_EQ(log.stats().conflicts, conflicts.load());
}

TEST(ConcurrentNullifierLog, ObserveGcRaceKeepsStructuralInvariants) {
  // Writers spray observes across a moving epoch range while a GC thread
  // advances the watermark. The contract: no crash/race (TSan), counters
  // consistent with bucket contents, and after a final quiescent gc no
  // bucket sits below the watermark.
  constexpr std::size_t kWriters = 4;
  constexpr std::uint64_t kEpochSpan = 200;
  constexpr std::uint64_t kThr = 8;
  NullifierLog log;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < kWriters; ++t) {
    writers.emplace_back([&log, t] {
      for (std::uint64_t e = 0; e < kEpochSpan; ++e) {
        const Fr nullifier = Fr::from_u64(t * kEpochSpan + e);
        sss::Share share{Fr::from_u64(e + 1), Fr::from_u64(t + 1)};
        (void)log.observe(e, nullifier, share);
      }
    });
  }
  std::thread gc([&log, &stop] {
    std::uint64_t now = 0;
    while (!stop.load(std::memory_order_acquire)) {
      log.gc(now, kThr);
      now += 3;
    }
  });
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  gc.join();

  // Quiescent: one more gc expires every epoch the writers touched (an
  // observe below the watermark lowers it under the same lock, so no
  // bucket ever outlives a sweep), then everything must agree.
  log.gc(kEpochSpan + kThr, kThr);
  const auto sizes = log.bucket_sizes();
  std::size_t total = 0;
  for (const auto& [epoch, count] : sizes) {
    EXPECT_GE(epoch, log.stats().min_epoch);
    total += count;
  }
  EXPECT_EQ(total, log.entry_count());
  EXPECT_EQ(sizes.size(), log.epoch_count());
  EXPECT_EQ(log.stats().min_epoch, kEpochSpan);
}

TEST(ConcurrentNullifierLog, SerializeRestoreRoundTripsAfterConcurrentFill) {
  constexpr std::size_t kThreads = 4;
  NullifierLog log;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      for (std::uint64_t n = 0; n < 50; ++n) {
        sss::Share share{Fr::from_u64(t + 1), Fr::from_u64(n + 1)};
        (void)log.observe(n % 7, Fr::from_u64(t * 1000 + n), share, n);
      }
    });
  }
  for (auto& t : threads) t.join();
  const Bytes bytes = log.serialize();
  NullifierLog restored;
  restored.restore(bytes);
  EXPECT_EQ(restored.serialize(), bytes);
  EXPECT_EQ(restored.entry_count(), log.entry_count());
  EXPECT_EQ(restored.bucket_sizes(), log.bucket_sizes());
  EXPECT_EQ(restored.stats().min_epoch, log.stats().min_epoch);
}

// -- GroupManager root window -------------------------------------------------

TEST(GroupManagerConcurrency, ReadersRaceTheEventStreamWriter) {
  // One writer feeds registration events (window pushes under the write
  // lock); readers poll the version lock-free and probe roots they saw
  // earlier. Any root recorded by the reader must satisfy is_recent_root
  // until more than root_window events later — we only assert the weaker
  // liveness/consistency properties that hold under arbitrary
  // interleavings, plus TSan cleanliness.
  constexpr std::size_t kEvents = 300;
  constexpr std::size_t kReaders = 3;
  GroupManager group(kDepth, TreeMode::kFullTree, /*root_window=*/10);
  Rng rng(0xC0C0);
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&group, &stop] {
      std::uint64_t last_version = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const std::uint64_t version = group.root_version();
        EXPECT_GE(version, last_version);  // monotone, lock-free read
        last_version = version;
        const std::vector<Fr> window = group.recent_roots();
        EXPECT_LE(window.size(), 10u);
        // The writer may push between these two reads; the window only
        // grows here, so the live count can exceed our copy, never trail.
        EXPECT_GE(group.recent_root_count(), window.size());
        if (!window.empty()) {
          // The newest root of the copy we took may already be evicted,
          // but probing must be race-free and never report an impossible
          // window (is_recent_root is allowed to say false here).
          (void)group.is_recent_root(window.back());
        }
      }
    });
  }
  for (std::size_t i = 0; i < kEvents; ++i) {
    const Identity member = Identity::generate(rng);
    chain::Event ev;
    ev.name = "MemberRegistered";
    ev.topics = {ff::U256{i}, member.pk.to_u256()};
    group.on_event(ev);
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_TRUE(group.is_recent_root(group.root()));
  EXPECT_EQ(group.member_count(), kEvents);
}

TEST(GroupManagerConcurrency, ReadersRaceABlockWriter) {
  // The writer applies multi-event blocks: each block's registrations go
  // in as one batched insert and the window changes once per block, while
  // readers probe. Readers never see the version move more than once per
  // block or a window over W roots; the writer sees exactly one version
  // bump per commit.
  static constexpr std::size_t kBlocks = 60;
  static constexpr std::size_t kPerBlock = 7;
  static constexpr std::size_t kWindow = 10;
  static constexpr std::size_t kReaders = 3;
  GroupManager group(kDepth, TreeMode::kFullTree, kWindow);
  Rng rng(0xB10C);
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&group, &stop] {
      std::uint64_t last_version = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const std::uint64_t version = group.root_version();
        EXPECT_GE(version, last_version);
        last_version = version;
        const std::vector<Fr> window = group.recent_roots();
        EXPECT_LE(window.size(), kWindow);
        EXPECT_GE(group.recent_root_count(), window.size());
        // One push per block: the version moves at most once per block,
        // plus the constructor's initial root.
        EXPECT_LE(version, kBlocks + 1);
        if (!window.empty()) (void)group.is_recent_root(window.front());
      }
    });
  }
  std::uint64_t index = 0;
  for (std::size_t b = 0; b < kBlocks; ++b) {
    std::vector<chain::Event> block;
    for (std::size_t k = 0; k < kPerBlock; ++k) {
      chain::Event ev;
      ev.name = "MemberRegistered";
      ev.topics = {ff::U256{index++}, Identity::generate(rng).pk.to_u256()};
      block.push_back(std::move(ev));
    }
    const std::uint64_t before = group.root_version();
    group.apply(block);
    group.commit_block();
    EXPECT_EQ(group.root_version(), before + 1);
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_TRUE(group.is_recent_root(group.root()));
  EXPECT_EQ(group.member_count(), kBlocks * kPerBlock);
  EXPECT_EQ(group.recent_root_count(), kWindow);
}

TEST(GroupManagerConcurrency, PipelineMirrorsRaceABlockWriter) {
  // Parallel-mode validator lanes check honest proofs made against root R0
  // while the test thread commits registration blocks. Each pipeline's
  // root-window mirror is read and refreshed on its own lane only, racing
  // the writer's window pushes; fewer than W blocks land, so R0 stays in
  // the window and every proof must still be accepted.
  static constexpr std::size_t kWindow = 10;
  static constexpr std::size_t kMembers = 3;
  static constexpr std::size_t kEpochs = 4;
  static constexpr std::size_t kBlocks = kWindow - 4;  // < W: R0 survives
  static constexpr std::size_t kPerBlock = 5;
  static constexpr std::uint16_t kShards = 3;
  constexpr std::uint64_t kEpochMs = 10'000;
  GroupManager group(kDepth, TreeMode::kFullTree, kWindow);
  Rng rng(0x5EE0);
  std::vector<Identity> members;
  std::vector<chain::Event> genesis;
  for (std::size_t i = 0; i < kMembers; ++i) {
    members.push_back(Identity::generate(rng));
    chain::Event ev;
    ev.name = "MemberRegistered";
    ev.topics = {ff::U256{i}, members.back().pk.to_u256()};
    genesis.push_back(std::move(ev));
  }
  group.apply(genesis);
  group.commit_block();  // R0

  // One window per epoch, one signal per member: every message is a
  // first signal on each shard's own log, stamped with its epoch's time.
  std::vector<std::vector<WakuMessage>> windows(kEpochs);
  std::vector<std::vector<std::uint64_t>> arrivals(kEpochs);
  for (std::size_t e = 0; e < kEpochs; ++e) {
    const std::uint64_t epoch = 100 + e;
    for (std::size_t m = 0; m < kMembers; ++m) {
      WakuMessage msg;
      msg.payload = to_bytes("honest " + std::to_string(e) + "/" +
                             std::to_string(m));
      attach_proof(msg, make_rate_limit_proof(members[m].sk,
                                              group.path_of(m), msg, epoch,
                                              rng));
      windows[e].push_back(std::move(msg));
      arrivals[e].push_back(epoch * kEpochMs + 500);
    }
  }

  shard::ShardConfig scfg;
  scfg.num_shards = kShards;
  shard::ShardedValidator validator(
      zksnark::rln_keypair(kDepth).vk, group,
      ValidatorConfig{.epoch = EpochConfig{.epoch_length_ms = kEpochMs},
                      .max_epoch_gap = 2},
      scfg, 0x3A7E);
  ParallelismConfig pcfg;
  pcfg.deterministic = false;
  pcfg.workers = kShards;
  validator.set_parallelism(pcfg);

  // Windows go out between block commits, so the lanes verify while the
  // window moves under them.
  std::mutex mu;
  std::vector<Verdict> verdicts;
  std::uint64_t index = kMembers;
  for (std::size_t b = 0; b < kBlocks; ++b) {
    for (shard::ShardId s = 0; b < kEpochs && s < kShards; ++s) {
      ASSERT_TRUE(validator.submit(
          s, windows[b], arrivals[b],
          [&mu, &verdicts](std::vector<ValidationOutcome> outcomes) {
            std::lock_guard lk(mu);
            for (const auto& o : outcomes) verdicts.push_back(o.verdict);
          }));
    }
    std::vector<chain::Event> block;
    for (std::size_t k = 0; k < kPerBlock; ++k) {
      chain::Event ev;
      ev.name = "MemberRegistered";
      ev.topics = {ff::U256{index++}, Identity::generate(rng).pk.to_u256()};
      block.push_back(std::move(ev));
    }
    group.apply(block);
    group.commit_block();
  }
  validator.drain();

  ASSERT_EQ(verdicts.size(), kEpochs * kShards * kMembers);
  for (const Verdict v : verdicts) EXPECT_EQ(v, Verdict::kAccept);
  for (shard::ShardId s = 0; s < kShards; ++s) {
    const RootCacheStats& stats = validator.pipeline(s).root_cache_stats();
    EXPECT_GE(stats.refreshes, 1u) << "shard " << s;
    EXPECT_EQ(stats.misses, 0u) << "shard " << s;
  }
}

// -- Executor ordering and backpressure ---------------------------------------

struct ExecutorFixture : ::testing::Test {
  GroupManager group{kDepth, TreeMode::kFullTree};
  ValidatorConfig vcfg{.epoch = EpochConfig{.epoch_length_ms = 10'000},
                       .max_epoch_gap = 2};
  ValidationPipeline pipeline{zksnark::rln_keypair(kDepth).vk, group, vcfg,
                              0xD0};
  // Proof-less messages: settled by the cheap no-proof stage, so executor
  // mechanics are testable without SNARK latency.
  std::vector<WakuMessage> messages = [] {
    std::vector<WakuMessage> msgs(1);
    msgs[0].payload = to_bytes("no proof attached");
    return msgs;
  }();
  std::uint64_t now_ms = 100 * 10'000 + 500;

  /// One arrival time per message, all `now_ms`.
  std::vector<std::uint64_t> arrivals() const {
    return std::vector<std::uint64_t>(messages.size(), now_ms);
  }
};

TEST_F(ExecutorFixture, CompletionsFireInSubmissionOrderPerShard) {
  ParallelismConfig pcfg;
  pcfg.deterministic = false;
  pcfg.workers = 2;
  ValidationExecutor executor(pcfg);
  constexpr std::size_t kWindows = 64;
  std::mutex mu;
  std::vector<std::size_t> completed;  // indices in completion order
  for (std::size_t i = 0; i < kWindows; ++i) {
    const bool ok = executor.submit(
        /*shard=*/0, pipeline, messages, arrivals(),
        [&mu, &completed, i](std::vector<ValidationOutcome> outcomes) {
          ASSERT_EQ(outcomes.size(), 1u);
          EXPECT_EQ(outcomes[0].verdict, Verdict::kRejectNoProof);
          std::lock_guard lk(mu);
          completed.push_back(i);
        });
    EXPECT_TRUE(ok);
  }
  executor.drain();
  ASSERT_EQ(completed.size(), kWindows);
  for (std::size_t i = 0; i < kWindows; ++i) EXPECT_EQ(completed[i], i);
  const ExecutorStats stats = executor.stats();
  EXPECT_EQ(stats.submitted, kWindows);
  EXPECT_EQ(stats.executed, kWindows);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.workers, 2u);
}

TEST_F(ExecutorFixture, RejectBackpressureRefusesOverflowDeterministically) {
  ParallelismConfig pcfg;
  pcfg.deterministic = false;
  pcfg.workers = 1;
  pcfg.queue_depth = 1;
  pcfg.backpressure = ParallelismConfig::Backpressure::kReject;
  ValidationExecutor executor(pcfg);

  // Gate the single worker inside window A's completion so the lane state
  // is deterministic: A running (depth 0), then B queued (depth 1 = full),
  // then C must be refused.
  std::mutex mu;
  std::condition_variable cv;
  bool a_started = false;
  bool release_a = false;
  ASSERT_TRUE(executor.submit(
      0, pipeline, messages, arrivals(),
      [&](std::vector<ValidationOutcome>) {
        std::unique_lock lk(mu);
        a_started = true;
        cv.notify_all();
        cv.wait(lk, [&] { return release_a; });
      }));
  {
    std::unique_lock lk(mu);
    cv.wait(lk, [&] { return a_started; });
  }
  ASSERT_TRUE(executor.submit(0, pipeline, messages, arrivals(),
                              [](std::vector<ValidationOutcome>) {}));
  EXPECT_FALSE(executor.submit(0, pipeline, messages, arrivals(),
                               [](std::vector<ValidationOutcome>) {
                                 FAIL() << "rejected window must not run";
                               }));
  {
    std::lock_guard lk(mu);
    release_a = true;
  }
  cv.notify_all();
  executor.drain();
  const ExecutorStats stats = executor.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.executed, 2u);
  EXPECT_EQ(stats.rejected, 1u);
}

TEST_F(ExecutorFixture, DeterministicModeRunsInlineWithoutThreads) {
  ValidationExecutor executor(ParallelismConfig{});
  EXPECT_EQ(executor.worker_count(), 0u);
  std::thread::id completion_thread;
  ASSERT_TRUE(executor.submit(
      0, pipeline, messages, arrivals(),
      [&completion_thread](std::vector<ValidationOutcome>) {
        completion_thread = std::this_thread::get_id();
      }));
  EXPECT_EQ(completion_thread, std::this_thread::get_id());
  const auto outcomes = executor.validate(0, pipeline, messages, arrivals());
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].verdict, Verdict::kRejectNoProof);
}

// -- Partition invariance: deterministic vs parallel --------------------------

struct ProvenWorkload {
  GroupManager group{kDepth, TreeMode::kFullTree};
  ValidatorConfig vcfg{.epoch = EpochConfig{.epoch_length_ms = 10'000},
                       .max_epoch_gap = 2};
  std::vector<WakuMessage> messages;
  std::uint64_t now_ms = 100 * 10'000 + 500;

  ProvenWorkload() {
    Rng rng(0xFACE);
    std::vector<Identity> members;
    constexpr std::size_t kMembers = 6;
    for (std::size_t i = 0; i < kMembers; ++i) {
      members.push_back(Identity::generate(rng));
      chain::Event ev;
      ev.name = "MemberRegistered";
      ev.topics = {ff::U256{i}, members.back().pk.to_u256()};
      group.on_event(ev);
    }
    const auto prove = [&](std::size_t member, const std::string& body) {
      WakuMessage msg;
      msg.payload = to_bytes(body);
      attach_proof(msg, make_rate_limit_proof(members[member].sk,
                                              group.path_of(member), msg, 100,
                                              rng));
      return msg;
    };
    // A mixed window: honest messages, a gossip echo (same message twice),
    // a double-signal (same member, different payload, same epoch), and a
    // proof-less message — every verdict class the cheap stages and the
    // verifier can produce on fresh logs.
    for (std::size_t i = 0; i < 4; ++i) {
      messages.push_back(prove(i, "honest " + std::to_string(i)));
    }
    messages.push_back(messages[0]);           // echo -> duplicate
    messages.push_back(prove(1, "equivocation"));  // double-signal -> spam
    WakuMessage bare;
    bare.payload = to_bytes("no proof");
    messages.push_back(bare);                  // -> reject no-proof
  }
};

std::vector<Verdict> run_validator(const ProvenWorkload& wl,
                                   const ParallelismConfig& pcfg,
                                   std::size_t window) {
  shard::ShardConfig scfg;
  scfg.num_shards = 4;
  shard::ShardedValidator validator(zksnark::rln_keypair(kDepth).vk, wl.group,
                                    wl.vcfg, scfg, 0x5EED);
  validator.set_parallelism(pcfg);
  std::vector<Verdict> verdicts;
  for (std::uint16_t shard = 0; shard < 4; ++shard) {
    for (std::size_t i = 0; i < wl.messages.size(); i += window) {
      const std::size_t len = std::min(window, wl.messages.size() - i);
      const std::vector<std::uint64_t> arrivals(len, wl.now_ms);
      const auto outcomes = validator.validate_batch(
          shard,
          std::span<const WakuMessage>(wl.messages.data() + i, len),
          arrivals);
      for (const auto& o : outcomes) verdicts.push_back(o.verdict);
    }
  }
  return verdicts;
}

TEST(PartitionInvariance, ParallelVerdictsMatchDeterministicOnAllPartitions) {
  const ProvenWorkload wl;

  const std::vector<Verdict> expected =
      run_validator(wl, ParallelismConfig{}, wl.messages.size());
  // Sanity: the workload exercises the interesting verdict classes.
  EXPECT_NE(std::count(expected.begin(), expected.end(), Verdict::kAccept), 0);
  EXPECT_NE(std::count(expected.begin(), expected.end(),
                       Verdict::kIgnoreDuplicate), 0);
  EXPECT_NE(std::count(expected.begin(), expected.end(), Verdict::kRejectSpam),
            0);
  EXPECT_NE(std::count(expected.begin(), expected.end(),
                       Verdict::kRejectNoProof), 0);

  for (const std::size_t window : {std::size_t{1}, std::size_t{3},
                                   wl.messages.size()}) {
    // Deterministic mode at any partition: verdicts are batch-invariant.
    EXPECT_EQ(run_validator(wl, ParallelismConfig{}, window), expected)
        << "deterministic, window " << window;
    // Parallel mode must be indistinguishable from deterministic mode.
    ParallelismConfig pcfg;
    pcfg.deterministic = false;
    pcfg.workers = 4;
    EXPECT_EQ(run_validator(wl, pcfg, window), expected)
        << "parallel, window " << window;
  }
}

TEST(PartitionInvariance, ConcurrentShardsSignalSpamExactlyOncePerShard) {
  // All four shards validate the same equivocating pair concurrently: the
  // double-signal must surface EXACTLY once per shard (per-shard logs are
  // independent rate-limit domains) — never lost, never doubled.
  const ProvenWorkload wl;
  ParallelismConfig pcfg;
  pcfg.deterministic = false;
  pcfg.workers = 4;
  shard::ShardConfig scfg;
  scfg.num_shards = 4;
  shard::ShardedValidator validator(zksnark::rln_keypair(kDepth).vk, wl.group,
                                    wl.vcfg, scfg, 0x5EED);
  validator.set_parallelism(pcfg);
  std::atomic<std::uint64_t> spam{0};
  for (std::uint16_t shard = 0; shard < 4; ++shard) {
    // Window per message so the equivocation is settled by the nullifier
    // precheck/observe stages across windows, not inside one batch.
    for (const WakuMessage& msg : wl.messages) {
      validator.submit(shard, std::span<const WakuMessage>(&msg, 1),
                       wl.now_ms,
                       [&spam](std::vector<ValidationOutcome> outcomes) {
                         for (const auto& o : outcomes) {
                           if (o.verdict == Verdict::kRejectSpam) {
                             spam.fetch_add(1, std::memory_order_relaxed);
                           }
                         }
                       });
    }
  }
  validator.drain();
  EXPECT_EQ(spam.load(), 4u);  // one double-signal per shard, exactly
  EXPECT_EQ(validator.stats().spam_detected, 4u);
}

// -- Per-depth circuit cache --------------------------------------------------

TEST(CircuitCache, ConcurrentFirstUseProvesLikeOneThread) {
  // Depth 5 is used by no other case in this binary, so the four provers
  // race to build its constraint system and keypair. Every proof must
  // verify and equal the single-threaded proof from the same seed.
  constexpr std::size_t kRaceDepth = 5;
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kEpoch = 42;
  merkle::IncrementalMerkleTree tree(kRaceDepth);
  const Fr sk = Fr::from_u64(0xC0FFEE);
  tree.insert(Fr::from_u64(1));
  const merkle::MerklePath path =
      tree.auth_path(tree.insert(hash::poseidon1(sk)));
  WakuMessage msg;
  msg.payload = to_bytes("first use of a depth");
  const auto prove = [&](std::uint64_t seed) {
    Rng rng(seed);
    return make_rate_limit_proof(sk, path, msg, kEpoch, rng);
  };

  std::vector<RateLimitProof> raced(kThreads);
  {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&raced, &prove, t] { raced[t] = prove(t + 1); });
    }
    for (auto& t : threads) t.join();
  }
  const zksnark::VerifyingKey& vk = zksnark::rln_keypair(kRaceDepth).vk;
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(zksnark::verify(vk, raced[t].public_inputs(message_hash(msg)),
                                raced[t].proof))
        << "thread " << t;
    EXPECT_EQ(raced[t], prove(t + 1)) << "thread " << t;
  }
}

}  // namespace
}  // namespace waku::rln

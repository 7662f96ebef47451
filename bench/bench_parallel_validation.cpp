// Real-core scaling of the multithreaded validation executor.
//
// Drives 8 shards' batch windows through a ShardedValidator at 1/2/4/8
// worker threads and compares aggregate msgs/sec against the deterministic
// single-thread baseline (the exact pre-executor code path). Every shard
// validates the same proved message set — per-shard nullifier logs are
// independent, so each shard performs the full Groth16 batch-verify work
// and N proofs buy 8N messages of load.
//
// Raw speedup is machine-bound (a 1-core CI runner cannot scale), so the
// regression-gated metric is parallel_efficiency =
// speedup / min(workers, hardware_threads): ~1.0 wherever the pool is
// healthy, independent of the runner's core count. hardware_threads is
// recorded so cross-machine trajectories stay interpretable.
//
// Also benches the ShardMap topic->shard memo on a deep split lineage
// (satellite of the same PR): warm lookups must be amortized O(1) — one
// hash probe, no keccak walk — which is asserted via the memo's hit
// counters plus a generous warm-vs-flat-map latency bound.
//
// Standalone binary: emits BENCH_parallel_validation.json (or argv[1]).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "rln/rate_limit_proof.hpp"
#include "shard/sharded_validator.hpp"
#include "zksnark/rln_circuit.hpp"

namespace {

using namespace waku;       // NOLINT
using namespace waku::rln;  // NOLINT
using benchutil::smoke_mode;

constexpr std::size_t kDepth = 16;
constexpr std::uint16_t kShards = 8;
constexpr std::size_t kWindow = 16;
const std::size_t kMessages = smoke_mode() ? 32 : 128;
const int kRepetitions = smoke_mode() ? 1 : 3;

struct Workload {
  GroupManager group{kDepth, TreeMode::kFullTree};
  ValidatorConfig vcfg{.epoch = EpochConfig{.epoch_length_ms = 10'000},
                       .max_epoch_gap = 2};
  std::vector<WakuMessage> messages;
  std::uint64_t now_ms = 100 * 10'000 + 500;  // epoch 100

  Workload() {
    Rng rng(0x9A11);
    std::vector<Identity> members;
    for (std::size_t i = 0; i < kMessages; ++i) {
      members.push_back(Identity::generate(rng));
      chain::Event ev;
      ev.name = "MemberRegistered";
      ev.topics = {ff::U256{i}, members.back().pk.to_u256()};
      group.on_event(ev);
    }
    for (std::size_t i = 0; i < kMessages; ++i) {
      WakuMessage msg;
      msg.payload = to_bytes("payload " + std::to_string(i));
      attach_proof(msg, make_rate_limit_proof(members[i].sk, group.path_of(i),
                                              msg, 100, rng));
      messages.push_back(std::move(msg));
    }
  }
};

/// One measured pass: fresh per-shard pipelines (empty logs, full accept
/// path), all shards' windows submitted up front, drain() as the barrier.
double run_config(const Workload& wl, const ParallelismConfig& pcfg) {
  using Clock = std::chrono::steady_clock;
  double total_seconds = 0.0;
  std::size_t total_messages = 0;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    shard::ShardConfig scfg;
    scfg.num_shards = kShards;
    shard::ShardedValidator validator(
        zksnark::rln_keypair(kDepth).vk, wl.group, wl.vcfg, scfg,
        0x5EED + static_cast<std::uint64_t>(rep));
    validator.set_parallelism(pcfg);
    std::atomic<std::uint64_t> accepted{0};
    const auto start = Clock::now();
    for (std::uint16_t shard = 0; shard < kShards; ++shard) {
      for (std::size_t i = 0; i < wl.messages.size(); i += kWindow) {
        const std::size_t len =
            std::min(kWindow, wl.messages.size() - i);
        validator.submit(
            shard,
            std::span<const WakuMessage>(wl.messages.data() + i, len),
            wl.now_ms, [&accepted](std::vector<ValidationOutcome> outcomes) {
              for (const auto& o : outcomes) {
                if (o.verdict == Verdict::kAccept) {
                  accepted.fetch_add(1, std::memory_order_relaxed);
                }
              }
            });
      }
    }
    validator.drain();
    total_seconds +=
        std::chrono::duration<double>(Clock::now() - start).count();
    const std::size_t expected = kShards * wl.messages.size();
    total_messages += expected;
    if (accepted.load() != expected) {
      std::fprintf(stderr, "bench invariant violated: %llu/%zu accepted\n",
                   static_cast<unsigned long long>(accepted.load()),
                   expected);
      std::exit(1);
    }
  }
  return static_cast<double>(total_messages) / total_seconds;
}

struct MemoResult {
  std::size_t splits = 0;
  double cold_us_per_lookup = 0.0;
  double warm_us_per_lookup = 0.0;
  double flat_warm_us_per_lookup = 0.0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

MemoResult run_memo_bench() {
  using Clock = std::chrono::steady_clock;
  constexpr std::size_t kSplits = 5;  // 8 -> 256 shards, 6-layer lineage
  constexpr std::size_t kTopics = 256;
  const std::size_t kWarmPasses = smoke_mode() ? 50 : 500;

  shard::ShardMap deep(kShards, 0);
  for (std::size_t s = 0; s < kSplits; ++s) deep = deep.split(2);
  shard::ShardMap flat(kShards, 0);

  std::vector<std::string> topics;
  topics.reserve(kTopics);
  for (std::size_t i = 0; i < kTopics; ++i) {
    topics.push_back("/waku/2/app-" + std::to_string(i) + "/proto");
  }

  MemoResult r;
  r.splits = kSplits;

  const auto cold_start = Clock::now();
  for (const std::string& t : topics) (void)deep.shard_of(t);
  r.cold_us_per_lookup =
      std::chrono::duration<double>(Clock::now() - cold_start).count() * 1e6 /
      static_cast<double>(kTopics);

  const auto time_warm = [&](const shard::ShardMap& map) {
    for (const std::string& t : topics) (void)map.shard_of(t);  // prime
    const auto start = Clock::now();
    for (std::size_t pass = 0; pass < kWarmPasses; ++pass) {
      for (const std::string& t : topics) (void)map.shard_of(t);
    }
    return std::chrono::duration<double>(Clock::now() - start).count() * 1e6 /
           static_cast<double>(kWarmPasses * kTopics);
  };
  r.warm_us_per_lookup = time_warm(deep);
  r.flat_warm_us_per_lookup = time_warm(flat);

  const shard::ShardMap::MemoStats stats = deep.memo_stats();
  r.hits = stats.hits;
  r.misses = stats.misses;

  // O(1)-amortized assertions. Counter-based (deterministic): after the
  // cold pass, every lookup is a memo hit and the memo never overflowed.
  const std::uint64_t expected_hits =
      static_cast<std::uint64_t>((kWarmPasses + 1) * kTopics);
  if (stats.misses != kTopics || stats.hits != expected_hits ||
      stats.flushes != 0) {
    std::fprintf(stderr,
                 "memo invariant violated: hits=%llu (want %llu) "
                 "misses=%llu (want %zu) flushes=%llu\n",
                 static_cast<unsigned long long>(stats.hits),
                 static_cast<unsigned long long>(expected_hits),
                 static_cast<unsigned long long>(stats.misses), kTopics,
                 static_cast<unsigned long long>(stats.flushes));
    std::exit(1);
  }
  // Latency-based (generous margin): a warm deep-lineage lookup is the
  // same hash-probe code path as a warm flat-map lookup — depth must not
  // show. 8x absorbs scheduler noise while still failing an O(depth) bug
  // (the uncached walk is one keccak per layer, far beyond 8x a probe).
  if (r.warm_us_per_lookup > 8.0 * r.flat_warm_us_per_lookup) {
    std::fprintf(stderr,
                 "memo O(1) violated: warm deep %.3f us vs flat %.3f us\n",
                 r.warm_us_per_lookup, r.flat_warm_us_per_lookup);
    std::exit(1);
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      argc > 1 ? argv[1] : "BENCH_parallel_validation.json";
  const std::size_t hardware_threads =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());

  std::printf("building workload: %zu proofs at depth %zu (%u shards)...\n",
              kMessages, kDepth, kShards);
  const Workload wl;

  std::printf("hardware threads: %zu\n", hardware_threads);
  const double baseline = run_config(wl, ParallelismConfig{});
  std::printf("deterministic baseline: %10.0f msgs/s\n", baseline);

  struct Point {
    std::size_t workers;
    double msgs_per_sec;
    double speedup;
    double efficiency;
  };
  std::vector<Point> points;
  for (const std::size_t workers :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    ParallelismConfig pcfg;
    pcfg.deterministic = false;
    pcfg.workers = workers;
    const double rate = run_config(wl, pcfg);
    Point p;
    p.workers = workers;
    p.msgs_per_sec = rate;
    p.speedup = rate / baseline;
    p.efficiency =
        p.speedup /
        static_cast<double>(std::min(workers, hardware_threads));
    std::printf("workers %zu: %10.0f msgs/s  speedup %.2fx  efficiency %.2f\n",
                workers, rate, p.speedup, p.efficiency);
    points.push_back(p);
  }

  std::printf("shard-map memo micro-bench...\n");
  const MemoResult memo = run_memo_bench();
  std::printf(
      "memo: %zu splits  cold %.3f us  warm %.3f us  (flat warm %.3f us)\n",
      memo.splits, memo.cold_us_per_lookup, memo.warm_us_per_lookup,
      memo.flat_warm_us_per_lookup);

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"hardware_threads\": %zu,\n", hardware_threads);
  std::fprintf(f, "  \"baseline_msgs_per_sec\": %.1f,\n", baseline);
  std::fprintf(f, "  \"scaling\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    std::fprintf(f,
                 "    {\"workers\": %zu, \"msgs_per_sec\": %.1f, "
                 "\"speedup\": %.3f, \"parallel_efficiency\": %.3f}%s\n",
                 points[i].workers, points[i].msgs_per_sec, points[i].speedup,
                 points[i].efficiency, i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"shard_map_memo\": {\"splits\": %zu, "
               "\"cold_us_per_lookup\": %.3f, \"warm_us_per_lookup\": %.3f, "
               "\"flat_warm_us_per_lookup\": %.3f, \"memo_speedup\": %.3f, "
               "\"hits\": %llu, \"misses\": %llu}\n",
               memo.splits, memo.cold_us_per_lookup, memo.warm_us_per_lookup,
               memo.flat_warm_us_per_lookup,
               memo.cold_us_per_lookup /
                   std::max(memo.warm_us_per_lookup, 1e-9),
               static_cast<unsigned long long>(memo.hits),
               static_cast<unsigned long long>(memo.misses));
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

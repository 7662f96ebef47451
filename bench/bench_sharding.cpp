// Cross-shard scale-out: aggregate validated throughput of a fixed
// validator fleet as the relay is split into 1/2/4/8 shards.
//
// The model: N validator nodes, each hosting one shard (round-robin), and
// a fixed pool of P proof-carrying messages spread over content topics.
// Unsharded (K=1), every node validates every message — the paper's
// single global rate-limit domain. At K shards each message is validated
// only by the N/K nodes hosting its shard, so the deployment-wide work
// per delivered message falls by K while every shard keeps full RLN
// enforcement (own nullifier log, own root cache, own batch windows).
// Aggregate validated msgs/sec = P / wall-clock to validate the whole
// pool at every hosting node.
//
// A second section runs the shard-targeted flooder campaign (src/sim) and
// embeds its containment verdict — the scale-out story is only real if a
// flood on one shard buys nothing on the others.
//
// Standalone binary emitting machine-readable JSON (argv[1], default
// BENCH_sharding.json); honors WAKU_BENCH_SMOKE / --smoke.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "rln/rate_limit_proof.hpp"
#include "shard/sharded_validator.hpp"
#include "sim/scenario.hpp"
#include "zksnark/rln_circuit.hpp"

namespace {

using namespace waku;       // NOLINT
using namespace waku::rln;  // NOLINT
using benchutil::smoke_mode;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kDepth = 12;
constexpr std::size_t kNodes = 8;  // divisible by every shard count below
constexpr std::size_t kWindow = 16;
const std::size_t kMessages = smoke_mode() ? 64 : 384;
const int kRepetitions = smoke_mode() ? 1 : 3;

struct Workload {
  GroupManager group{kDepth, TreeMode::kFullTree};
  ValidatorConfig vcfg{.epoch = EpochConfig{.epoch_length_ms = 10'000},
                       .max_epoch_gap = 2};
  std::vector<WakuMessage> messages;
  std::uint64_t now_ms = 100 * 10'000 + 500;  // mid-epoch 100

  Workload() {
    Rng rng(0x5A4DB);
    // One member per message, all in epoch 100: distinct nullifiers, so
    // every message survives to the verifier and is accepted — the
    // all-honest hot path whose throughput sharding multiplies.
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
      // Topics spread uniformly; each ShardMap partitions them its way.
      msg.content_topic = "/waku/2/app-" + std::to_string(i) + "/proto";
      attach_proof(msg, make_rate_limit_proof(members[i].sk, group.path_of(i),
                                              msg, 100, rng));
      messages.push_back(std::move(msg));
    }
  }
};

struct Record {
  std::uint16_t shards;
  std::uint64_t validations;
  double wall_ms;
  double aggregate_msgs_per_sec;
};

Record run_shard_count(const Workload& wl, std::uint16_t num_shards) {
  const shard::ShardMap map(num_shards);
  // Message routing, once (not timed — the router does this in O(1) per
  // message at publish time).
  std::vector<std::vector<const WakuMessage*>> by_shard(num_shards);
  for (const WakuMessage& msg : wl.messages) {
    by_shard[map.shard_of(msg.content_topic)].push_back(&msg);
  }

  double total_seconds = 0;
  std::uint64_t validations = 0;
  std::uint64_t accepted = 0;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    // Fresh fleet per pass: node n hosts shard n mod K, with its own
    // per-shard pipelines (empty logs, own RLC seeds).
    std::vector<std::unique_ptr<shard::ShardedValidator>> fleet;
    for (std::size_t n = 0; n < kNodes; ++n) {
      shard::ShardConfig scfg;
      scfg.num_shards = num_shards;
      scfg.subscribe = {static_cast<shard::ShardId>(n % num_shards)};
      fleet.push_back(std::make_unique<shard::ShardedValidator>(
          zksnark::rln_keypair(kDepth).vk, wl.group, wl.vcfg, scfg,
          0x5EED0 + 131 * rep + n));
    }

    const std::vector<std::uint64_t> arrivals(kWindow, wl.now_ms);
    const auto start = Clock::now();
    for (std::size_t n = 0; n < kNodes; ++n) {
      const auto home = static_cast<shard::ShardId>(n % num_shards);
      ValidationPipeline& pipeline = fleet[n]->pipeline(home);
      const std::vector<const WakuMessage*>& inbox = by_shard[home];
      std::vector<WakuMessage> window;
      window.reserve(kWindow);
      for (std::size_t i = 0; i < inbox.size(); i += kWindow) {
        const std::size_t len = std::min(kWindow, inbox.size() - i);
        window.clear();
        for (std::size_t k = 0; k < len; ++k) window.push_back(*inbox[i + k]);
        const auto outcomes = pipeline.validate_batch(
            window, std::span<const std::uint64_t>(arrivals.data(), len));
        for (const auto& o : outcomes) {
          accepted += o.verdict == Verdict::kAccept ? 1 : 0;
        }
        validations += len;
      }
    }
    total_seconds +=
        std::chrono::duration<double>(Clock::now() - start).count();
  }
  if (accepted != validations) {
    std::fprintf(stderr, "bench invariant violated: %llu/%llu accepted\n",
                 static_cast<unsigned long long>(accepted),
                 static_cast<unsigned long long>(validations));
    std::exit(1);
  }
  Record r;
  r.shards = num_shards;
  r.validations = validations / kRepetitions;
  r.wall_ms = total_seconds * 1000.0 / kRepetitions;
  // The deployment-wide useful throughput: distinct messages fully
  // validated by their hosting shard per second of fleet wall-clock.
  r.aggregate_msgs_per_sec = static_cast<double>(kMessages) * kRepetitions /
                             total_seconds;
  return r;
}

sim::ShardFloodOutcome run_flood(bool smoke) {
  sim::ShardFloodConfig cfg;
  cfg.harness.num_nodes = smoke ? 12 : 24;
  cfg.harness.degree = 4;
  cfg.harness.block_interval_ms = 4'000;
  cfg.harness.node.tree_depth = 10;
  cfg.harness.node.validator.epoch.epoch_length_ms = 10'000;
  cfg.harness.node.gossip.validation_batch_max = 8;
  cfg.harness.node.shards.num_shards = smoke ? 3 : 4;
  cfg.harness.seed = 0x5F100D;
  cfg.attacked_shard = 1;
  cfg.flood_burst_per_epoch = smoke ? 5 : 6;
  cfg.warmup_ms = 8'000;
  cfg.attack_ms = smoke ? 24'000 : 30'000;
  cfg.drain_ms = 8'000;
  return sim::run_shard_flood_campaign(cfg);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_sharding.json";
  const bool smoke = (argc > 2 && std::strcmp(argv[2], "--smoke") == 0) ||
                     smoke_mode();

  std::printf("building workload: %zu proofs at depth %zu (%zu nodes)...\n",
              kMessages, kDepth, kNodes);
  const Workload wl;

  std::vector<Record> records;
  for (const std::uint16_t shards : {1, 2, 4, 8}) {
    const Record r = run_shard_count(wl, shards);
    std::printf(
        "shards %u: %6llu validations  %8.1f ms  %10.0f agg msgs/s\n",
        r.shards, static_cast<unsigned long long>(r.validations), r.wall_ms,
        r.aggregate_msgs_per_sec);
    records.push_back(r);
  }
  const double speedup4 =
      records[2].aggregate_msgs_per_sec / records[0].aggregate_msgs_per_sec;
  std::printf("4-shard aggregate speedup over unsharded: %.2fx\n", speedup4);

  std::printf("\nshard-targeted flood campaign...\n");
  const sim::ShardFloodOutcome flood = run_flood(smoke);
  std::printf(
      "flood: %u shards, attacked %u, spam %llu, slashed %s, "
      "min non-attacked delivery %.4f, cross-shard spam %llu\n",
      flood.num_shards, flood.attacked_shard,
      static_cast<unsigned long long>(flood.spam_sent),
      flood.attacker_slashed ? "yes" : "NO",
      flood.min_non_attacked_delivery,
      static_cast<unsigned long long>(flood.spam_on_non_attacked_shards));

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n\"smoke\": %s,\n\"nodes\": %zu,\n\"messages\": %zu,\n"
               "\"scale\": [\n",
               smoke ? "true" : "false", kNodes, kMessages);
  for (std::size_t i = 0; i < records.size(); ++i) {
    std::fprintf(f,
                 "  {\"shards\": %u, \"validations\": %llu, "
                 "\"wall_ms\": %.3f, \"aggregate_msgs_per_sec\": %.1f, "
                 "\"speedup_vs_unsharded\": %.3f}%s\n",
                 records[i].shards,
                 static_cast<unsigned long long>(records[i].validations),
                 records[i].wall_ms, records[i].aggregate_msgs_per_sec,
                 records[i].aggregate_msgs_per_sec /
                     records[0].aggregate_msgs_per_sec,
                 i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "],\n\"flood\": ");
  const std::string flood_json = flood.to_json();
  std::fwrite(flood_json.data(), 1, flood_json.size(), f);
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

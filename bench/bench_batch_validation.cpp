// Batched vs. single-message routing validation throughput.
//
// Measures the staged validation pipeline end to end (epoch gate, rolling
// root cache, nullifier precheck, batched Groth16, nullifier observe) on
// all-honest traffic at batch sizes 1/8/64/256. Batch 1 is the historical
// per-message path; larger windows share the RLC-aggregated pairing check,
// so per-message verification cost falls toward the single e(A, B) Miller
// loop.
//
// Unlike the google-benchmark benches this is a standalone binary: it
// emits machine-readable JSON (BENCH_batch_validation.json, or argv[1])
// with one record per batch size:
//   {"batch_size": N, "msgs_per_sec": X, "verify_us_per_msg": Y}
// so successive PRs can track the perf trajectory.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "rln/rate_limit_proof.hpp"
#include "rln/validation_pipeline.hpp"
#include "zksnark/rln_circuit.hpp"

namespace {

using namespace waku;       // NOLINT
using namespace waku::rln;  // NOLINT
using benchutil::smoke_mode;

constexpr std::size_t kDepth = 16;
const std::size_t kMessages = smoke_mode() ? 64 : 256;
const int kRepetitions = smoke_mode() ? 1 : 5;

struct Workload {
  GroupManager group{kDepth, TreeMode::kFullTree};
  ValidatorConfig vcfg{.epoch = EpochConfig{.epoch_length_ms = 10'000},
                       .max_epoch_gap = 2};
  std::vector<WakuMessage> messages;
  std::uint64_t now_ms = 100 * 10'000 + 500;  // epoch 100

  Workload() {
    Rng rng(0xBA7C);
    // One honest member per message, all publishing in epoch 100:
    // distinct sk -> distinct nullifier, so every message is accepted and
    // every proof reaches the verifier stage.
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

struct Record {
  std::size_t batch_size;
  double msgs_per_sec;
  double verify_us_per_msg;
};

Record run_batch_size(const Workload& wl, std::size_t batch_size) {
  using Clock = std::chrono::steady_clock;
  double total_seconds = 0.0;
  std::size_t total_messages = 0;
  std::uint64_t accepted = 0;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    // Fresh pipeline per pass so the nullifier log starts empty and every
    // message takes the full accept path (prove once, validate per rep).
    ValidationPipeline pipeline(zksnark::rln_keypair(kDepth).vk, wl.group,
                                wl.vcfg, 0x5EED + rep);
    const std::vector<std::uint64_t> arrivals(wl.messages.size(), wl.now_ms);
    const auto start = Clock::now();
    for (std::size_t i = 0; i < wl.messages.size(); i += batch_size) {
      const std::size_t len =
          std::min(batch_size, wl.messages.size() - i);
      const auto outcomes = pipeline.validate_batch(
          std::span<const WakuMessage>(wl.messages.data() + i, len),
          std::span<const std::uint64_t>(arrivals.data() + i, len));
      for (const auto& o : outcomes) {
        accepted += o.verdict == Verdict::kAccept ? 1 : 0;
      }
    }
    total_seconds +=
        std::chrono::duration<double>(Clock::now() - start).count();
    total_messages += wl.messages.size();
  }
  if (accepted != total_messages) {
    std::fprintf(stderr, "bench invariant violated: %llu/%zu accepted\n",
                 static_cast<unsigned long long>(accepted), total_messages);
    std::exit(1);
  }
  Record r;
  r.batch_size = batch_size;
  r.msgs_per_sec = static_cast<double>(total_messages) / total_seconds;
  r.verify_us_per_msg =
      total_seconds * 1e6 / static_cast<double>(total_messages);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      argc > 1 ? argv[1] : "BENCH_batch_validation.json";

  std::printf("building workload: %zu proofs at depth %zu...\n", kMessages,
              kDepth);
  const Workload wl;

  std::vector<Record> records;
  for (const std::size_t batch_size : {std::size_t{1}, std::size_t{8},
                                       std::size_t{64}, std::size_t{256}}) {
    const Record r = run_batch_size(wl, batch_size);
    std::printf("batch_size %3zu: %10.0f msgs/s  %8.2f us/msg\n",
                r.batch_size, r.msgs_per_sec, r.verify_us_per_msg);
    records.push_back(r);
  }

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < records.size(); ++i) {
    std::fprintf(
        f, "  {\"batch_size\": %zu, \"msgs_per_sec\": %.1f, "
           "\"verify_us_per_msg\": %.3f}%s\n",
        records[i].batch_size, records[i].msgs_per_sec,
        records[i].verify_us_per_msg, i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  const double speedup = records[2].msgs_per_sec / records[0].msgs_per_sec;
  std::printf("batch-64 speedup over batch-1: %.2fx\n", speedup);
  return 0;
}

// Cold replay vs checkpoint bootstrap (the durable-state subsystem's E-
// class measurement): how long a joining peer takes to become able to
// validate, and how many bytes it must obtain first.
//
//   cold_replay          process every MemberRegistered event from genesis
//                        through a full GroupManager (what a peer without
//                        checkpoints must do);
//   snapshot_restore     deserialize a full node's durable snapshot of the
//                        same state (restart path, still O(N) bytes but no
//                        re-hashing);
//   checkpoint_bootstrap verify + adopt the O(log N) signed checkpoint a
//                        full peer serves (light-client join path).
//
// Standalone binary emitting machine-readable JSON (argv[1], default
// BENCH_bootstrap.json): one record per (members, mode) with wall time and
// transferred/restored bytes, plus a speedup line per member count.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "chain/types.hpp"
#include "rln/checkpoint.hpp"
#include "rln/group_manager.hpp"

namespace {

using namespace waku;       // NOLINT
using namespace waku::rln;  // NOLINT
using benchutil::smoke_mode;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kDepth = 20;
constexpr int kRepetitions = 3;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct Record {
  std::size_t members;
  const char* mode;
  double ms;
  std::size_t bytes;  // state a joining peer must obtain for this mode
};

std::vector<chain::Event> registration_events(std::size_t members,
                                              std::uint64_t seed) {
  Rng rng(seed);
  std::vector<chain::Event> events;
  events.reserve(members);
  for (std::size_t i = 0; i < members; ++i) {
    chain::Event ev;
    ev.name = "MemberRegistered";
    ev.topics = {ff::U256{i}, ff::Fr::random(rng).to_u256()};
    events.push_back(std::move(ev));
  }
  return events;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_bootstrap.json";
  std::vector<Record> records;
  std::vector<std::string> summary_lines;

  // The smoke point is the baseline's smallest size, so the smoke lane
  // still compares its exact full_tree_storage_bytes row.
  const std::vector<std::size_t> member_counts =
      smoke_mode() ? std::vector<std::size_t>{1'000}
                   : std::vector<std::size_t>{1'000, 10'000};
  for (const std::size_t members : member_counts) {
    std::printf("== %zu members (depth %zu)\n", members, kDepth);
    const std::vector<chain::Event> events =
        registration_events(members, 0xB007 + members);
    std::size_t event_stream_bytes = 0;
    for (const chain::Event& ev : events) {
      event_stream_bytes += chain::serialize_event(ev).size();
    }

    // Reference state: a full peer that followed the stream live.
    GroupManager full(kDepth, TreeMode::kFullTree);
    for (const chain::Event& ev : events) full.on_event(ev);

    // -- cold replay --------------------------------------------------------
    double cold_ms = 0;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      const auto start = Clock::now();
      GroupManager joiner(kDepth, TreeMode::kFullTree);
      for (const chain::Event& ev : events) joiner.on_event(ev);
      cold_ms += ms_since(start);
      if (joiner.root() != full.root()) {
        std::fprintf(stderr, "cold replay diverged\n");
        return 1;
      }
    }
    cold_ms /= kRepetitions;
    records.push_back({members, "cold_replay", cold_ms, event_stream_bytes});

    // -- snapshot restore ---------------------------------------------------
    const Bytes snapshot = full.serialize();
    double restore_ms = 0;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      const auto start = Clock::now();
      GroupManager restored(kDepth, TreeMode::kFullTree);
      restored.restore(snapshot);
      restore_ms += ms_since(start);
      if (restored.root() != full.root()) {
        std::fprintf(stderr, "snapshot restore diverged\n");
        return 1;
      }
    }
    restore_ms /= kRepetitions;
    records.push_back(
        {members, "snapshot_restore", restore_ms, snapshot.size()});

    // -- checkpoint bootstrap -----------------------------------------------
    Checkpoint checkpoint = make_group_checkpoint(
        full, events.size(), {shard::ShardWatermark{0, 0}});
    const hash::schnorr::KeyPair key =
        hash::schnorr::keygen_from_seed(0xB007);
    checkpoint.sign(key);
    const Bytes wire = checkpoint.serialize();
    double checkpoint_ms = 0;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      const auto start = Clock::now();
      const Checkpoint received = Checkpoint::deserialize(wire);
      if (!received.verify(key.pk)) {
        std::fprintf(stderr, "checkpoint verify failed\n");
        return 1;
      }
      GroupManager light =
          GroupManager::from_checkpoint(received.group_checkpoint());
      checkpoint_ms += ms_since(start);
      if (light.root() != full.root()) {
        std::fprintf(stderr, "checkpoint bootstrap diverged\n");
        return 1;
      }
    }
    checkpoint_ms /= kRepetitions;
    records.push_back(
        {members, "checkpoint_bootstrap", checkpoint_ms, wire.size()});

    const double speedup = cold_ms / checkpoint_ms;
    char line[200];
    std::snprintf(line, sizeof(line),
                  "  {\"members\": %zu, \"checkpoint_speedup_vs_cold\": "
                  "%.1f, \"full_tree_storage_bytes\": %zu}",
                  members, speedup, full.storage_bytes());
    summary_lines.push_back(line);
    std::printf(
        "cold %9.2f ms (%8zu B)  snapshot %7.2f ms (%8zu B)  "
        "checkpoint %6.3f ms (%5zu B)  speedup %.0fx\n",
        cold_ms, event_stream_bytes, restore_ms, snapshot.size(),
        checkpoint_ms, wire.size(), speedup);
  }

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n\"records\": [\n");
  for (std::size_t i = 0; i < records.size(); ++i) {
    std::fprintf(f,
                 "  {\"members\": %zu, \"mode\": \"%s\", \"ms\": %.3f, "
                 "\"bytes\": %zu}%s\n",
                 records[i].members, records[i].mode, records[i].ms,
                 records[i].bytes, i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "],\n\"summary\": [\n");
  for (std::size_t i = 0; i < summary_lines.size(); ++i) {
    std::fprintf(f, "%s%s\n", summary_lines[i].c_str(),
                 i + 1 < summary_lines.size() ? "," : "");
  }
  std::fprintf(f, "]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

// Node-state digest: a persistent 4-node deployment on 2 relay shards with
// the autonomous operator loop on, sampled lifecycle tracing and two
// kill/restarts, driven through honest traffic on both shards and one
// double-signal. The operator loop splits the layout to 4 shards. The
// first kill lands mid-cutover, while the killed node holds both shard
// generations: its restart rebuilds the incoming generation's validator
// and replays that generation's nullifier records. The second lands after
// drop-old. The example exits 1 if the first killed node is not in
// overlap or drain when killed. It prints one line per node and part:
//
//   node<i> state <sha256 of serialize_state()>
//   node<i> wal   <sha256 of the WAL record stream>  records=<n>
//
// The WAL stream is every (type, shard, payload) that
// state_store()->replay_wal() yields, hashed as type u8 | shard u16 |
// payload length u64 | payload (little-endian integers). No keystore
// password is set: a sealed snapshot draws OS entropy and would not
// reproduce. The state directory is a fresh temporary one, removed on
// exit, so the output is a function of the seed alone.
// scripts/check_identity.sh hashes this output against
// scripts/identity_manifest.txt; a refactor of the node's durable state
// must leave every line unchanged.
//
//   ./build/example_node_state_digest
#include <cstdio>
#include <filesystem>
#include <string>
#include <string_view>

#include <unistd.h>

#include "common/bytes.hpp"
#include "hash/sha256.hpp"
#include "obs/recorder.hpp"
#include "rln/harness.hpp"
#include "shard/shard_map.hpp"

using namespace waku;  // NOLINT

namespace fs = std::filesystem;

// The cutover phase `node` last entered, from the "phase=<name>" reshard
// events of its flight recorder ("stable" before the first).
std::string cutover_phase(const rln::WakuRlnRelayNode& node) {
  std::string phase = "stable";
  for (const obs::FlightEvent& e :
       node.telemetry().flight_recorder().events()) {
    const std::string_view prefix = "phase=";
    if (e.kind != "reshard" || e.detail.rfind(prefix, 0) != 0) continue;
    phase = e.detail.substr(prefix.size(),
                            e.detail.find(' ') - prefix.size());
  }
  return phase;
}

// Runs the deployment with its state under `dir` and prints the digests;
// 1 when the mid-cutover kill misses the cutover.
int run(const fs::path& dir) {
  rln::HarnessConfig cfg;
  cfg.num_nodes = 4;
  cfg.degree = 2;
  cfg.block_interval_ms = 2'000;
  cfg.node.tree_depth = 10;
  cfg.node.validator.epoch.epoch_length_ms = 5'000;
  cfg.node.validator.max_epoch_gap = 2;
  cfg.node.shards.num_shards = 2;
  cfg.node.obs.trace.sample_every = 3;
  cfg.node.operator_loop.enabled = true;
  cfg.node.operator_loop.trip_epochs = 2;
  cfg.node.operator_loop.phase_dwell_epochs = 1;
  cfg.node.operator_loop.cooldown_epochs = 1'000;
  cfg.node.load_tracker.overload_msgs_per_sec = 0.05;
  cfg.node.persist.snapshot_every_records = 64;
  cfg.persist_dir = dir.string();
  cfg.seed = 0x5D16;

  rln::RlnHarness net(cfg);
  net.register_all();
  net.run_ms(5'000);

  const shard::ShardMap& map = net.node(0).validator().map();
  const std::string topics[2] = {shard::content_topic_for_shard(map, 0),
                                 shard::content_topic_for_shard(map, 1)};
  const auto publish_round = [&](int round) {
    for (std::size_t i = 0; i < net.size(); ++i) {
      if (!net.alive(i)) continue;
      (void)net.node(i).try_publish(
          to_bytes("round " + std::to_string(round) + " from " +
                   std::to_string(i)),
          topics[(i + static_cast<std::size_t>(round)) % 2]);
    }
  };
  const std::uint64_t epoch_ms = cfg.node.validator.epoch.epoch_length_ms;
  const auto honest_round = [&](int round) {
    publish_round(round);
    net.run_ms(epoch_ms);
  };

  for (int round = 0; round < 4; ++round) honest_round(round);
  // Mid-cutover kill: node 2 drains (publishes route to the incoming
  // generation) and has journaled that generation's observations when
  // it goes down, before its drop-old at the next epoch tick.
  publish_round(4);
  net.run_ms(2'000);
  const std::string phase = cutover_phase(net.node(2));
  if (phase != "overlap" && phase != "drain") {
    std::fprintf(stderr, "node 2 killed in phase %s, not overlap/drain\n",
                 phase.c_str());
    return 1;
  }
  net.kill_node(2);
  net.run_ms(epoch_ms - 2'000);
  honest_round(5);
  net.restart_node(2);
  // A double-signal on shard 1: detected, committed and revealed.
  (void)net.node(3).force_publish(to_bytes("spam a"), topics[1]);
  (void)net.node(3).force_publish(to_bytes("spam b"), topics[1]);
  net.run_ms(10'000);
  net.kill_node(1);
  for (int round = 6; round < 9; ++round) honest_round(round);
  net.restart_node(1);
  net.run_ms(3'000);  // re-mesh
  for (int round = 9; round < 16; ++round) honest_round(round);
  net.run_ms(25'000);

  for (std::size_t i = 0; i < net.size(); ++i) {
    const rln::WakuRlnRelayNode& node = net.node(i);
    const hash::Sha256Digest state = hash::sha256(node.serialize_state());
    hash::Sha256 wal;
    std::size_t records = 0;
    node.state_store()->replay_wal(
        [&](std::uint8_t type, std::uint16_t shard, BytesView payload) {
          wal.update_le(type, 1);
          wal.update_le(shard, 2);
          wal.update_le(payload.size(), 8);
          wal.update(payload);
          ++records;
        });
    const hash::Sha256Digest wal_digest = wal.finalize();
    std::printf("node%zu state %s\n", i, to_hex(state).c_str());
    std::printf("node%zu wal   %s  records=%zu\n", i,
                to_hex(wal_digest).c_str(), records);
  }
  return 0;
}

int main() {
  const fs::path dir =
      fs::temp_directory_path() /
      ("waku_node_state_digest_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const int status = run(dir);
  fs::remove_all(dir);
  return status;
}

// Parameterized property sweeps across configuration space: gossipsub
// mesh parameters, RLN circuit depths, and epoch lengths — the knobs a
// deployment would actually turn.
#include <gtest/gtest.h>

#include <memory>

#include "gossipsub/router.hpp"
#include "rln/harness.hpp"
#include "zksnark/rln_circuit.hpp"

namespace waku {
namespace {

// --- gossipsub mesh-degree sweep: delivery must hold at every D ---------

struct MeshParams {
  std::size_t mesh_n;
  std::size_t mesh_n_low;
  std::size_t mesh_n_high;
};

class GossipMeshSweep : public ::testing::TestWithParam<MeshParams> {};

TEST_P(GossipMeshSweep, FullDeliveryAcrossMeshDegrees) {
  const MeshParams p = GetParam();
  gossipsub::GossipSubConfig config;
  config.mesh_n = p.mesh_n;
  config.mesh_n_low = p.mesh_n_low;
  config.mesh_n_high = p.mesh_n_high;

  net::Simulator sim;
  net::Network net(sim, {.base_latency_ms = 20, .jitter_ms = 10,
                         .loss_rate = 0}, 0x5EED);
  std::vector<std::unique_ptr<gossipsub::GossipSubRouter>> routers;
  std::vector<std::uint64_t> delivered(25, 0);
  for (std::size_t i = 0; i < 25; ++i) {
    routers.push_back(std::make_unique<gossipsub::GossipSubRouter>(
        net, config, gossipsub::PeerScoreConfig{}, 900 + i));
  }
  Rng rng(0x5EED2);
  net.connect_random(std::max<std::size_t>(p.mesh_n, 4), rng);
  for (std::size_t i = 0; i < 25; ++i) {
    routers[i]->subscribe("t", [&delivered, i](const gossipsub::PubSubMessage&) {
      ++delivered[i];
    });
    routers[i]->start();
  }
  sim.run_until(5'000);

  routers[0]->publish("t", to_bytes("sweep"));
  sim.run_until(sim.now() + 15'000);

  for (std::size_t i = 0; i < 25; ++i) {
    EXPECT_EQ(delivered[i], 1u) << "node " << i << " at D=" << p.mesh_n;
  }
  // Mesh sizes respect the configured bounds.
  for (const auto& r : routers) {
    EXPECT_LE(r->mesh_peers("t").size(), p.mesh_n_high);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Degrees, GossipMeshSweep,
    ::testing::Values(MeshParams{2, 1, 4}, MeshParams{4, 3, 8},
                      MeshParams{6, 4, 12}, MeshParams{10, 8, 16}));

// --- RLN circuit depth sweep: prove/verify complete at every depth -------

class RlnDepthSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RlnDepthSweep, ProveVerifyRoundTrip) {
  const std::size_t depth = GetParam();
  Rng rng(0xDE9 + depth);
  const rln::Identity id = rln::Identity::generate(rng);
  merkle::IncrementalMerkleTree tree(depth);
  const std::uint64_t index = tree.insert(id.pk);

  zksnark::RlnProverInput input;
  input.sk = id.sk;
  input.path = tree.auth_path(index);
  input.x = ff::Fr::random(rng);
  input.epoch = ff::Fr::from_u64(1234);
  zksnark::RlnCircuit c = zksnark::build_rln_circuit(input);
  const zksnark::Keypair& kp = zksnark::rln_keypair(depth);
  const zksnark::Proof proof =
      zksnark::prove(kp.pk, c.builder.cs(), c.builder.assignment(), rng);
  EXPECT_TRUE(zksnark::verify(kp.vk, c.publics.to_vector(), proof));

  // And soundness: flip each public input in turn.
  for (std::size_t field = 0; field < 5; ++field) {
    auto bad = c.publics.to_vector();
    bad[field] += ff::Fr::one();
    EXPECT_FALSE(zksnark::verify(kp.vk, bad, proof)) << "field " << field;
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, RlnDepthSweep,
                         ::testing::Values(1u, 2u, 4u, 12u, 24u));

// --- epoch-length sweep: the rate limit tracks T exactly -----------------

class EpochLengthSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EpochLengthSweep, OneMessagePerEpochWhateverT) {
  const std::uint64_t t_ms = GetParam();
  rln::HarnessConfig cfg;
  cfg.num_nodes = 4;
  cfg.degree = 3;
  cfg.block_interval_ms = 2'000;
  cfg.node.tree_depth = 8;
  cfg.node.validator.epoch.epoch_length_ms = t_ms;
  rln::RlnHarness h(cfg);
  h.register_all();
  h.run_ms(1'000);

  // Publish attempts every T/2: exactly every other attempt must pass.
  std::size_t ok = 0;
  std::size_t limited = 0;
  for (int attempt = 0; attempt < 8; ++attempt) {
    const auto status = h.node(0).try_publish(
        to_bytes(std::string("a").append(std::to_string(attempt))));
    if (status == rln::WakuRlnRelayNode::PublishStatus::kOk) ++ok;
    if (status == rln::WakuRlnRelayNode::PublishStatus::kRateLimited) {
      ++limited;
    }
    h.run_ms(t_ms / 2);
  }
  EXPECT_GE(ok, 3u);
  EXPECT_GE(limited, 3u);
  EXPECT_EQ(ok + limited, 8u);
}

INSTANTIATE_TEST_SUITE_P(Lengths, EpochLengthSweep,
                         ::testing::Values(2'000u, 10'000u, 30'000u));

}  // namespace
}  // namespace waku

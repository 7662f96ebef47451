// E1 — RLN proof generation time vs identity-tree depth.
//
// Paper §IV: "Generating membership proof to a group size of 2^32 (tree
// depth 32) takes ~0.5 s on an iPhone 8". Absolute numbers differ (our
// backend is the simulated Groth16 on a workstation; see
// docs/ARCHITECTURE.md, "Substitutions"), but the SHAPE must hold: prover
// cost grows roughly linearly with tree depth (the circuit adds one
// Poseidon permutation + path constraints per level) and is otherwise
// independent of the actual group population.
#include <benchmark/benchmark.h>

#include <cmath>

#include "hash/poseidon.hpp"
#include "merkle/merkle_tree.hpp"
#include "rln/identity.hpp"
#include "zksnark/rln_circuit.hpp"

namespace {

using namespace waku;            // NOLINT
using zksnark::rln_keypair;

struct ProverSetup {
  rln::Identity id;
  merkle::MerklePath path;

  explicit ProverSetup(std::size_t depth) {
    Rng rng(0xE1);
    id = rln::Identity::generate(rng);
    merkle::IncrementalMerkleTree tree(depth);
    tree.insert(hash::poseidon1(ff::Fr::from_u64(1)));
    const std::uint64_t index = tree.insert(id.pk);
    tree.insert(hash::poseidon1(ff::Fr::from_u64(2)));
    path = tree.auth_path(index);
  }
};

void BM_RlnProofGeneration(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  const ProverSetup setup(depth);
  const zksnark::Keypair& kp = rln_keypair(depth);  // ceremony, not timed
  Rng rng(0xE1F);

  std::uint64_t x_counter = 0;
  for (auto _ : state) {
    zksnark::RlnProverInput input;
    input.sk = setup.id.sk;
    input.path = setup.path;
    input.x = ff::Fr::from_u64(1000 + x_counter++);  // fresh message hash
    input.epoch = ff::Fr::from_u64(54'827'003);
    zksnark::RlnCircuit c = zksnark::build_rln_circuit(input);
    zksnark::Proof proof =
        zksnark::prove(kp.pk, c.builder.cs(), c.builder.assignment(), rng);
    benchmark::DoNotOptimize(proof);
  }
  state.counters["constraints"] = static_cast<double>(kp.pk.num_constraints);
  state.counters["group_capacity"] = std::pow(2.0, static_cast<double>(depth));
}

// Depth 32 corresponds to the paper's 2^32-member group.
BENCHMARK(BM_RlnProofGeneration)
    ->Arg(10)
    ->Arg(14)
    ->Arg(16)
    ->Arg(20)
    ->Arg(24)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

// Witness generation alone (circuit building), the Merkle/Poseidon part.
void BM_RlnWitnessGeneration(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  const ProverSetup setup(depth);
  for (auto _ : state) {
    zksnark::RlnProverInput input;
    input.sk = setup.id.sk;
    input.path = setup.path;
    input.x = ff::Fr::from_u64(7);
    input.epoch = ff::Fr::from_u64(99);
    zksnark::RlnCircuit c = zksnark::build_rln_circuit(input);
    benchmark::DoNotOptimize(c.publics.root);
  }
}

BENCHMARK(BM_RlnWitnessGeneration)
    ->Arg(10)
    ->Arg(20)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

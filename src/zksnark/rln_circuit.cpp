#include "zksnark/rln_circuit.hpp"

#include <map>
#include <mutex>

#include "common/expect.hpp"
#include "hash/poseidon.hpp"
#include "zksnark/gadgets.hpp"

namespace waku::zksnark {

RlnPublicInputs rln_compute_publics(const RlnProverInput& input) {
  const Fr pk = hash::poseidon1(input.sk);
  const Fr a1 = hash::poseidon2(input.sk, input.epoch);
  RlnPublicInputs out;
  out.x = input.x;
  out.y = input.sk + a1 * input.x;
  out.nullifier = hash::poseidon1(a1);
  out.epoch = input.epoch;
  out.root = merkle::compute_root(pk, input.path);
  return out;
}

void wire_rln_circuit(RlnCircuit& circuit, const RlnProverInput& input) {
  WAKU_EXPECTS(!input.path.siblings.empty());
  CircuitBuilder& b = circuit.builder;

  // Public inputs first (Groth16 variable layout). y, phi and the root are
  // placeholders until the gadgets below compute them.
  const Wire x = b.public_input(input.x);
  const Wire y = b.public_input(Fr::zero());
  const Wire nullifier = b.public_input(Fr::zero());
  const Wire epoch = b.public_input(input.epoch);
  const Wire root = b.public_input(Fr::zero());

  // Private witness.
  const Wire sk = b.witness(input.sk);

  // (1) membership: pk = Poseidon(sk) sits in the tree under `root`.
  const Wire pk = poseidon1_gadget(b, sk);
  const Wire computed_root = merkle_root_gadget(b, pk, input.path);
  b.assert_equal(computed_root, root, "membership_root");

  // (2) share validity: y = sk + a1 * x, a1 = Poseidon(sk, epoch).
  const Wire a1 = poseidon2_gadget(b, sk, epoch);
  const Wire a1x = b.mul(a1, x, "share_slope_times_x");
  const Wire share = b.add(sk, a1x);
  b.assert_equal(share, y, "share_validity");

  // (3) nullifier correctness: phi = Poseidon(a1).
  const Wire phi = poseidon1_gadget(b, a1);
  b.assert_equal(phi, nullifier, "nullifier_correctness");

  // Each hash ran once, in the gadgets: their wires fill the public slots.
  circuit.publics = RlnPublicInputs{input.x, share.value, phi.value,
                                    input.epoch, computed_root.value};
  b.set_public(1, share.value);
  b.set_public(2, phi.value);
  b.set_public(4, computed_root.value);
}

namespace {

// Everything trusted setup produces for one tree depth: the sealed
// constraint system and the keypair over it. Built once per process.
struct DepthArtifacts {
  ConstraintSystem cs;
  Keypair keypair;
};

const DepthArtifacts& depth_artifacts(std::size_t depth) {
  WAKU_EXPECTS(depth >= 1);
  static std::map<std::size_t, DepthArtifacts> cache;
  static std::mutex mu;
  std::lock_guard<std::mutex> lock(mu);
  auto it = cache.find(depth);
  if (it == cache.end()) {
    // The structure depends only on depth: wire a dummy witness.
    RlnProverInput dummy;
    dummy.sk = Fr::from_u64(1);
    dummy.path.index = 0;
    dummy.path.siblings.assign(depth, Fr::zero());
    dummy.x = Fr::from_u64(2);
    dummy.epoch = Fr::from_u64(3);
    RlnCircuit circuit;
    wire_rln_circuit(circuit, dummy);
    WAKU_ENSURES(circuit.builder.satisfied());
    DepthArtifacts built{std::move(circuit.builder).take_cs(), {}};
    // Sealed here, under the lock, so concurrent provers only read it.
    built.cs.seal();
    // Deterministic ceremony randomness per depth: reproducible benches,
    // and every node in a simulation shares the same artifact.
    Rng rng(0x524c4e00 + depth);  // "RLN" + depth
    built.keypair = trusted_setup(built.cs, rng);
    it = cache.emplace(depth, std::move(built)).first;
  }
  return it->second;
}

}  // namespace

RlnCircuit build_rln_circuit(const RlnProverInput& input) {
  RlnCircuit circuit{
      CircuitBuilder(rln_constraint_system(input.path.depth())), {}};
  wire_rln_circuit(circuit, input);
  return circuit;
}

const ConstraintSystem& rln_constraint_system(std::size_t depth) {
  return depth_artifacts(depth).cs;
}

const Keypair& rln_keypair(std::size_t depth) {
  return depth_artifacts(depth).keypair;
}

}  // namespace waku::zksnark

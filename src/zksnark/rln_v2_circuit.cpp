#include "zksnark/rln_v2_circuit.hpp"

#include <map>
#include <mutex>

#include "common/expect.hpp"
#include "hash/poseidon.hpp"
#include "zksnark/gadgets.hpp"

namespace waku::zksnark {

Fr rln_v2_leaf(const Fr& pk, std::uint64_t limit) {
  return hash::poseidon2(pk, Fr::from_u64(limit));
}

RlnPublicInputs rln_v2_compute_publics(const RlnV2ProverInput& input) {
  const Fr pk = hash::poseidon1(input.sk);
  const Fr a1 = hash::poseidon3(input.sk, input.epoch,
                                Fr::from_u64(input.message_id));
  RlnPublicInputs out;
  out.x = input.x;
  out.y = input.sk + a1 * input.x;
  out.nullifier = hash::poseidon1(a1);
  out.epoch = input.epoch;
  out.root = merkle::compute_root(rln_v2_leaf(pk, input.limit), input.path);
  return out;
}

RlnCircuit build_rln_v2_circuit(const RlnV2ProverInput& input) {
  WAKU_EXPECTS(!input.path.siblings.empty());
  WAKU_EXPECTS(input.limit >= 1 &&
               input.limit < (std::uint64_t{1} << kRlnV2LimitBits));

  RlnCircuit circuit;
  circuit.publics = rln_v2_compute_publics(input);
  CircuitBuilder& b = circuit.builder;

  const Wire x = b.public_input(circuit.publics.x);
  const Wire y = b.public_input(circuit.publics.y);
  const Wire nullifier = b.public_input(circuit.publics.nullifier);
  const Wire epoch = b.public_input(circuit.publics.epoch);
  const Wire root = b.public_input(circuit.publics.root);

  const Wire sk = b.witness(input.sk);
  const Wire limit = b.witness(Fr::from_u64(input.limit));
  const Wire message_id = b.witness(Fr::from_u64(input.message_id));

  // Quota: 0 <= message_id < limit (both within the bit budget).
  (void)bits_gadget(b, message_id, kRlnV2LimitBits);
  (void)bits_gadget(b, limit, kRlnV2LimitBits);
  assert_less_than(b, message_id, limit, kRlnV2LimitBits);

  // Membership of the quota-committing leaf.
  const Wire pk = poseidon1_gadget(b, sk);
  const Wire leaf = poseidon2_gadget(b, pk, limit);
  const Wire computed_root = merkle_root_gadget(b, leaf, input.path);
  b.assert_equal(computed_root, root, "v2_membership_root");

  // Share validity with the id-bound slope.
  const std::array<Wire, 3> a1_in{sk, epoch, message_id};
  const Wire a1 = poseidon_gadget(b, a1_in);
  const Wire a1x = b.mul(a1, x, "v2_share_slope_times_x");
  b.assert_equal(b.add(sk, a1x), y, "v2_share_validity");

  // Nullifier correctness.
  const Wire phi = poseidon1_gadget(b, a1);
  b.assert_equal(phi, nullifier, "v2_nullifier_correctness");

  // Unlike v1, an over-quota message_id is representable here and simply
  // leaves the less-than constraint violated; prove() will refuse it.
  // Callers can inspect builder.satisfied() to see which constraint fails.
  return circuit;
}

ConstraintSystem rln_v2_constraint_system(std::size_t depth) {
  WAKU_EXPECTS(depth >= 1);
  RlnV2ProverInput dummy;
  dummy.sk = Fr::from_u64(1);
  dummy.limit = 1;
  dummy.message_id = 0;
  dummy.path.index = 0;
  dummy.path.siblings.assign(depth, Fr::zero());
  dummy.x = Fr::from_u64(2);
  dummy.epoch = Fr::from_u64(3);
  return build_rln_v2_circuit(dummy).builder.cs();
}

const Keypair& rln_v2_keypair(std::size_t depth) {
  static std::map<std::size_t, Keypair> cache;
  static std::mutex mu;
  std::lock_guard<std::mutex> lock(mu);
  auto it = cache.find(depth);
  if (it == cache.end()) {
    Rng rng(0x524c4e32 + depth);  // "RLN2" + depth
    const ConstraintSystem cs = rln_v2_constraint_system(depth);
    it = cache.emplace(depth, trusted_setup(cs, rng)).first;
  }
  return it->second;
}

}  // namespace waku::zksnark

// Reusable circuit gadgets: in-circuit Poseidon and Merkle-path ascent.
// These replicate, constraint-for-constraint, the native implementations in
// src/hash and src/merkle, so a witness generated natively always satisfies
// the circuit (tested in test_zksnark.cpp).
#pragma once

#include <vector>

#include "merkle/merkle_tree.hpp"
#include "zksnark/circuit.hpp"

namespace waku::zksnark {

/// In-circuit x^5 S-box (3 constraints).
Wire sbox_gadget(CircuitBuilder& b, const Wire& x);

/// In-circuit Poseidon permutation over `state` (t = state.size()).
void poseidon_permute_gadget(CircuitBuilder& b, std::vector<Wire>& state);

/// In-circuit Poseidon hash with the same sponge convention as
/// hash::poseidon_hash (capacity 0, output state[0]).
Wire poseidon_gadget(CircuitBuilder& b, std::span<const Wire> inputs);

Wire poseidon1_gadget(CircuitBuilder& b, const Wire& a);
Wire poseidon2_gadget(CircuitBuilder& b, const Wire& a, const Wire& c);

/// In-circuit Merkle root computation from a leaf and its auth path.
/// Allocates the path siblings and index bits as private witnesses and
/// returns the computed root wire. `path` supplies the witness values.
Wire merkle_root_gadget(CircuitBuilder& b, const Wire& leaf,
                        const merkle::MerklePath& path);

}  // namespace waku::zksnark

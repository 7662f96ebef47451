// The RLN relation compiled to R1CS (paper §II-B, items 1-3):
//
//   1. membership: pk = Poseidon(sk) is a leaf of the identity commitment
//      tree with root tau (proved via the in-circuit Merkle ascent);
//   2. share validity: y = sk + a1 * x with a1 = Poseidon(sk, epoch);
//   3. nullifier correctness: phi = Poseidon(a1).
//
// Public inputs, in canonical order: [x, y, phi, epoch, root].
// Private witness: sk, the auth-path siblings and index bits.
#pragma once

#include <memory>

#include "merkle/merkle_tree.hpp"
#include "zksnark/circuit.hpp"
#include "zksnark/groth16.hpp"

namespace waku::zksnark {

/// The five public inputs of the RLN circuit.
struct RlnPublicInputs {
  Fr x;          ///< message hash H(m), the Shamir share x-coordinate
  Fr y;          ///< Shamir share y-coordinate
  Fr nullifier;  ///< internal nullifier phi
  Fr epoch;      ///< external nullifier (the epoch)
  Fr root;       ///< identity-commitment tree root tau

  [[nodiscard]] std::vector<Fr> to_vector() const {
    return {x, y, nullifier, epoch, root};
  }
  friend bool operator==(const RlnPublicInputs&,
                         const RlnPublicInputs&) = default;
};

/// Private prover inputs.
struct RlnProverInput {
  Fr sk;                    ///< identity secret key
  merkle::MerklePath path;  ///< auth path of pk in the commitment tree
  Fr x;                     ///< message hash
  Fr epoch;                 ///< current external nullifier
};

/// Computes the honest public outputs for a prover input (native, outside
/// the circuit): a1 = H(sk, epoch), y = sk + a1*x, phi = H(a1),
/// root = ascend(H(sk), path). The native reference tests check the
/// circuit against; the publish path does not call it.
RlnPublicInputs rln_compute_publics(const RlnProverInput& input);

/// A witnessed RLN circuit: the builder's cs() is the constraint system and
/// its assignment() the witness, ready for groth16 `prove`.
struct RlnCircuit {
  CircuitBuilder builder;
  RlnPublicInputs publics;
};

/// Runs the RLN gadgets for `input` on circuit.builder, in whichever mode
/// the builder was constructed, and fills circuit.publics. The one
/// description of the circuit: setup builds the constraint system with it,
/// and every publish computes its witness with it. x and the epoch come
/// from `input`; y, phi and the root are read from the gadget wires that
/// compute them and written into their public slots, so each hash runs
/// once.
void wire_rln_circuit(RlnCircuit& circuit, const RlnProverInput& input);

/// Computes the witness for `input` by running the circuit's gadgets in
/// witness-only mode. No constraints are built: builder.cs() is the shared
/// system rln_constraint_system(depth), and builder.satisfied() checks the
/// witness against it. The witness is not checked here; `prove` does that.
RlnCircuit build_rln_circuit(const RlnProverInput& input);

/// The sealed constraint system for a tree depth (its structure depends
/// only on depth). Built once per depth and process, together with
/// rln_keypair(depth), and shared read-only by every prover.
const ConstraintSystem& rln_constraint_system(std::size_t depth);

/// Cached trusted-setup artifact per tree depth (the ceremony output all
/// nodes share). Deterministic for reproducibility of the benches.
const Keypair& rln_keypair(std::size_t depth);

}  // namespace waku::zksnark

// Poseidon permutation and hash over the BN254 scalar field.
//
// This is the hash the paper's "H" refers to inside the RLN relation:
// identity commitments pk = H(sk), the Merkle tree levels, the share slope
// a1 = H(sk, epoch), and the internal nullifier phi = H(a1) are all Poseidon
// evaluations, matching the Semaphore/RLN circuits.
//
// Structure follows the Poseidon reference for BN254 (x^5 S-box, 8 full
// rounds, 56..60 partial rounds depending on width, secure Cauchy MDS).
// SUBSTITUTION (docs/ARCHITECTURE.md, "Substitutions"): round constants
// and the Cauchy generators are derived from a SHA-256-based
// nothing-up-my-sleeve PRF instead of the reference Grain-LFSR stream; the
// algebraic structure is identical and no benchmark or protocol behaviour
// depends on the particular constant stream.
//
// poseidon_permute evaluates the permutation in the sparse partial-round
// form of the Poseidon paper (App. B): the same function, with each partial
// round costing 2t-1 multiplies instead of t^2. The in-circuit gadget
// (zksnark/gadgets.hpp) keeps the plain round structure described by
// PoseidonParams, and is the reference the native code is tested against.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ff/fr.hpp"

namespace waku::hash {

using ff::Fr;

/// Full parameter set for a Poseidon instance of width `t`.
struct PoseidonParams {
  std::size_t t = 0;            ///< state width (capacity 1 + rate t-1)
  std::size_t full_rounds = 0;  ///< R_F, split half before / half after
  std::size_t partial_rounds = 0;  ///< R_P
  /// Round constants, layout: round-major, t per round,
  /// size = t * (full_rounds + partial_rounds).
  std::vector<Fr> round_constants;
  /// t x t MDS matrix, row-major.
  std::vector<Fr> mds;

  [[nodiscard]] const Fr& rc(std::size_t round, std::size_t i) const {
    return round_constants[round * t + i];
  }
  [[nodiscard]] const Fr& m(std::size_t row, std::size_t col) const {
    return mds[row * t + col];
  }
  [[nodiscard]] std::size_t total_rounds() const {
    return full_rounds + partial_rounds;
  }
};

/// Returns the (cached) parameter set for width t in [2, 5].
const PoseidonParams& poseidon_params(std::size_t t);

/// Applies the Poseidon permutation in place; state.size() selects t.
void poseidon_permute(std::span<Fr> state);

/// Fixed-length Poseidon hash of 1..4 field elements (width t = n+1,
/// capacity element initialized to zero, output is state[0]), matching the
/// circomlib convention used by Semaphore/RLN.
Fr poseidon_hash(std::span<const Fr> inputs);

/// Conveniences for the common arities.
Fr poseidon1(const Fr& a);
Fr poseidon2(const Fr& a, const Fr& b);
Fr poseidon3(const Fr& a, const Fr& b, const Fr& c);

}  // namespace waku::hash

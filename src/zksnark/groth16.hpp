// Simulated Groth16 (paper §II-B uses real Groth16 [11] with an MPC setup
// [12-15]; see docs/ARCHITECTURE.md, "Substitutions", for why and how
// this stands in).
//
// What is real here:
//   * the R1CS relation and witness checking — `prove` refuses to produce a
//     proof for an unsatisfied constraint system;
//   * prover cost, linear in the number of constraints (three
//     random-linear-combination passes standing in for the MSMs);
//   * verifier cost, constant plus O(#public inputs) (the IC accumulation);
//   * constant 128-byte proofs bound to the exact circuit and public
//     inputs.
// What is simulated: the pairing check is replaced by a binding MAC keyed
// with the setup secret (the "toxic waste" analog), making this a
// designated-verifier argument. Soundness against parties who do not hold
// the setup secret matches the deployment model of the simulation, where
// the secret lives only inside the setup artifact.
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "zksnark/r1cs.hpp"

namespace waku::zksnark {

/// Raised when proof generation is attempted on an invalid witness or a
/// mismatched circuit.
class ProofError : public std::runtime_error {
 public:
  explicit ProofError(const std::string& what) : std::runtime_error(what) {}
};

/// 128-byte proof: three 32-byte "group element" stand-ins (A, B, C) plus
/// the 32-byte binding tag. Matches Groth16's constant-size property
/// (compressed BN254 Groth16 proofs are 128 bytes as well).
struct Proof {
  std::array<std::uint8_t, 32> a{};
  std::array<std::uint8_t, 32> b{};
  std::array<std::uint8_t, 32> c{};
  std::array<std::uint8_t, 32> binding{};

  [[nodiscard]] Bytes serialize() const;
  static Proof deserialize(BytesView bytes);

  friend bool operator==(const Proof&, const Proof&) = default;

  static constexpr std::size_t kSerializedSize = 128;
};

/// Prover-side setup artifact. Sized like a real proving key: per-constraint
/// and per-variable elements, so serialized size scales with the circuit.
struct ProvingKey {
  Fr circuit_digest;
  std::uint64_t num_constraints = 0;
  std::uint64_t num_variables = 0;
  std::uint64_t num_public = 0;
  std::vector<Fr> a_query;  // one element per constraint
  std::vector<Fr> b_query;
  std::vector<Fr> c_query;
  std::array<std::uint8_t, 32> setup_secret{};

  /// Size of the serialized key — the paper's ~3.89 MB prover-key figure.
  [[nodiscard]] std::size_t serialized_size() const;
  [[nodiscard]] Bytes serialize() const;
};

/// Verifier-side setup artifact: constant-size core plus one element per
/// public input (the IC terms of a real Groth16 verifying key).
struct VerifyingKey {
  Fr circuit_digest;
  std::uint64_t num_public = 0;
  std::vector<Fr> ic;  // num_public + 1 elements
  std::array<std::uint8_t, 32> setup_secret{};

  [[nodiscard]] std::size_t serialized_size() const;
};

struct Keypair {
  ProvingKey pk;
  VerifyingKey vk;
};

/// One-time parameter generation for a circuit (the MPC ceremony analog).
Keypair trusted_setup(const ConstraintSystem& cs, Rng& rng);

/// Generates a proof for `assignment` (layout: [1, publics..., privates...]).
/// Throws ProofError if the witness does not satisfy `cs` or the key does
/// not match the circuit. This is the one satisfaction check on the
/// publish path; the key check is O(1) for a sealed `cs`.
Proof prove(const ProvingKey& pk, const ConstraintSystem& cs,
            std::span<const Fr> assignment, Rng& rng);

/// Verifies `proof` against the claimed public inputs. Constant-time in the
/// circuit size; linear in the number of public inputs. Cost-shaped like a
/// real verifier: IC accumulation plus three Miller loops and one final
/// exponentiation (the pairing-product check the binding MAC stands in for).
bool verify(const VerifyingKey& vk, std::span<const Fr> public_inputs,
            const Proof& proof);

/// One (public inputs, proof) pair of a verification batch.
struct BatchEntry {
  std::vector<Fr> public_inputs;
  Proof proof;
};

struct BatchVerifyOutcome {
  /// Per-entry results, same order as the input.
  std::vector<bool> ok;
  /// True when the whole batch was settled by the single aggregated check;
  /// false when a mismatch forced the per-proof fallback pass.
  bool aggregated = false;
  /// Pairing work the call priced: k + 2 Miller loops and one final
  /// exponentiation for the aggregate of k entries, plus 3 and 1 for each
  /// entry the fallback re-verifies; 3 and 1 for a batch of one. An entry
  /// with the wrong number of public inputs prices nothing.
  std::uint64_t miller_loops = 0;
  std::uint64_t final_exps = 0;
};

/// Batched verification via random-linear-combination aggregation: each
/// entry's pairing check is scaled by a fresh random weight from `rng` and
/// the weighted checks are collapsed into one aggregate equation, so the
/// batch shares the C/IC/alpha-beta Miller loops and the final
/// exponentiation; only the per-proof e(A_i, B_i) loop stays per entry.
/// If the aggregate fails, every entry is re-verified individually to
/// isolate the bad proofs (per-proof fallback), so the result vector is
/// always exact. Equivalent to calling verify() per entry, just cheaper
/// in the all-valid common case.
BatchVerifyOutcome verify_batch(const VerifyingKey& vk,
                                std::span<const BatchEntry> entries, Rng& rng);

}  // namespace waku::zksnark

// Rank-1 Constraint System: the arithmetization Groth16 consumes.
//
// A constraint is <A,s> * <B,s> = <C,s> over the witness vector s, whose
// layout is the Groth16 convention: s[0] = 1, then the public inputs, then
// the private witness. The RLN relation (paper §II-B items 1-3) is compiled
// into this form by rln_circuit.hpp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ff/fr.hpp"

namespace waku::zksnark {

using ff::Fr;

/// Index into the witness vector; 0 is the constant-one wire.
using VarIndex = std::uint32_t;

constexpr VarIndex kOneVar = 0;

/// Sparse linear combination sum(coeff_i * s[var_i]).
class LinearCombination {
 public:
  LinearCombination() = default;

  static LinearCombination constant(const Fr& c);
  static LinearCombination variable(VarIndex v, const Fr& coeff = Fr::one());

  LinearCombination& add_term(VarIndex v, const Fr& coeff);

  LinearCombination operator+(const LinearCombination& o) const;
  LinearCombination operator-(const LinearCombination& o) const;
  [[nodiscard]] LinearCombination scaled(const Fr& k) const;

  [[nodiscard]] Fr evaluate(std::span<const Fr> assignment) const;

  [[nodiscard]] const std::vector<std::pair<VarIndex, Fr>>& terms() const {
    return terms_;
  }
  [[nodiscard]] bool empty() const { return terms_.empty(); }

 private:
  // Kept merged by variable index (small vectors; Poseidon wiring keeps
  // combinations a handful of terms long).
  std::vector<std::pair<VarIndex, Fr>> terms_;
};

/// One R1CS constraint with an annotation for debuggability.
struct Constraint {
  LinearCombination a;
  LinearCombination b;
  LinearCombination c;
  std::string annotation;
};

/// The constraint system plus variable bookkeeping. A finished system can
/// be sealed: its digest is computed once and it accepts no more variables
/// or constraints, so it can be shared read-only across threads.
class ConstraintSystem {
 public:
  /// Allocates a public-input variable. All public inputs must be
  /// allocated before any private witness variable (Groth16 layout).
  VarIndex allocate_public();

  /// Allocates a private witness variable.
  VarIndex allocate_private();

  /// Adds constraint a * b = c.
  void enforce(LinearCombination a, LinearCombination b, LinearCombination c,
               std::string annotation = {});

  [[nodiscard]] std::size_t num_constraints() const {
    return constraints_.size();
  }
  /// Total variables including the constant-one wire.
  [[nodiscard]] std::size_t num_variables() const { return num_vars_; }
  [[nodiscard]] std::size_t num_public() const { return num_public_; }
  [[nodiscard]] const std::vector<Constraint>& constraints() const {
    return constraints_;
  }

  /// Checks every constraint against a full assignment (s[0] must be 1).
  /// On failure optionally reports the first violated annotation.
  [[nodiscard]] bool is_satisfied(std::span<const Fr> assignment,
                                  std::string* first_violation = nullptr) const;

  /// Deterministic digest of the circuit structure; binds proofs to the
  /// exact constraint system they were generated for. O(1) once sealed.
  [[nodiscard]] Fr digest() const;

  /// Computes and stores the digest; further allocation or enforce() calls
  /// fail a precondition.
  void seal();
  [[nodiscard]] bool sealed() const { return sealed_; }

 private:
  [[nodiscard]] Fr compute_digest() const;

  std::size_t num_vars_ = 1;  // the constant-one wire
  std::size_t num_public_ = 0;
  bool private_allocated_ = false;
  bool sealed_ = false;
  Fr digest_;  // valid once sealed_
  std::vector<Constraint> constraints_;
};

}  // namespace waku::zksnark

// Rank-1 Constraint System: the arithmetization Groth16 consumes.
//
// A constraint is <A,s> * <B,s> = <C,s> over the witness vector s, whose
// layout is the Groth16 convention: s[0] = 1, then the public inputs, then
// the private witness. The RLN relation (paper §II-B items 1-3) is compiled
// into this form by rln_circuit.hpp.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/expect.hpp"
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

/// The three sides of a constraint a * b = c.
enum class Side : std::uint8_t { kA = 0, kB = 1, kC = 2 };

/// The constraint system plus variable bookkeeping. Constraints live in one
/// flat store: an end offset per linear combination (three per constraint,
/// a then b then c), 8-byte terms that index an interned coefficient table,
/// and an interned annotation per constraint. A finished system can be
/// sealed: its digest is computed once, the interning indexes are dropped,
/// and it accepts no more variables or constraints, so it can be shared
/// read-only across threads.
class ConstraintSystem {
 public:
  /// Allocates a public-input variable. All public inputs must be
  /// allocated before any private witness variable (Groth16 layout).
  VarIndex allocate_public();

  /// Allocates a private witness variable.
  VarIndex allocate_private();

  /// Adds constraint a * b = c, copying the terms into the flat store.
  void enforce(const LinearCombination& a, const LinearCombination& b,
               const LinearCombination& c, std::string_view annotation = {});

  [[nodiscard]] std::size_t num_constraints() const {
    return note_of_.size();
  }
  /// Total variables including the constant-one wire.
  [[nodiscard]] std::size_t num_variables() const { return num_vars_; }
  [[nodiscard]] std::size_t num_public() const { return num_public_; }

  /// <side, s> of constraint i: one multiply per term.
  [[nodiscard]] Fr evaluate(std::size_t i, Side which,
                            std::span<const Fr> assignment) const {
    Fr acc = Fr::zero();
    for (const Term& t : lc_terms(3 * i + static_cast<std::size_t>(which))) {
      WAKU_ASSERT(t.var < assignment.size());
      acc += coeffs_[t.coeff] * assignment[t.var];
    }
    return acc;
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
  struct Term {
    VarIndex var;
    std::uint32_t coeff;  // index into coeffs_
  };

  [[nodiscard]] std::span<const Term> lc_terms(std::size_t lc) const {
    const std::uint32_t begin = lc == 0 ? 0 : lc_end_[lc - 1];
    return std::span<const Term>(terms_).subspan(begin, lc_end_[lc] - begin);
  }
  [[nodiscard]] Fr compute_digest() const;

  std::size_t num_vars_ = 1;  // the constant-one wire
  std::size_t num_public_ = 0;
  bool private_allocated_ = false;
  bool sealed_ = false;
  Fr digest_;  // valid once sealed_
  std::vector<std::uint32_t> lc_end_;  // 3 per constraint, into terms_
  std::vector<Term> terms_;
  std::vector<Fr> coeffs_;             // distinct coefficients
  std::vector<std::uint32_t> note_of_;  // per constraint, into notes_
  std::vector<std::string> notes_;      // distinct annotations
  // Interning indexes; needed only while enforce() can still be called.
  std::unordered_map<Fr, std::uint32_t, ff::FrHash> coeff_ids_;
  std::unordered_map<std::string, std::uint32_t> note_ids_;
};

}  // namespace waku::zksnark

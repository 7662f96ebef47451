// Circuit builder: simultaneously constructs R1CS constraints and the
// witness assignment, gadget-style. Linear operations are free (folded into
// linear combinations); each multiplication or materialization costs one
// constraint, mirroring how Semaphore/RLN circuits are written in circom.
//
// A builder constructed over an existing sealed system runs the same
// gadgets in witness-only mode: wires carry values only, and the system
// (built once from those gadgets) stands in for the constraints. This is
// how a prover fills in a witness without rebuilding the circuit.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "zksnark/r1cs.hpp"

namespace waku::zksnark {

/// A value flowing through the circuit: a linear combination over allocated
/// variables plus its concrete witness value. The combination stays empty
/// in witness-only mode.
struct Wire {
  LinearCombination lc;
  Fr value;
};

class CircuitBuilder {
 public:
  /// Builds constraints and witness together.
  CircuitBuilder() { assignment_.push_back(Fr::one()); }

  /// Witness-only mode over `system`, which must be sealed and built from
  /// the same gadget calls; cs() returns it. No linear combinations,
  /// constraints or annotations are made.
  explicit CircuitBuilder(const ConstraintSystem& system);

  [[nodiscard]] bool witness_only() const { return shared_ != nullptr; }

  /// Allocates a public input carrying `value`.
  Wire public_input(const Fr& value);

  /// Overwrites the value of public input `k` (0-based, allocation order).
  /// Lets a circuit allocate its public slots first and fill in the ones
  /// its gadgets compute afterwards.
  void set_public(std::size_t k, const Fr& value);

  /// Allocates a private witness variable carrying `value`.
  Wire witness(const Fr& value);

  /// The constant-one wire scaled by c.
  [[nodiscard]] Wire constant(const Fr& c) const;

  // Linear operations: no constraints added.
  [[nodiscard]] Wire add(const Wire& a, const Wire& b) const;
  [[nodiscard]] Wire sub(const Wire& a, const Wire& b) const;
  [[nodiscard]] Wire scale(const Wire& a, const Fr& k) const;

  /// a * b; allocates one product variable and one constraint.
  Wire mul(const Wire& a, const Wire& b, std::string_view note = {});

  /// Returns a single-variable wire equal to `a` (one constraint). Used to
  /// stop linear-combination growth in iterated constructions (Poseidon).
  Wire materialize(const Wire& a, std::string_view note = {});

  /// Enforces a == b (one constraint).
  void assert_equal(const Wire& a, const Wire& b, std::string_view note = {});

  /// Enforces that `bit` is 0 or 1 (one constraint).
  void assert_boolean(const Wire& bit, std::string_view note = {});

  /// (s == 0) ? (l, r) : (r, l) — the Merkle path ordering switch.
  /// Costs one constraint; `s` must already be boolean-constrained.
  std::pair<Wire, Wire> conditional_swap(const Wire& s, const Wire& l,
                                         const Wire& r);

  [[nodiscard]] const ConstraintSystem& cs() const {
    return shared_ != nullptr ? *shared_ : cs_;
  }
  [[nodiscard]] std::span<const Fr> assignment() const { return assignment_; }

  /// Moves the built system out (build mode only); the builder is spent.
  [[nodiscard]] ConstraintSystem take_cs() &&;

  /// Sanity: the built witness satisfies cs().
  [[nodiscard]] bool satisfied(std::string* first_violation = nullptr) const {
    return cs().is_satisfied(assignment_, first_violation);
  }

 private:
  Wire allocate(const Fr& value, bool is_public);
  void enforce(const LinearCombination& a, const LinearCombination& b,
               const LinearCombination& c, std::string_view note,
               std::string_view fallback);

  const ConstraintSystem* shared_ = nullptr;  // set in witness-only mode
  ConstraintSystem cs_;
  std::vector<Fr> assignment_;
};

}  // namespace waku::zksnark

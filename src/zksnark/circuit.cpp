#include "zksnark/circuit.hpp"

#include "common/expect.hpp"

namespace waku::zksnark {

CircuitBuilder::CircuitBuilder(const ConstraintSystem& system)
    : shared_(&system) {
  WAKU_EXPECTS(system.sealed());
  assignment_.reserve(system.num_variables());
  assignment_.push_back(Fr::one());
}

Wire CircuitBuilder::allocate(const Fr& value, bool is_public) {
  assignment_.push_back(value);
  if (witness_only()) return Wire{{}, value};
  const VarIndex v =
      is_public ? cs_.allocate_public() : cs_.allocate_private();
  WAKU_ASSERT(v + 1 == assignment_.size());
  return Wire{LinearCombination::variable(v), value};
}

void CircuitBuilder::enforce(const LinearCombination& a,
                             const LinearCombination& b,
                             const LinearCombination& c, std::string_view note,
                             std::string_view fallback) {
  cs_.enforce(a, b, c, note.empty() ? fallback : note);
}

ConstraintSystem CircuitBuilder::take_cs() && {
  WAKU_EXPECTS(!witness_only());
  return std::move(cs_);
}

Wire CircuitBuilder::public_input(const Fr& value) {
  return allocate(value, /*is_public=*/true);
}

void CircuitBuilder::set_public(std::size_t k, const Fr& value) {
  WAKU_EXPECTS(k < cs().num_public() && k + 1 < assignment_.size());
  assignment_[1 + k] = value;
}

Wire CircuitBuilder::witness(const Fr& value) {
  return allocate(value, /*is_public=*/false);
}

Wire CircuitBuilder::constant(const Fr& c) const {
  if (witness_only()) return Wire{{}, c};
  return Wire{LinearCombination::constant(c), c};
}

// In witness-only mode every wire's combination is empty, so these stay
// allocation-free without a branch of their own.
Wire CircuitBuilder::add(const Wire& a, const Wire& b) const {
  return Wire{a.lc + b.lc, a.value + b.value};
}

Wire CircuitBuilder::sub(const Wire& a, const Wire& b) const {
  return Wire{a.lc - b.lc, a.value - b.value};
}

Wire CircuitBuilder::scale(const Wire& a, const Fr& k) const {
  return Wire{a.lc.scaled(k), a.value * k};
}

Wire CircuitBuilder::mul(const Wire& a, const Wire& b, std::string_view note) {
  const Wire out = witness(a.value * b.value);
  if (!witness_only()) enforce(a.lc, b.lc, out.lc, note, "mul");
  return out;
}

Wire CircuitBuilder::materialize(const Wire& a, std::string_view note) {
  const Wire out = witness(a.value);
  if (!witness_only()) {
    enforce(a.lc, LinearCombination::constant(Fr::one()), out.lc, note,
            "materialize");
  }
  return out;
}

void CircuitBuilder::assert_equal(const Wire& a, const Wire& b,
                                  std::string_view note) {
  if (witness_only()) return;
  enforce(a.lc - b.lc, LinearCombination::constant(Fr::one()),
          LinearCombination{}, note, "assert_equal");
}

void CircuitBuilder::assert_boolean(const Wire& bit, std::string_view note) {
  if (witness_only()) return;
  // bit * (1 - bit) = 0
  enforce(bit.lc, LinearCombination::constant(Fr::one()) - bit.lc,
          LinearCombination{}, note, "boolean");
}

std::pair<Wire, Wire> CircuitBuilder::conditional_swap(const Wire& s,
                                                       const Wire& l,
                                                       const Wire& r) {
  // t = s * (r - l); first = l + t; second = r - t.
  const Wire t = mul(s, sub(r, l), "cond_swap");
  return {add(l, t), sub(r, t)};
}

}  // namespace waku::zksnark

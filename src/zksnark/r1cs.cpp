#include "zksnark/r1cs.hpp"

#include <algorithm>

#include "common/expect.hpp"
#include "common/serde.hpp"
#include "hash/sha256.hpp"

namespace waku::zksnark {

LinearCombination LinearCombination::constant(const Fr& c) {
  return variable(kOneVar, c);
}

LinearCombination LinearCombination::variable(VarIndex v, const Fr& coeff) {
  LinearCombination lc;
  lc.add_term(v, coeff);
  return lc;
}

LinearCombination& LinearCombination::add_term(VarIndex v, const Fr& coeff) {
  if (coeff.is_zero()) return *this;
  auto it = std::lower_bound(
      terms_.begin(), terms_.end(), v,
      [](const auto& term, VarIndex idx) { return term.first < idx; });
  if (it != terms_.end() && it->first == v) {
    it->second += coeff;
    if (it->second.is_zero()) terms_.erase(it);
  } else {
    terms_.insert(it, {v, coeff});
  }
  return *this;
}

LinearCombination LinearCombination::operator+(
    const LinearCombination& o) const {
  LinearCombination out = *this;
  for (const auto& [v, c] : o.terms_) out.add_term(v, c);
  return out;
}

LinearCombination LinearCombination::operator-(
    const LinearCombination& o) const {
  LinearCombination out = *this;
  for (const auto& [v, c] : o.terms_) out.add_term(v, c.neg());
  return out;
}

LinearCombination LinearCombination::scaled(const Fr& k) const {
  LinearCombination out;
  if (k.is_zero()) return out;
  for (const auto& [v, c] : terms_) out.terms_.emplace_back(v, c * k);
  return out;
}

Fr LinearCombination::evaluate(std::span<const Fr> assignment) const {
  Fr acc = Fr::zero();
  for (const auto& [v, c] : terms_) {
    WAKU_ASSERT(v < assignment.size());
    acc += c * assignment[v];
  }
  return acc;
}

VarIndex ConstraintSystem::allocate_public() {
  WAKU_EXPECTS(!sealed_ && !private_allocated_);
  ++num_public_;
  return static_cast<VarIndex>(num_vars_++);
}

VarIndex ConstraintSystem::allocate_private() {
  WAKU_EXPECTS(!sealed_);
  private_allocated_ = true;
  return static_cast<VarIndex>(num_vars_++);
}

void ConstraintSystem::enforce(LinearCombination a, LinearCombination b,
                               LinearCombination c, std::string annotation) {
  WAKU_EXPECTS(!sealed_);
  constraints_.push_back(Constraint{std::move(a), std::move(b), std::move(c),
                                    std::move(annotation)});
}

bool ConstraintSystem::is_satisfied(std::span<const Fr> assignment,
                                    std::string* first_violation) const {
  if (assignment.size() != num_vars_ || assignment.empty() ||
      assignment[0] != Fr::one()) {
    if (first_violation) *first_violation = "malformed assignment";
    return false;
  }
  for (const Constraint& cst : constraints_) {
    const Fr a = cst.a.evaluate(assignment);
    const Fr b = cst.b.evaluate(assignment);
    const Fr c = cst.c.evaluate(assignment);
    if (a * b != c) {
      if (first_violation) {
        *first_violation =
            cst.annotation.empty() ? "<unannotated>" : cst.annotation;
      }
      return false;
    }
  }
  return true;
}

Fr ConstraintSystem::digest() const {
  return sealed_ ? digest_ : compute_digest();
}

void ConstraintSystem::seal() {
  digest_ = compute_digest();
  sealed_ = true;
}

Fr ConstraintSystem::compute_digest() const {
  ByteWriter w;
  w.write_u64(num_vars_);
  w.write_u64(num_public_);
  w.write_u64(constraints_.size());
  auto write_lc = [&w](const LinearCombination& lc) {
    w.write_u32(static_cast<std::uint32_t>(lc.terms().size()));
    for (const auto& [v, c] : lc.terms()) {
      w.write_u32(v);
      w.write_raw(c.to_bytes_be());
    }
  };
  for (const Constraint& cst : constraints_) {
    write_lc(cst.a);
    write_lc(cst.b);
    write_lc(cst.c);
  }
  return Fr::from_bytes_reduce(hash::sha256_bytes(w.data()));
}

}  // namespace waku::zksnark

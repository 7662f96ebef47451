#include "zksnark/r1cs.hpp"

#include <algorithm>

#include "common/expect.hpp"
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

void ConstraintSystem::enforce(const LinearCombination& a,
                               const LinearCombination& b,
                               const LinearCombination& c,
                               std::string_view annotation) {
  WAKU_EXPECTS(!sealed_);
  for (const LinearCombination* lc : {&a, &b, &c}) {
    for (const auto& [v, coeff] : lc->terms()) {
      const auto id = coeff_ids_.try_emplace(
          coeff, static_cast<std::uint32_t>(coeffs_.size()));
      if (id.second) coeffs_.push_back(coeff);
      terms_.push_back(Term{v, id.first->second});
    }
    lc_end_.push_back(static_cast<std::uint32_t>(terms_.size()));
  }
  const auto note = note_ids_.try_emplace(
      std::string(annotation), static_cast<std::uint32_t>(notes_.size()));
  if (note.second) notes_.emplace_back(annotation);
  note_of_.push_back(note.first->second);
}

bool ConstraintSystem::is_satisfied(std::span<const Fr> assignment,
                                    std::string* first_violation) const {
  if (assignment.size() != num_vars_ || assignment.empty() ||
      assignment[0] != Fr::one()) {
    if (first_violation) *first_violation = "malformed assignment";
    return false;
  }
  for (std::size_t i = 0; i < num_constraints(); ++i) {
    const Fr a = evaluate(i, Side::kA, assignment);
    const Fr b = evaluate(i, Side::kB, assignment);
    const Fr c = evaluate(i, Side::kC, assignment);
    if (a * b != c) {
      if (first_violation) {
        const std::string& note = notes_[note_of_[i]];
        *first_violation = note.empty() ? "<unannotated>" : note;
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
  coeff_ids_ = {};
  note_ids_ = {};
  lc_end_.shrink_to_fit();
  terms_.shrink_to_fit();
  note_of_.shrink_to_fit();
}

Fr ConstraintSystem::compute_digest() const {
  // SHA-256 of the ByteWriter encoding u64 num_vars | u64 num_public |
  // u64 num_constraints | per linear combination (u32 term count, then per
  // term u32 var | 32-byte big-endian coefficient), fed field by field:
  // built whole, that encoding is ~1.8 MB at depth 20 and set the peak
  // memory of building a keypair.
  hash::Sha256 h;
  h.update_le(num_vars_, 8);
  h.update_le(num_public_, 8);
  h.update_le(num_constraints(), 8);
  for (std::size_t lc = 0; lc < lc_end_.size(); ++lc) {
    const std::span<const Term> terms = lc_terms(lc);
    h.update_le(terms.size(), 4);
    for (const Term& t : terms) {
      h.update_le(t.var, 4);
      h.update(coeffs_[t.coeff].to_bytes_be());
    }
  }
  const hash::Sha256Digest digest = h.finalize();
  return Fr::from_bytes_reduce(digest);
}

}  // namespace waku::zksnark

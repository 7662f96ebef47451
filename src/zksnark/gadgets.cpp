#include "zksnark/gadgets.hpp"

#include "common/expect.hpp"
#include "hash/poseidon.hpp"

namespace waku::zksnark {

using hash::PoseidonParams;

Wire sbox_gadget(CircuitBuilder& b, const Wire& x) {
  const Wire x2 = b.mul(x, x, "sbox_x2");
  const Wire x4 = b.mul(x2, x2, "sbox_x4");
  return b.mul(x4, x, "sbox_x5");
}

void poseidon_permute_gadget(CircuitBuilder& b, std::vector<Wire>& state) {
  const std::size_t t = state.size();
  const PoseidonParams& p = hash::poseidon_params(t);
  const std::size_t half_full = p.full_rounds / 2;

  auto mix = [&](std::vector<Wire>& s) {
    std::vector<Wire> next;
    next.reserve(t);
    for (std::size_t i = 0; i < t; ++i) {
      Wire acc = b.constant(Fr::zero());
      for (std::size_t j = 0; j < t; ++j) {
        acc = b.add(acc, b.scale(s[j], p.m(i, j)));
      }
      next.push_back(acc);
    }
    s = std::move(next);
  };

  std::size_t round = 0;
  for (std::size_t r = 0; r < half_full; ++r, ++round) {
    for (std::size_t i = 0; i < t; ++i) {
      state[i] = sbox_gadget(b, b.add(state[i], b.constant(p.rc(round, i))));
    }
    mix(state);
  }
  for (std::size_t r = 0; r < p.partial_rounds; ++r, ++round) {
    for (std::size_t i = 0; i < t; ++i) {
      state[i] = b.add(state[i], b.constant(p.rc(round, i)));
    }
    state[0] = sbox_gadget(b, state[0]);
    // Materialize the linear lanes so combination sizes stay bounded across
    // the 56+ partial rounds (cost: t-1 constraints per round).
    for (std::size_t i = 1; i < t; ++i) {
      state[i] = b.materialize(state[i], "poseidon_partial_lane");
    }
    mix(state);
  }
  for (std::size_t r = 0; r < half_full; ++r, ++round) {
    for (std::size_t i = 0; i < t; ++i) {
      state[i] = sbox_gadget(b, b.add(state[i], b.constant(p.rc(round, i))));
    }
    mix(state);
  }
}

Wire poseidon_gadget(CircuitBuilder& b, std::span<const Wire> inputs) {
  WAKU_EXPECTS(!inputs.empty() && inputs.size() <= 4);
  std::vector<Wire> state;
  state.reserve(inputs.size() + 1);
  state.push_back(b.constant(Fr::zero()));
  for (const Wire& w : inputs) state.push_back(w);
  poseidon_permute_gadget(b, state);
  return state[0];
}

Wire poseidon1_gadget(CircuitBuilder& b, const Wire& a) {
  const std::array<Wire, 1> in{a};
  return poseidon_gadget(b, in);
}

Wire poseidon2_gadget(CircuitBuilder& b, const Wire& a, const Wire& c) {
  const std::array<Wire, 2> in{a, c};
  return poseidon_gadget(b, in);
}

Wire merkle_root_gadget(CircuitBuilder& b, const Wire& leaf,
                        const merkle::MerklePath& path) {
  Wire cur = leaf;
  for (std::size_t l = 0; l < path.siblings.size(); ++l) {
    const bool bit_val = (path.index >> l) & 1;
    const Wire bit = b.witness(bit_val ? Fr::one() : Fr::zero());
    b.assert_boolean(bit, "merkle_index_bit");
    const Wire sibling = b.witness(path.siblings[l]);
    // bit == 0: cur is the left child; bit == 1: sibling is.
    const auto [left, right] = b.conditional_swap(bit, cur, sibling);
    cur = poseidon2_gadget(b, left, right);
  }
  return cur;
}

}  // namespace waku::zksnark

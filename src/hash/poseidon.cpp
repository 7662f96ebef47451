#include "hash/poseidon.hpp"

#include <algorithm>
#include <array>
#include <mutex>
#include <string>

#include "common/expect.hpp"
#include "hash/sha256.hpp"

namespace waku::hash {

namespace {

// Partial-round counts per width for alpha=5 over BN254, from the Poseidon
// reference parameter search (R_F = 8 throughout).
constexpr std::size_t kPartialRounds[] = {0, 0, 56, 57, 56, 60};
constexpr std::size_t kFullRounds = 8;
constexpr std::size_t kMaxWidth = 5;

// Nothing-up-my-sleeve field element stream: Fr_i = SHA256(seed || i) mod r.
Fr nums_element(const std::string& seed, std::uint32_t index) {
  Bytes input = to_bytes(seed);
  for (int b = 0; b < 4; ++b) {
    input.push_back(static_cast<std::uint8_t>(index >> (8 * b)));
  }
  const Sha256Digest d = sha256(input);
  return Fr::from_bytes_reduce(BytesView(d.data(), d.size()));
}

// Builds a secure MDS matrix via the Cauchy construction
// M[i][j] = 1 / (x_i + y_j), with the 2t generators drawn from the NUMS
// stream and re-drawn until all are distinct and all sums invertible.
std::vector<Fr> build_mds(std::size_t t) {
  std::vector<Fr> xs;
  std::vector<Fr> ys;
  std::uint32_t counter = 0;
  auto fresh = [&](const std::vector<Fr>& a, const std::vector<Fr>& b,
                   const Fr& candidate) {
    for (const Fr& v : a) {
      if (v == candidate) return false;
    }
    for (const Fr& v : b) {
      // x_i + y_j must be non-zero for every pair, i.e. candidate != -v.
      if (candidate == v.neg()) return false;
    }
    return true;
  };
  const std::string seed = "waku-rln-poseidon-mds-t" + std::to_string(t);
  while (xs.size() < t) {
    const Fr c = nums_element(seed, counter++);
    if (fresh(xs, ys, c)) xs.push_back(c);
  }
  while (ys.size() < t) {
    const Fr c = nums_element(seed, counter++);
    if (fresh(ys, xs, c)) ys.push_back(c);
  }
  std::vector<Fr> mds(t * t);
  for (std::size_t i = 0; i < t; ++i) {
    for (std::size_t j = 0; j < t; ++j) {
      mds[i * t + j] = (xs[i] + ys[j]).inverse();
    }
  }
  return mds;
}

PoseidonParams build_params(std::size_t t) {
  WAKU_EXPECTS(t >= 2 && t <= kMaxWidth);
  PoseidonParams p;
  p.t = t;
  p.full_rounds = kFullRounds;
  p.partial_rounds = kPartialRounds[t];
  const std::size_t n = t * p.total_rounds();
  p.round_constants.reserve(n);
  const std::string seed = "waku-rln-poseidon-rc-t" + std::to_string(t);
  for (std::uint32_t i = 0; i < n; ++i) {
    p.round_constants.push_back(nums_element(seed, i));
  }
  p.mds = build_mds(t);
  return p;
}

Fr sbox(const Fr& x) {
  const Fr x2 = x.square();
  const Fr x4 = x2.square();
  return x4 * x;
}

}  // namespace

const PoseidonParams& poseidon_params(std::size_t t) {
  WAKU_EXPECTS(t >= 2 && t <= kMaxWidth);
  static std::array<PoseidonParams, 6> cache;
  static std::once_flag flags[6];
  std::call_once(flags[t], [t] { cache[t] = build_params(t); });
  return cache[t];
}

void poseidon_permute(std::span<Fr> state) {
  const std::size_t t = state.size();
  const PoseidonParams& p = poseidon_params(t);

  std::array<Fr, kMaxWidth> next;
  const std::size_t half_full = p.full_rounds / 2;

  auto mix = [&](std::span<Fr> s) {
    for (std::size_t i = 0; i < t; ++i) {
      Fr acc = Fr::zero();
      for (std::size_t j = 0; j < t; ++j) acc += p.m(i, j) * s[j];
      next[i] = acc;
    }
    for (std::size_t i = 0; i < t; ++i) s[i] = next[i];
  };

  std::size_t round = 0;
  for (std::size_t r = 0; r < half_full; ++r, ++round) {
    for (std::size_t i = 0; i < t; ++i) {
      state[i] = sbox(state[i] + p.rc(round, i));
    }
    mix(state);
  }
  for (std::size_t r = 0; r < p.partial_rounds; ++r, ++round) {
    for (std::size_t i = 0; i < t; ++i) state[i] += p.rc(round, i);
    state[0] = sbox(state[0]);
    mix(state);
  }
  for (std::size_t r = 0; r < half_full; ++r, ++round) {
    for (std::size_t i = 0; i < t; ++i) {
      state[i] = sbox(state[i] + p.rc(round, i));
    }
    mix(state);
  }
}

Fr poseidon_hash(std::span<const Fr> inputs) {
  WAKU_EXPECTS(!inputs.empty() && inputs.size() < kMaxWidth);
  std::array<Fr, kMaxWidth> state{};
  std::copy(inputs.begin(), inputs.end(), state.begin() + 1);
  poseidon_permute(std::span<Fr>(state.data(), inputs.size() + 1));
  return state[0];
}

Fr poseidon1(const Fr& a) {
  const std::array<Fr, 1> in{a};
  return poseidon_hash(in);
}

Fr poseidon2(const Fr& a, const Fr& b) {
  const std::array<Fr, 2> in{a, b};
  return poseidon_hash(in);
}

Fr poseidon3(const Fr& a, const Fr& b, const Fr& c) {
  const std::array<Fr, 3> in{a, b, c};
  return poseidon_hash(in);
}

}  // namespace waku::hash

#include "hash/poseidon.hpp"

#include <algorithm>
#include <array>
#include <mutex>
#include <string>
#include <utility>

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

// --- Sparse partial rounds (Poseidon paper, App. B) ----------------------
//
// The native permutation computes the same function as the plain round
// structure (add constants, S-box, multiply by M) with cheaper partial
// rounds. Two rewrites, both exact:
//  - Constants: in a partial round only lane 0 meets the S-box, so the
//    constants of lanes 1..t-1 pass through it linearly. They are pushed
//    forward as M·(0, c_1..c_{t-1}) into the next round's constants, and
//    the last carry lands on the first full round after the partial ones.
//  - Matrices: walking the partial rounds backwards from A = M, A factors
//    as M_s·M_d with M_d = diag(1, Â) and
//    M_s = [[a00, a0'·Â⁻¹], [a', I]]. M_d commutes with the lane-0 S-box,
//    so it moves into the previous round's matrix (A <- M_d·M); the last
//    full round before the partial ones multiplies by the final A. Each
//    M_s costs 2t-1 multiplies.

// One partial round: s0 = sbox(s0 + c), then out0 = row·s and
// s_i += col[i]·s0 for i >= 1.
struct SparseRound {
  Fr c;
  std::array<Fr, kMaxWidth> row{};
  std::array<Fr, kMaxWidth> col{};  // col[0] unused
};

struct SparseTables {
  /// Round constants as the native loop adds them: round-major, t per
  /// round; partial rounds use their SparseRound::c instead.
  std::vector<Fr> round_constants;
  /// Replaces M in the last full round before the partial rounds.
  std::vector<Fr> pre_partial_mds;
  std::vector<SparseRound> partial;
};

using Matrix = std::vector<Fr>;  // n x n, row-major

// Gauss-Jordan inverse over Fr. The blocks inverted here are products of
// Cauchy submatrices, which are always invertible.
Matrix mat_inverse(Matrix a, std::size_t n) {
  Matrix inv(n * n);
  for (std::size_t i = 0; i < n; ++i) inv[i * n + i] = Fr::one();
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    while (pivot < n && a[pivot * n + col].is_zero()) ++pivot;
    WAKU_ENSURES(pivot < n);
    for (std::size_t k = 0; k < n; ++k) {
      std::swap(a[col * n + k], a[pivot * n + k]);
      std::swap(inv[col * n + k], inv[pivot * n + k]);
    }
    const Fr scale = a[col * n + col].inverse();
    for (std::size_t k = 0; k < n; ++k) {
      a[col * n + k] *= scale;
      inv[col * n + k] *= scale;
    }
    for (std::size_t row = 0; row < n; ++row) {
      const Fr f = a[row * n + col];
      if (row == col || f.is_zero()) continue;
      for (std::size_t k = 0; k < n; ++k) {
        a[row * n + k] -= f * a[col * n + k];
        inv[row * n + k] -= f * inv[col * n + k];
      }
    }
  }
  return inv;
}

SparseTables build_sparse(const PoseidonParams& p) {
  const std::size_t t = p.t;
  const std::size_t n = t - 1;
  const std::size_t first_partial = p.full_rounds / 2;
  SparseTables sp;
  sp.round_constants = p.round_constants;
  sp.partial.resize(p.partial_rounds);

  // Constants: keep lane 0 of each partial round, carry the rest forward.
  std::array<Fr, kMaxWidth> carry{};
  for (std::size_t r = 0; r < p.partial_rounds; ++r) {
    const std::size_t round = first_partial + r;
    std::array<Fr, kMaxWidth> c{};
    for (std::size_t i = 0; i < t; ++i) c[i] = p.rc(round, i) + carry[i];
    sp.partial[r].c = c[0];
    for (std::size_t i = 0; i < t; ++i) {
      Fr acc = Fr::zero();
      for (std::size_t j = 1; j < t; ++j) acc += p.m(i, j) * c[j];
      carry[i] = acc;
    }
  }
  const std::size_t after = first_partial + p.partial_rounds;
  for (std::size_t i = 0; i < t; ++i) {
    sp.round_constants[after * t + i] += carry[i];
  }

  // Matrices: factor A = M_s·M_d from the last partial round backwards.
  Matrix a = p.mds;
  for (std::size_t r = p.partial_rounds; r-- > 0;) {
    Matrix hat(n * n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        hat[i * n + j] = a[(i + 1) * t + (j + 1)];
      }
    }
    const Matrix hat_inv = mat_inverse(hat, n);
    SparseRound& sr = sp.partial[r];
    sr.row[0] = a[0];
    for (std::size_t j = 0; j < n; ++j) {
      Fr acc = Fr::zero();
      for (std::size_t k = 0; k < n; ++k) acc += a[k + 1] * hat_inv[k * n + j];
      sr.row[j + 1] = acc;
      sr.col[j + 1] = a[(j + 1) * t];
    }
    // A <- M_d·M: row 0 is M's, rows 1.. are Â times M's rows 1...
    Matrix prev = p.mds;
    for (std::size_t i = 1; i < t; ++i) {
      for (std::size_t j = 0; j < t; ++j) {
        Fr acc = Fr::zero();
        for (std::size_t k = 1; k < t; ++k) acc += a[i * t + k] * p.m(k, j);
        prev[i * t + j] = acc;
      }
    }
    a = std::move(prev);
  }
  sp.pre_partial_mds = std::move(a);
  return sp;
}

struct Instance {
  PoseidonParams params;
  SparseTables sparse;
};

const Instance& instance(std::size_t t) {
  WAKU_EXPECTS(t >= 2 && t <= kMaxWidth);
  static std::array<Instance, kMaxWidth + 1> cache;
  static std::once_flag flags[kMaxWidth + 1];
  std::call_once(flags[t], [t] {
    cache[t].params = build_params(t);
    cache[t].sparse = build_sparse(cache[t].params);
  });
  return cache[t];
}

Fr sbox(const Fr& x) {
  const Fr x2 = x.square();
  const Fr x4 = x2.square();
  return x4 * x;
}

}  // namespace

const PoseidonParams& poseidon_params(std::size_t t) {
  return instance(t).params;
}

void poseidon_permute(std::span<Fr> state) {
  const std::size_t t = state.size();
  const Instance& inst = instance(t);
  const SparseTables& sp = inst.sparse;
  const std::size_t half_full = inst.params.full_rounds / 2;

  std::array<Fr, kMaxWidth> next;
  auto full_round = [&](std::size_t round, const std::vector<Fr>& m) {
    for (std::size_t i = 0; i < t; ++i) {
      state[i] = sbox(state[i] + sp.round_constants[round * t + i]);
    }
    for (std::size_t i = 0; i < t; ++i) {
      Fr acc = Fr::zero();
      for (std::size_t j = 0; j < t; ++j) acc += m[i * t + j] * state[j];
      next[i] = acc;
    }
    for (std::size_t i = 0; i < t; ++i) state[i] = next[i];
  };

  std::size_t round = 0;
  for (; round + 1 < half_full; ++round) full_round(round, inst.params.mds);
  full_round(round++, sp.pre_partial_mds);
  for (const SparseRound& sr : sp.partial) {
    const Fr s0 = sbox(state[0] + sr.c);
    Fr out0 = sr.row[0] * s0;
    for (std::size_t i = 1; i < t; ++i) {
      out0 += sr.row[i] * state[i];
      state[i] += sr.col[i] * s0;
    }
    state[0] = out0;
  }
  round += sp.partial.size();
  for (std::size_t r = 0; r < half_full; ++r, ++round) {
    full_round(round, inst.params.mds);
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

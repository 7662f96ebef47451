// Fr: the scalar field of BN254 (a.k.a. alt_bn128), the field Semaphore/RLN
// circuits are defined over.
//
//   r = 21888242871839275222246405745257275088548364400416034343698204186575808495617
//
// Elements are kept in Montgomery form (x·2^256 mod r) so multiplication is
// a single 4-limb CIOS pass. All Montgomery constants (R, R², -r⁻¹ mod
// 2^64) are computed at compile time from the modulus, which removes a
// whole class of hand-transcription bugs. Addition, subtraction and
// multiplication are inline: the prover, Poseidon and the verifier's
// pairing chains are loops of them. None of this arithmetic is
// constant-time: the final reductions branch on values and operator==
// exits early.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "ff/u256.hpp"

namespace waku::ff {

namespace detail {

/// The BN254 scalar field modulus r.
inline constexpr U256 kFrModulus{0x43e1f593f0000001ULL, 0x2833e84879b97091ULL,
                                 0xb85045b68181585dULL, 0x30644e72e131a029ULL};

// -r^{-1} mod 2^64 via Newton iteration: x_{k+1} = x_k * (2 - r*x_k).
// Six iterations double the correct low bits from 1 to 64.
constexpr std::uint64_t compute_inv() {
  const std::uint64_t r0 = kFrModulus.limb[0];
  std::uint64_t x = 1;
  for (int i = 0; i < 6; ++i) {
    x *= 2 - r0 * x;  // arithmetic is mod 2^64 by construction
  }
  return ~x + 1;  // negate
}

// 2^256 mod r, by doubling 1 modulo r 256 times.
constexpr U256 compute_r() {
  U256 x{1};
  for (int i = 0; i < 256; ++i) x = double_mod(x, kFrModulus);
  return x;
}

inline constexpr std::uint64_t kFrInv = compute_inv();
/// R = 2^256 mod r: the Montgomery form of one.
inline constexpr U256 kFrR = compute_r();

static_assert(kFrModulus.limb[0] * kFrInv == 0xffffffffffffffffULL,
              "Montgomery INV constant must satisfy r*(-r^-1) == -1 mod 2^64");

// The 4-limb CIOS loop below never carries out of the top limb only because
// r's top limb leaves its high bit clear and is not 2^63 - 1: each partial
// result then stays below 2r and fits in four limbs.
static_assert(kFrModulus.limb[3] < 0x7FFFFFFFFFFFFFFFULL,
              "4-limb Montgomery multiply needs r's top limb < 2^63 - 1");

// t = a*b*2^{-256} mod r for a, b < r. CIOS with the multiply and reduce
// passes interleaved over a 4-limb accumulator (no spill limbs); the
// result is canonical (< r).
constexpr U256 mont_mul(const U256& a, const U256& b) {
  using u128 = unsigned __int128;
  std::uint64_t t[4] = {0, 0, 0, 0};
  for (std::size_t i = 0; i < 4; ++i) {
    // t += a * b[i], then add m*r with m = t[0]*inv mod 2^64 and shift
    // one limb; `hi` carries the product chain, `lo` the reduction chain.
    u128 cur = static_cast<u128>(a.limb[0]) * b.limb[i] + t[0];
    u128 hi = cur >> 64;
    const std::uint64_t t0 = static_cast<std::uint64_t>(cur);
    const std::uint64_t m = t0 * kFrInv;
    u128 lo = (static_cast<u128>(m) * kFrModulus.limb[0] + t0) >> 64;
    for (std::size_t j = 1; j < 4; ++j) {
      cur = static_cast<u128>(a.limb[j]) * b.limb[i] + t[j] + hi;
      hi = cur >> 64;
      cur = static_cast<u128>(m) * kFrModulus.limb[j] +
            static_cast<std::uint64_t>(cur) + lo;
      lo = cur >> 64;
      t[j - 1] = static_cast<std::uint64_t>(cur);
    }
    t[3] = static_cast<std::uint64_t>(hi + lo);
  }
  U256 res{t[0], t[1], t[2], t[3]};
  if (res >= kFrModulus) {
    bool borrow = false;
    res = sub_borrow(res, kFrModulus, borrow);
  }
  return res;
}

constexpr U256 add_mod(const U256& a, const U256& b) {
  return ff::add_mod(a, b, kFrModulus);
}

constexpr U256 sub_mod(const U256& a, const U256& b) {
  bool borrow = false;
  U256 r = sub_borrow(a, b, borrow);
  if (borrow) {
    bool carry = false;
    r = add_carry(r, kFrModulus, carry);
  }
  return r;
}

}  // namespace detail

class Fr {
 public:
  /// The BN254 scalar field modulus r.
  static constexpr U256 kModulus = detail::kFrModulus;

  constexpr Fr() = default;

  static Fr zero() noexcept { return Fr{}; }
  static Fr one() noexcept { return Fr{detail::kFrR}; }

  /// Lifts a machine word into the field.
  static Fr from_u64(std::uint64_t v);

  /// Reduces an arbitrary 256-bit value modulo r (used for hash-to-field).
  static Fr from_u256_reduce(const U256& v);

  /// Parses a canonical (already < r) value; throws if v >= r.
  static Fr from_u256_canonical(const U256& v);

  /// Reduces arbitrary bytes (big-endian, any length <= 32) into the field.
  static Fr from_bytes_reduce(BytesView bytes);

  /// Uniform random field element via rejection sampling on 254-bit draws.
  static Fr random(Rng& rng);

  /// Canonical value in [0, r).
  [[nodiscard]] U256 to_u256() const;

  /// Canonical 32-byte big-endian serialization.
  [[nodiscard]] Bytes to_bytes_be() const;

  /// Zero's Montgomery form is zero, so no reduction is needed.
  [[nodiscard]] bool is_zero() const { return mont_.is_zero(); }

  Fr operator+(const Fr& o) const {
    return Fr{detail::add_mod(mont_, o.mont_)};
  }
  Fr operator-(const Fr& o) const {
    return Fr{detail::sub_mod(mont_, o.mont_)};
  }
  Fr operator*(const Fr& o) const {
    return Fr{detail::mont_mul(mont_, o.mont_)};
  }
  Fr& operator+=(const Fr& o) { return *this = *this + o; }
  Fr& operator-=(const Fr& o) { return *this = *this - o; }
  Fr& operator*=(const Fr& o) { return *this = *this * o; }
  [[nodiscard]] Fr neg() const;
  [[nodiscard]] Fr square() const { return *this * *this; }

  /// Exponentiation by a 256-bit exponent (square-and-multiply).
  [[nodiscard]] Fr pow(const U256& e) const;
  [[nodiscard]] Fr pow(std::uint64_t e) const { return pow(U256{e}); }

  /// Multiplicative inverse via Fermat's little theorem; requires non-zero.
  [[nodiscard]] Fr inverse() const;

  friend bool operator==(const Fr& a, const Fr& b) {
    return a.mont_ == b.mont_;
  }
  friend bool operator!=(const Fr& a, const Fr& b) { return !(a == b); }

  /// Raw Montgomery representation (for hashing into containers).
  [[nodiscard]] const U256& mont_repr() const { return mont_; }

 private:
  explicit constexpr Fr(const U256& mont) : mont_(mont) {}

  U256 mont_{};  // value * 2^256 mod r
};

/// Functor so Fr can key unordered containers (e.g. the nullifier log).
struct FrHash {
  std::size_t operator()(const Fr& v) const noexcept {
    return U256Hash{}(v.mont_repr());
  }
};

/// Convenience: decimal/hex string to field element (reduces mod r).
Fr fr_from_string(const std::string& s);

/// Canonical decimal-ish debug form (hex of canonical value).
std::string fr_to_hex(const Fr& v);

}  // namespace waku::ff

#include "ff/fr.hpp"

#include <algorithm>
#include <array>

#include "common/expect.hpp"

namespace waku::ff {

namespace {

using detail::mont_mul;
using detail::sub_mod;

// 2^512 mod r.
constexpr U256 compute_r2() {
  U256 x = detail::kFrR;
  for (int i = 0; i < 256; ++i) x = double_mod(x, Fr::kModulus);
  return x;
}

constexpr U256 kR2 = compute_r2();

static_assert(mont_mul(U256{1}, kR2) == detail::kFrR,
              "Fr::one() must equal the Montgomery lift of 1");

}  // namespace

Fr Fr::from_u64(std::uint64_t v) { return from_u256_reduce(U256{v}); }

Fr Fr::from_u256_reduce(const U256& v) {
  U256 canon = v;
  while (canon >= kModulus) {
    bool borrow = false;
    canon = sub_borrow(canon, kModulus, borrow);
  }
  Fr out;
  out.mont_ = mont_mul(canon, kR2);
  return out;
}

Fr Fr::from_u256_canonical(const U256& v) {
  WAKU_EXPECTS(v < kModulus);
  return from_u256_reduce(v);
}

Fr Fr::from_bytes_reduce(BytesView bytes) {
  WAKU_EXPECTS(bytes.size() <= 32);
  std::array<std::uint8_t, 32> padded{};
  std::copy_backward(bytes.begin(), bytes.end(), padded.end());
  return from_u256_reduce(u256_from_bytes_be(padded));
}

Fr Fr::random(Rng& rng) {
  // Rejection-sample 254-bit values until one lands below r (p ~ 0.76).
  for (;;) {
    U256 v{rng.next_u64(), rng.next_u64(), rng.next_u64(), rng.next_u64()};
    v.limb[3] &= 0x3fffffffffffffffULL;  // clear top 2 bits -> 254-bit value
    if (v < kModulus) return from_u256_reduce(v);
  }
}

U256 Fr::to_u256() const { return mont_mul(mont_, U256{1}); }

Bytes Fr::to_bytes_be() const { return u256_to_bytes_be(to_u256()); }

Fr Fr::neg() const {
  Fr r;
  r.mont_ = mont_.is_zero() ? U256{} : sub_mod(U256{}, mont_);
  return r;
}

Fr Fr::pow(const U256& e) const {
  Fr result = one();
  const int hb = e.highest_bit();
  for (int i = hb; i >= 0; --i) {
    result = result.square();
    if (e.bit(static_cast<unsigned>(i))) result = result * *this;
  }
  return result;
}

Fr Fr::inverse() const {
  WAKU_EXPECTS(!is_zero());
  bool borrow = false;
  const U256 e = sub_borrow(kModulus, U256{2}, borrow);  // r - 2
  return pow(e);
}

Fr fr_from_string(const std::string& s) {
  return Fr::from_u256_reduce(u256_from_string(s));
}

std::string fr_to_hex(const Fr& v) { return u256_to_hex(v.to_u256()); }

}  // namespace waku::ff

// Unit and property tests for U256 and the BN254 scalar field Fr.
#include <gtest/gtest.h>

#include "common/expect.hpp"
#include "common/rng.hpp"
#include "ff/fr.hpp"
#include "ff/u256.hpp"

namespace waku::ff {
namespace {

// Decimal value of the BN254 scalar modulus, for cross-checking the limbs.
constexpr const char* kModulusDec =
    "21888242871839275222246405745257275088548364400416034343698204186575808"
    "495617";

TEST(U256, ZeroAndComparison) {
  EXPECT_TRUE(U256{}.is_zero());
  EXPECT_FALSE(U256{1}.is_zero());
  EXPECT_LT(U256{1}, U256{2});
  EXPECT_LT(U256{0xffffffffffffffffULL}, U256(0, 1, 0, 0));
  EXPECT_EQ(U256{5}, U256{5});
}

TEST(U256, AddCarryPropagates) {
  bool carry = false;
  const U256 max(~0ULL, ~0ULL, ~0ULL, ~0ULL);
  const U256 r = add_carry(max, U256{1}, carry);
  EXPECT_TRUE(carry);
  EXPECT_TRUE(r.is_zero());
}

TEST(U256, SubBorrowPropagates) {
  bool borrow = false;
  const U256 r = sub_borrow(U256{0}, U256{1}, borrow);
  EXPECT_TRUE(borrow);
  EXPECT_EQ(r, U256(~0ULL, ~0ULL, ~0ULL, ~0ULL));
}

TEST(U256, AddSubRoundTrip) {
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    const U256 a{rng.next_u64(), rng.next_u64(), rng.next_u64(),
                 rng.next_u64()};
    const U256 b{rng.next_u64(), rng.next_u64(), rng.next_u64(),
                 rng.next_u64()};
    EXPECT_EQ((a + b) - b, a);
  }
}

TEST(U256, BytesRoundTrip) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    const U256 v{rng.next_u64(), rng.next_u64(), rng.next_u64(),
                 rng.next_u64()};
    EXPECT_EQ(u256_from_bytes_be(u256_to_bytes_be(v)), v);
  }
}

TEST(U256, BytesBigEndianLayout) {
  const U256 one{1};
  const Bytes b = u256_to_bytes_be(one);
  EXPECT_EQ(b[31], 1);
  EXPECT_EQ(b[0], 0);
}

TEST(U256, DecimalParseMatchesModulusLimbs) {
  EXPECT_EQ(u256_from_string(kModulusDec), Fr::kModulus);
}

TEST(U256, HexParse) {
  EXPECT_EQ(u256_from_string("0x01"), U256{1});
  EXPECT_EQ(u256_from_string("0xff"), U256{255});
  EXPECT_EQ(
      u256_from_string(
          "0x30644e72e131a029b85045b68181585d2833e84879b9709143e1f593f0000001"),
      Fr::kModulus);
}

TEST(U256, ParseRejectsGarbage) {
  EXPECT_THROW(u256_from_string(""), std::invalid_argument);
  EXPECT_THROW(u256_from_string("12a4"), std::invalid_argument);
  EXPECT_THROW(u256_from_string("0x"), std::invalid_argument);
}

TEST(U256, HighestBit) {
  EXPECT_EQ(U256{}.highest_bit(), -1);
  EXPECT_EQ(U256{1}.highest_bit(), 0);
  EXPECT_EQ(U256{2}.highest_bit(), 1);
  EXPECT_EQ(U256(0, 0, 0, 1ULL << 62).highest_bit(), 254);
}

TEST(Fr, ZeroOneIdentities) {
  EXPECT_TRUE(Fr::zero().is_zero());
  EXPECT_FALSE(Fr::one().is_zero());
  EXPECT_EQ(Fr::one() * Fr::one(), Fr::one());
  EXPECT_EQ(Fr::one() + Fr::zero(), Fr::one());
  EXPECT_EQ(Fr::from_u64(7) * Fr::zero(), Fr::zero());
}

TEST(Fr, SmallIntegerArithmetic) {
  EXPECT_EQ(Fr::from_u64(3) + Fr::from_u64(4), Fr::from_u64(7));
  EXPECT_EQ(Fr::from_u64(10) - Fr::from_u64(4), Fr::from_u64(6));
  EXPECT_EQ(Fr::from_u64(6) * Fr::from_u64(7), Fr::from_u64(42));
}

TEST(Fr, SubtractionWrapsModulo) {
  // 0 - 1 == r - 1
  const Fr minus_one = Fr::zero() - Fr::one();
  bool borrow = false;
  const U256 r_minus_1 = sub_borrow(Fr::kModulus, U256{1}, borrow);
  EXPECT_EQ(minus_one.to_u256(), r_minus_1);
}

TEST(Fr, ModulusReducesToZero) {
  EXPECT_TRUE(Fr::from_u256_reduce(Fr::kModulus).is_zero());
}

TEST(Fr, CanonicalRejectsModulus) {
  EXPECT_THROW(Fr::from_u256_canonical(Fr::kModulus), ContractViolation);
  EXPECT_NO_THROW(Fr::from_u256_canonical(U256{12345}));
}

TEST(Fr, AdditionCommutesAndAssociates) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    const Fr a = Fr::random(rng);
    const Fr b = Fr::random(rng);
    const Fr c = Fr::random(rng);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ((a + b) + c, a + (b + c));
  }
}

TEST(Fr, MultiplicationCommutesAndAssociates) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    const Fr a = Fr::random(rng);
    const Fr b = Fr::random(rng);
    const Fr c = Fr::random(rng);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a * b) * c, a * (b * c));
  }
}

TEST(Fr, DistributiveLaw) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    const Fr a = Fr::random(rng);
    const Fr b = Fr::random(rng);
    const Fr c = Fr::random(rng);
    EXPECT_EQ(a * (b + c), a * b + a * c);
  }
}

TEST(Fr, NegationIsAdditiveInverse) {
  Rng rng(29);
  for (int i = 0; i < 100; ++i) {
    const Fr a = Fr::random(rng);
    EXPECT_TRUE((a + a.neg()).is_zero());
  }
  EXPECT_TRUE(Fr::zero().neg().is_zero());
}

TEST(Fr, InverseIsMultiplicativeInverse) {
  Rng rng(31);
  for (int i = 0; i < 50; ++i) {
    const Fr a = Fr::random(rng);
    if (a.is_zero()) continue;
    EXPECT_EQ(a * a.inverse(), Fr::one());
  }
}

TEST(Fr, InverseOfZeroThrows) {
  EXPECT_THROW((void)Fr::zero().inverse(), ContractViolation);
}

TEST(Fr, PowMatchesRepeatedMultiplication) {
  const Fr base = Fr::from_u64(3);
  Fr acc = Fr::one();
  for (std::uint64_t e = 0; e < 20; ++e) {
    EXPECT_EQ(base.pow(e), acc);
    acc *= base;
  }
}

TEST(Fr, FermatLittleTheorem) {
  // a^(r-1) == 1 for a != 0.
  Rng rng(37);
  bool borrow = false;
  const U256 r_minus_1 = sub_borrow(Fr::kModulus, U256{1}, borrow);
  for (int i = 0; i < 10; ++i) {
    const Fr a = Fr::random(rng);
    if (a.is_zero()) continue;
    EXPECT_EQ(a.pow(r_minus_1), Fr::one());
  }
}

TEST(Fr, BytesRoundTrip) {
  Rng rng(41);
  for (int i = 0; i < 100; ++i) {
    const Fr a = Fr::random(rng);
    const Bytes b = a.to_bytes_be();
    ASSERT_EQ(b.size(), 32u);
    EXPECT_EQ(Fr::from_bytes_reduce(b), a);
  }
}

TEST(Fr, FromBytesShorterThan32Pads) {
  const Bytes b = {0x01, 0x00};  // big-endian 256
  EXPECT_EQ(Fr::from_bytes_reduce(b), Fr::from_u64(256));
}

TEST(Fr, RandomIsCanonical) {
  Rng rng(43);
  for (int i = 0; i < 100; ++i) {
    EXPECT_LT(Fr::random(rng).to_u256(), Fr::kModulus);
  }
}

TEST(Fr, RandomSpread) {
  Rng rng(47);
  const Fr a = Fr::random(rng);
  const Fr b = Fr::random(rng);
  EXPECT_NE(a, b);  // 2^-254 collision probability
}

TEST(Fr, StringParsing) {
  EXPECT_EQ(fr_from_string("42"), Fr::from_u64(42));
  EXPECT_EQ(fr_from_string(kModulusDec), Fr::zero());
}

TEST(Fr, HashFunctorDistinguishes) {
  FrHash h;
  EXPECT_NE(h(Fr::from_u64(1)), h(Fr::from_u64(2)));
  EXPECT_EQ(h(Fr::from_u64(9)), h(Fr::from_u64(9)));
}

// Cross-check Montgomery multiplication against schoolbook double-and-add
// (multiplication as repeated addition over random small multipliers).
TEST(Fr, MulMatchesRepeatedAddition) {
  Rng rng(53);
  for (int i = 0; i < 20; ++i) {
    const Fr a = Fr::random(rng);
    const std::uint64_t k = rng.next_below(1000);
    Fr sum = Fr::zero();
    for (std::uint64_t j = 0; j < k; ++j) sum += a;
    EXPECT_EQ(a * Fr::from_u64(k), sum);
  }
}

// The 4-limb Montgomery multiply against the binary double-and-add
// reference in u256.hpp, on random pairs and on every pair of edge values.
TEST(Fr, MulMatchesBinaryReference) {
  const auto check = [](const Fr& a, const Fr& b) {
    const Fr p = a * b;
    EXPECT_EQ(p.to_u256(), mul_mod(a.to_u256(), b.to_u256(), Fr::kModulus))
        << fr_to_hex(a) << " * " << fr_to_hex(b);
    // operator== and the hash compare representations: they must be < r.
    EXPECT_LT(p.mont_repr(), Fr::kModulus)
        << fr_to_hex(a) << " * " << fr_to_hex(b);
  };
  Rng rng(59);
  for (int i = 0; i < 10000; ++i) check(Fr::random(rng), Fr::random(rng));

  const U256 two_254_minus_1{~0ULL, ~0ULL, ~0ULL, 0x3fffffffffffffffULL};
  const Fr edges[] = {Fr::zero(), Fr::one(), Fr::zero() - Fr::one(),
                      Fr::from_u256_reduce(detail::kFrR),
                      Fr::from_u256_reduce(two_254_minus_1)};
  for (const Fr& a : edges) {
    for (const Fr& b : edges) check(a, b);
  }
}

}  // namespace
}  // namespace waku::ff

// Tests for SHA-256 / Keccak-256 against published vectors, and structural
// tests for Poseidon (whose constants are project-specific; see
// docs/ARCHITECTURE.md, "Substitutions").
#include <gtest/gtest.h>

#include <array>
#include <iostream>
#include <set>
#include <string>

#include "common/expect.hpp"
#include "common/rng.hpp"
#include "ff/fr.hpp"
#include "hash/keccak256.hpp"
#include "hash/poseidon.hpp"
#include "hash/schnorr.hpp"
#include "hash/sha256.hpp"

namespace waku::hash {
namespace {

using ff::Fr;

std::string sha_hex(std::string_view msg) {
  return to_hex(sha256_bytes(to_bytes(msg)));
}

std::string keccak_hex(std::string_view msg) {
  return to_hex(keccak256_bytes(to_bytes(msg)));
}

TEST(Sha256, EmptyVector) {
  EXPECT_EQ(sha_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, AbcVector) {
  EXPECT_EQ(sha_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockVector) {
  EXPECT_EQ(sha_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, FoxVector) {
  EXPECT_EQ(sha_hex("The quick brown fox jumps over the lazy dog"),
            "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592");
}

TEST(Sha256, Nist896BitVector) {
  // 112 bytes: the padding spills into a second block.
  EXPECT_EQ(sha_hex("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                    "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
}

// Reference digest: pads the whole message up front (0x80, zeros, 64-bit
// big-endian bit length) and runs detail's portable body over every block,
// bypassing Sha256's buffering and finalize().
Sha256Digest portable_sha256(BytesView data) {
  Bytes padded(data.begin(), data.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = data.size() * 8;
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }
  Sha256State state = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                       0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  detail::compress_portable(state, padded.data(), padded.size() / 64);
  Sha256Digest d{};
  for (std::size_t i = 0; i < 32; ++i) {
    d[i] = static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
  return d;
}

TEST(Sha256, HardwareKernelMatchesPortable) {
  const bool hw = detail::sha_extensions_available();
  std::cout << "[ sha256   ] compress kernel: "
            << (hw ? "x86 SHA extensions" : "portable") << "\n";
  if (!hw) {
    GTEST_SKIP() << "CPU lacks the x86 SHA extensions (or SSSE3/SSE4.1); "
                    "compress() runs the portable body";
  }
  Rng rng(0x5A256);
  for (int trial = 0; trial < 256; ++trial) {
    Sha256State start{};
    for (std::uint32_t& w : start) {
      w = static_cast<std::uint32_t>(rng.next_u64());
    }
    const std::size_t n = 1 + rng.next_below(8);
    const Bytes blocks = rng.next_bytes(64 * n);
    Sha256State hw_state = start;
    Sha256State ref = start;
    detail::compress(hw_state, blocks.data(), n);
    detail::compress_portable(ref, blocks.data(), n);
    ASSERT_EQ(hw_state, ref) << "trial " << trial << ", " << n << " blocks";
  }
}

TEST(Sha256, EveryLengthMatchesPortable) {
  Rng rng(0x1E6);
  const Bytes data = rng.next_bytes(300);
  for (std::size_t len = 0; len <= data.size(); ++len) {
    const BytesView msg(data.data(), len);
    const Sha256Digest expected = portable_sha256(msg);
    EXPECT_EQ(sha256(msg), expected) << "one-shot, length " << len;
    Sha256 h;
    for (std::size_t i = 0; i < len; ++i) h.update(msg.subspan(i, 1));
    EXPECT_EQ(h.finalize(), expected) << "byte at a time, length " << len;
  }
  for (const std::size_t len : {55u, 56u, 63u, 64u, 119u, 120u}) {
    const BytesView msg(data.data(), len);
    const Sha256Digest expected = portable_sha256(msg);
    for (std::size_t split = 0; split <= len; ++split) {
      Sha256 h;
      h.update(msg.first(split));
      h.update(msg.subspan(split));
      EXPECT_EQ(h.finalize(), expected)
          << "length " << len << " split at " << split;
    }
  }
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Rng rng(61);
  const Bytes data = rng.next_bytes(1000);
  Sha256 h;
  // Feed in awkward chunk sizes crossing block boundaries.
  std::size_t off = 0;
  for (std::size_t chunk : {1u, 63u, 64u, 65u, 130u, 500u}) {
    const std::size_t take = std::min(chunk, data.size() - off);
    h.update(BytesView(data.data() + off, take));
    off += take;
  }
  h.update(BytesView(data.data() + off, data.size() - off));
  EXPECT_EQ(h.finalize(), sha256(data));
}

TEST(Sha256, LongInput) {
  const Bytes data(1'000'000, 'a');
  EXPECT_EQ(to_hex(sha256_bytes(data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Keccak256, EmptyVector) {
  // keccak256("") — the ubiquitous Ethereum empty hash.
  EXPECT_EQ(keccak_hex(""),
            "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470");
}

TEST(Keccak256, AbcVector) {
  EXPECT_EQ(keccak_hex("abc"),
            "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45");
}

TEST(Keccak256, FoxVector) {
  EXPECT_EQ(keccak_hex("The quick brown fox jumps over the lazy dog"),
            "4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15");
}

TEST(Keccak256, RateBoundaryLengths) {
  // Exercise lengths around the 136-byte rate: all must be deterministic
  // and distinct.
  std::set<std::string> digests;
  for (std::size_t n : {135u, 136u, 137u, 271u, 272u, 273u}) {
    digests.insert(to_hex(keccak256_bytes(Bytes(n, 0x5a))));
  }
  EXPECT_EQ(digests.size(), 6u);
}

TEST(Keccak256, LeadingZeroBits) {
  Keccak256Digest d{};
  d.fill(0);
  EXPECT_EQ(leading_zero_bits(d), 256);
  d[0] = 0x80;
  EXPECT_EQ(leading_zero_bits(d), 0);
  d[0] = 0x01;
  EXPECT_EQ(leading_zero_bits(d), 7);
  d[0] = 0x00;
  d[1] = 0x10;
  EXPECT_EQ(leading_zero_bits(d), 11);
}

TEST(Poseidon, ParamsShape) {
  for (std::size_t t = 2; t <= 5; ++t) {
    const PoseidonParams& p = poseidon_params(t);
    EXPECT_EQ(p.t, t);
    EXPECT_EQ(p.full_rounds, 8u);
    EXPECT_GE(p.partial_rounds, 56u);
    EXPECT_EQ(p.round_constants.size(), t * p.total_rounds());
    EXPECT_EQ(p.mds.size(), t * t);
  }
}

TEST(Poseidon, MdsMatrixInvertibleEntries) {
  // Cauchy construction guarantees non-zero entries.
  const PoseidonParams& p = poseidon_params(3);
  for (const Fr& e : p.mds) EXPECT_FALSE(e.is_zero());
}

TEST(Poseidon, Deterministic) {
  const Fr a = Fr::from_u64(1);
  const Fr b = Fr::from_u64(2);
  EXPECT_EQ(poseidon2(a, b), poseidon2(a, b));
}

TEST(Poseidon, OrderSensitive) {
  const Fr a = Fr::from_u64(1);
  const Fr b = Fr::from_u64(2);
  EXPECT_NE(poseidon2(a, b), poseidon2(b, a));
}

TEST(Poseidon, ArityDomainSeparation) {
  const Fr a = Fr::from_u64(7);
  EXPECT_NE(poseidon1(a), poseidon2(a, Fr::zero()));
}

TEST(Poseidon, PermutationIsNotIdentity) {
  std::vector<Fr> state = {Fr::from_u64(1), Fr::from_u64(2), Fr::from_u64(3)};
  const std::vector<Fr> before = state;
  poseidon_permute(state);
  EXPECT_NE(state, before);
}

TEST(Poseidon, PermutationIsBijectiveSmoke) {
  // Distinct inputs must map to distinct outputs (injectivity smoke test).
  std::set<std::string> outputs;
  for (std::uint64_t i = 0; i < 64; ++i) {
    std::vector<Fr> state = {Fr::from_u64(i), Fr::zero()};
    poseidon_permute(state);
    outputs.insert(to_hex(state[0].to_bytes_be()));
  }
  EXPECT_EQ(outputs.size(), 64u);
}

TEST(Poseidon, CollisionSmoke) {
  Rng rng(71);
  std::set<std::string> seen;
  for (int i = 0; i < 256; ++i) {
    const Fr h = poseidon2(Fr::random(rng), Fr::random(rng));
    seen.insert(to_hex(h.to_bytes_be()));
  }
  EXPECT_EQ(seen.size(), 256u);
}

TEST(Poseidon, AllAritiesSupported) {
  Rng rng(73);
  const Fr a = Fr::random(rng);
  const Fr b = Fr::random(rng);
  const Fr c = Fr::random(rng);
  const Fr d = Fr::random(rng);
  const std::array<Fr, 4> four{a, b, c, d};
  EXPECT_FALSE(poseidon1(a).is_zero());
  EXPECT_FALSE(poseidon2(a, b).is_zero());
  EXPECT_FALSE(poseidon3(a, b, c).is_zero());
  EXPECT_FALSE(poseidon_hash(four).is_zero());
}

TEST(Poseidon, RejectsUnsupportedArity) {
  const std::vector<Fr> empty;
  EXPECT_THROW(poseidon_hash(empty), ContractViolation);
  const std::vector<Fr> five(5, Fr::one());
  EXPECT_THROW(poseidon_hash(five), ContractViolation);
}

TEST(Poseidon, OutputsAreCanonicalFieldElements) {
  Rng rng(79);
  for (int i = 0; i < 50; ++i) {
    const Fr h = poseidon2(Fr::random(rng), Fr::random(rng));
    EXPECT_LT(h.to_u256(), Fr::kModulus);
  }
}

// Full output states of poseidon_permute, pinned: for each width t = 2..5,
// the images of the zero state, of (1, 2, ..., t) and of r-1 in every lane.
// Regression vectors of this implementation (its constants are
// project-specific), not cross-implementation vectors.
struct PermutationVector {
  std::size_t t;
  int input;  // 0: zeros, 1: (1..t), 2: r-1 in every lane
  std::array<const char*, 5> out;
};

constexpr PermutationVector kPermutationVectors[] = {
    {2,
     0,
     {"2d36a9eae512b7abf6068a1b0ae82cd9443c44ce30a22b3371fef3a9884d38c8",
      "0f1c195c9f856a40df0d519f302e87dcbfe4b4e1f4f5b89659294184d4243020"}},
    {2,
     1,
     {"1f10001f403ff13b02dbb4437afc541986cf0de3ec598ddbfe360dcd41cb04da",
      "02da7e7b6eb89b89d6bae0029de07b4fbb19588567d0ddba63bb5108c48e8308"}},
    {2,
     2,
     {"0359f8e471ebcfb6aa6480c533da2ab448b99e3a77249fd27270b82b39f52760",
      "031c17d676010daa5313211bcfb85f8534a5231601c1d7edf5246c4211920c6a"}},
    {3,
     0,
     {"085af678a632c40a8c2aeab082ebcdc4fe57df959de75983cbe3c900244fb530",
      "187a0689416c1e3e9ad1cd3aac83d69d068ce6af559220db231b38e436bb503d",
      "25bd60e8af3482dd486fbb14518abe6be9230b47eb69e788f3848f519e95e68e"}},
    {3,
     1,
     {"267afe17073cd695200083e892f9636eda4afc812db1304033feaa69ee7167cc",
      "0cf58a8ffed008932d3a3f67d374348462d6c20c9b003c937fcee790345178f3",
      "2ee28902e43139da081a1b8f6d652e8468a937722275eb35b9087ade408a0884"}},
    {3,
     2,
     {"02390fcc5b3ef3a37029b6488354b78088cb6e2a567981cc946a418f1631a2c2",
      "2e25945f4de0bea88f91c1edce656ebfd6500226a61db27e9e34000dc3f8af94",
      "2ab4a87e9786eda323883774f4e981ce456cc2d7b853b7753bec34a47e30224f"}},
    {4,
     0,
     {"16a7bf618535921cdd1b8506f9e7b71b20e4b956ae0ad2ae82ddb638b41ef9b3",
      "161d2ba1023952bb75e28ef34217ad7061f9a6c280594443d57bbd62b370102a",
      "02666342da9c6cfbdd63ef7431b3c8c15fc865a7c34be75503b71c31a9f89ee0",
      "1088718f9fd417344cbc670ffa5bbafb3fb301e9dfc5018e53cdc8964c1dcc5a"}},
    {4,
     1,
     {"229913cfe466d79f8921e468dada7c865696424276b71314bcb6f1eda26c51cd",
      "0213ed84d8ba4995bd3fca174c01302f0c4fb8c506d2b380fe2066d11e3a9191",
      "05cee04684e4312f40422c12315595d6db7fe834538f6af415f45172c135a563",
      "05571b6f4afa859dd9e22bdac306792e2ade94d0017e130e95ff1c7b3c56b623"}},
    {4,
     2,
     {"1f12e46e67772ac264d90fc3f1acba897207a5a83e458e14c6253834b1de5f48",
      "233bbc04030b92328c508f88c4f047d965b1caea97a47ec719f3492f13d56f3a",
      "0b00df07e7749391394d060f71c9b5a8128e1d4053d2851eef23f6b235ec7793",
      "19538a7873c5693bee96415ae17e38d530a9038fad9e0054c1e9163e2bbc72ef"}},
    {5,
     0,
     {"079c17e004f899b09ef5bc632858af4f117bbe6f7be72ef3f4183799e30ee609",
      "272692944cde2d2e7a0c43a9c987db4f054790c1434282832b23098ab381f1be",
      "2ed3f972dbfccb24ced0b3b729569e00f65ed8acf6176ae8a0437c01f4ad3cad",
      "2e8627212ed516dd531ed1c78f42fdee5e6c64c0fc5aab9780278557041913c1",
      "12fc8746d40b33de2ad7caaa60f20414f9440e34f90b23950c6cb4af6becfdc5"}},
    {5,
     1,
     {"091b81787fe9287801e44b805166b589bc534e9f7574a95b03b18f60cb47d300",
      "1f31000cf6c732809a180a6dcf4cdc072fe9427f672ee6b698944a8d25e10d21",
      "23d3b8cc23130fc52a58638936d2e7a8abcf953c484ee44481e5f71ac4a4e232",
      "120ace0e1524211b34f94b4175f2de7c6d8031d4015fc7004ba188c133082db6",
      "0c1adc94bfae16e97f33f21d1a7594a6612343fe607157edac88892fa9431441"}},
    {5,
     2,
     {"2c614b80b1d3d13793b62b5ca2187a6f89b4716eb9f46748ea5b86d46da9ea27",
      "004725c7f60265ac03a65ab60cbcbeee42264c448c26c338b9c733c56270d0c9",
      "0ef628ae326e2d0043c7706b61c6d7f9bccabd9b32011714777e75a1f6c7e1d2",
      "14cb2317d584296fd893e88c9d1108d3f4b48030b134d0b1d4172686131c9da0",
      "0d06ad681eeb4d022cc85364558f880b84db1850a487bed1e2160b687d7afbd4"}},
};

TEST(Poseidon, PermutationMatchesPinnedVectors) {
  const Fr r_minus_1 = Fr::zero() - Fr::one();
  for (const PermutationVector& v : kPermutationVectors) {
    std::vector<Fr> state(v.t);
    for (std::size_t i = 0; i < v.t; ++i) {
      state[i] = v.input == 0   ? Fr::zero()
                 : v.input == 1 ? Fr::from_u64(i + 1)
                                : r_minus_1;
    }
    poseidon_permute(state);
    for (std::size_t i = 0; i < v.t; ++i) {
      EXPECT_EQ(to_hex(state[i].to_bytes_be()), v.out[i])
          << "t=" << v.t << " input=" << v.input << " lane " << i;
    }
  }
}

// -- Schnorr (checkpoint attestation scheme) ---------------------------------

TEST(Schnorr, SignVerifyRoundTrip) {
  Rng rng(0x5C40);
  const schnorr::KeyPair key = schnorr::keygen(rng);
  const Bytes msg = to_bytes("checkpoint payload");
  const schnorr::Signature sig = schnorr::sign(key, msg);
  EXPECT_TRUE(schnorr::verify(key.pk, msg, sig));
  // Deterministic nonces: the same (key, message) re-signs identically.
  EXPECT_EQ(schnorr::sign(key, msg), sig);
  // Serialization round-trips.
  EXPECT_EQ(schnorr::Signature::deserialize(sig.serialize()), sig);
}

TEST(Schnorr, RejectsWrongKeyMessageAndMalleation) {
  Rng rng(0x5C41);
  const schnorr::KeyPair key = schnorr::keygen(rng);
  const schnorr::KeyPair other = schnorr::keygen(rng);
  const Bytes msg = to_bytes("signed");
  const schnorr::Signature sig = schnorr::sign(key, msg);

  EXPECT_FALSE(schnorr::verify(other.pk, msg, sig));          // wrong key
  EXPECT_FALSE(schnorr::verify(key.pk, to_bytes("other"), sig));  // wrong msg
  schnorr::Signature bad = sig;
  bad.s.limb[0] ^= 1;
  EXPECT_FALSE(schnorr::verify(key.pk, msg, bad));            // bent s
  bad = sig;
  bad.r = bad.r + Fr::one();
  EXPECT_FALSE(schnorr::verify(key.pk, msg, bad));            // bent R
  // Out-of-range s (>= group order) is rejected outright, not reduced.
  bad = sig;
  bad.s = schnorr::kGroupOrder;
  EXPECT_FALSE(schnorr::verify(key.pk, msg, bad));
  // Degenerate commitments/keys never verify.
  bad = sig;
  bad.r = Fr::zero();
  EXPECT_FALSE(schnorr::verify(key.pk, msg, bad));
  EXPECT_FALSE(schnorr::verify(Fr::zero(), msg, sig));
}

TEST(Schnorr, NoncesDifferAcrossMessagesUnderOneKey) {
  // Nonce reuse across distinct messages is the classic Schnorr key
  // recovery; the deterministic nonce is keccak(sk || m), so distinct
  // messages must yield distinct commitments.
  Rng rng(0x5C42);
  const schnorr::KeyPair key = schnorr::keygen(rng);
  std::set<std::string> commitments;
  for (int i = 0; i < 20; ++i) {
    const schnorr::Signature sig = schnorr::sign(
        key, to_bytes(std::string("m").append(std::to_string(i))));
    commitments.insert(to_hex(sig.r.to_bytes_be()));
  }
  EXPECT_EQ(commitments.size(), 20u);
}

TEST(Schnorr, ExponentArithmeticMatchesFieldSemantics) {
  // mul_mod / add_mod sanity against small values and against Fr (for the
  // prime modulus r, where both pipelines must agree).
  using ff::U256;
  const U256 seven{7}, three{3}, mod{11};
  EXPECT_EQ(ff::mul_mod(seven, three, mod), U256{10});  // 21 mod 11
  EXPECT_EQ(ff::add_mod(seven, three, mod), U256{10});
  Rng rng(0x5C43);
  for (int i = 0; i < 10; ++i) {
    const Fr a = Fr::random(rng);
    const Fr b = Fr::random(rng);
    EXPECT_EQ(ff::mul_mod(a.to_u256(), b.to_u256(), Fr::kModulus),
              (a * b).to_u256());
    EXPECT_EQ(ff::add_mod(a.to_u256(), b.to_u256(), Fr::kModulus),
              (a + b).to_u256());
  }
}

}  // namespace
}  // namespace waku::hash

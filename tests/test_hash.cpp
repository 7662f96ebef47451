// Tests for SHA-256 / Keccak-256 against published vectors, and structural
// tests for Poseidon (whose constants are project-specific; see
// docs/ARCHITECTURE.md, "Substitutions").
#include <gtest/gtest.h>

#include <array>
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
  std::set<Bytes> commitments;
  for (int i = 0; i < 20; ++i) {
    const schnorr::Signature sig =
        schnorr::sign(key, to_bytes("m" + std::to_string(i)));
    commitments.insert(sig.r.to_bytes_be());
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

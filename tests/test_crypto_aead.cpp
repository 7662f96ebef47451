// Tests for ChaCha20-Poly1305 (RFC 8439 vectors + structural properties).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "hash/chacha20poly1305.hpp"

namespace waku::hash {
namespace {

ChaChaKey test_key() {
  ChaChaKey key;
  for (int i = 0; i < 32; ++i) {
    key[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
  }
  return key;
}

TEST(ChaCha20, Rfc8439BlockFunctionVector) {
  // RFC 8439 §2.3.2.
  const ChaChaKey key = test_key();
  const ChaChaNonce nonce = {0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0};
  const auto block = chacha20_block(key, 1, nonce);
  EXPECT_EQ(to_hex(BytesView(block.data(), 16)),
            "10f1e7e4d13b5915500fdd1fa32071c4");
}

TEST(ChaCha20, EncryptDecryptRoundTrip) {
  Rng rng(0xAEAD);
  const ChaChaKey key = test_key();
  const ChaChaNonce nonce = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  for (const std::size_t len : {0u, 1u, 63u, 64u, 65u, 1000u}) {
    const Bytes plaintext = rng.next_bytes(len);
    const Bytes ct = chacha20_xor(key, nonce, plaintext);
    EXPECT_EQ(chacha20_xor(key, nonce, ct), plaintext) << "len " << len;
  }
}

TEST(ChaCha20, DifferentNoncesDifferentStreams) {
  const ChaChaKey key = test_key();
  const ChaChaNonce n1 = {1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0};
  const ChaChaNonce n2 = {2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0};
  const Bytes zeros(64, 0);
  EXPECT_NE(chacha20_xor(key, n1, zeros), chacha20_xor(key, n2, zeros));
}

TEST(Poly1305, Rfc8439Vector) {
  // RFC 8439 §2.5.2.
  std::array<std::uint8_t, 32> key;
  const Bytes kb = from_hex(
      "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  std::copy(kb.begin(), kb.end(), key.begin());
  const auto tag =
      poly1305(to_bytes("Cryptographic Forum Research Group"), key);
  EXPECT_EQ(to_hex(BytesView(tag.data(), tag.size())),
            "a8061dc1305136c6c22b8baf0c0127a9");
}

TEST(Aead, Rfc8439SunscreenVector) {
  // RFC 8439 §2.8.2.
  ChaChaKey key;
  for (int i = 0; i < 32; ++i) {
    key[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(0x80 + i);
  }
  const ChaChaNonce nonce = {0x07, 0, 0, 0, 0x40, 0x41,
                             0x42, 0x43, 0x44, 0x45, 0x46, 0x47};
  const Bytes aad = from_hex("50515253c0c1c2c3c4c5c6c7");
  const std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you only "
      "one tip for the future, sunscreen would be it.";
  const Bytes sealed = aead_encrypt(key, nonce, to_bytes(plaintext), aad);
  EXPECT_EQ(to_hex(BytesView(sealed.data(), 16)),
            "d31a8d34648e60db7b86afbc53ef7ec2");
  EXPECT_EQ(to_hex(BytesView(sealed.data() + sealed.size() - 16, 16)),
            "1ae10b594f09e26a7e902ecbd0600691");
  const auto opened = aead_decrypt(key, nonce, sealed, aad);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(to_string(*opened), plaintext);
}

TEST(Aead, TamperedCiphertextRejected) {
  const ChaChaKey key = test_key();
  const ChaChaNonce nonce{};
  Bytes sealed = aead_encrypt(key, nonce, to_bytes("attack at dawn"));
  sealed[3] ^= 1;
  EXPECT_FALSE(aead_decrypt(key, nonce, sealed).has_value());
}

TEST(Aead, TamperedTagRejected) {
  const ChaChaKey key = test_key();
  const ChaChaNonce nonce{};
  Bytes sealed = aead_encrypt(key, nonce, to_bytes("attack at dawn"));
  sealed.back() ^= 1;
  EXPECT_FALSE(aead_decrypt(key, nonce, sealed).has_value());
}

TEST(Aead, WrongAadRejected) {
  const ChaChaKey key = test_key();
  const ChaChaNonce nonce{};
  const Bytes sealed =
      aead_encrypt(key, nonce, to_bytes("msg"), to_bytes("context-a"));
  EXPECT_FALSE(aead_decrypt(key, nonce, sealed, to_bytes("context-b")));
  EXPECT_TRUE(aead_decrypt(key, nonce, sealed, to_bytes("context-a")));
}

TEST(Aead, TooShortInputRejected) {
  const ChaChaKey key = test_key();
  const ChaChaNonce nonce{};
  EXPECT_FALSE(aead_decrypt(key, nonce, Bytes(15, 0)).has_value());
}

TEST(Aead, EmptyPlaintextWorks) {
  const ChaChaKey key = test_key();
  const ChaChaNonce nonce{};
  const Bytes sealed = aead_encrypt(key, nonce, {});
  EXPECT_EQ(sealed.size(), 16u);  // just the tag
  const auto opened = aead_decrypt(key, nonce, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_TRUE(opened->empty());
}

}  // namespace
}  // namespace waku::hash

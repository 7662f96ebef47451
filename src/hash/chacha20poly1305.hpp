// ChaCha20-Poly1305 AEAD (RFC 8439), from scratch.
//
// The symmetric AEAD behind the encrypted identity keystore
// (rln/keystore.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "common/bytes.hpp"

namespace waku::hash {

using ChaChaKey = std::array<std::uint8_t, 32>;
using ChaChaNonce = std::array<std::uint8_t, 12>;
using Poly1305Tag = std::array<std::uint8_t, 16>;

/// Raw ChaCha20 block function: fills 64 bytes of keystream for
/// (key, counter, nonce). Exposed for testing against RFC 8439 vectors.
std::array<std::uint8_t, 64> chacha20_block(const ChaChaKey& key,
                                            std::uint32_t counter,
                                            const ChaChaNonce& nonce);

/// ChaCha20 stream cipher (encrypt == decrypt), initial block counter 1
/// per the AEAD construction; counter 0 is reserved for the Poly1305 key.
Bytes chacha20_xor(const ChaChaKey& key, const ChaChaNonce& nonce,
                   BytesView data, std::uint32_t initial_counter = 1);

/// One-shot Poly1305 MAC with the given 32-byte one-time key.
Poly1305Tag poly1305(BytesView msg, const std::array<std::uint8_t, 32>& key);

/// AEAD seal: returns ciphertext || 16-byte tag.
Bytes aead_encrypt(const ChaChaKey& key, const ChaChaNonce& nonce,
                   BytesView plaintext, BytesView aad = {});

/// AEAD open: verifies the tag (constant-time) and returns the plaintext,
/// or nullopt on authentication failure.
std::optional<Bytes> aead_decrypt(const ChaChaKey& key,
                                  const ChaChaNonce& nonce,
                                  BytesView ciphertext_and_tag,
                                  BytesView aad = {});

}  // namespace waku::hash

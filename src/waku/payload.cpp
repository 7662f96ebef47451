#include "waku/payload.hpp"

#include <cstring>

#include "hash/sha256.hpp"

namespace waku {

namespace {
constexpr std::uint8_t kPayloadVersion = 1;
}  // namespace

hash::ChaChaKey derive_payload_key(std::string_view app_secret) {
  Bytes input = to_bytes("waku-payload-v1:");
  const Bytes secret = to_bytes(app_secret);
  input.insert(input.end(), secret.begin(), secret.end());
  const hash::Sha256Digest digest = hash::sha256(input);
  hash::ChaChaKey key;
  std::copy(digest.begin(), digest.end(), key.begin());
  return key;
}

Bytes seal_payload(const hash::ChaChaKey& key, BytesView plaintext, Rng& rng) {
  hash::ChaChaNonce nonce;
  const Bytes random = rng.next_bytes(nonce.size());
  std::copy(random.begin(), random.end(), nonce.begin());

  const Bytes sealed = hash::aead_encrypt(key, nonce, plaintext);
  Bytes out(1 + nonce.size() + sealed.size());
  out[0] = kPayloadVersion;
  std::copy(nonce.begin(), nonce.end(), out.begin() + 1);
  std::copy(sealed.begin(), sealed.end(), out.begin() + 1 + nonce.size());
  return out;
}

std::optional<Bytes> open_payload(const hash::ChaChaKey& key,
                                  BytesView sealed) {
  if (sealed.size() < 1 + 12 + 16 || sealed[0] != kPayloadVersion) {
    return std::nullopt;
  }
  hash::ChaChaNonce nonce;
  std::memcpy(nonce.data(), sealed.data() + 1, nonce.size());
  return hash::aead_decrypt(key, nonce,
                            BytesView(sealed.data() + 13, sealed.size() - 13));
}

}  // namespace waku

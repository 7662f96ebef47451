// The proof bundle a publisher attaches to every message (paper §III-E):
// (m, (x, y), phi, epoch, tau, pi). The message m itself travels in the
// WakuMessage payload; this struct carries the rest.
#pragma once

#include <cstdint>

#include "ff/fr.hpp"
#include "waku/message.hpp"
#include "zksnark/groth16.hpp"
#include "zksnark/rln_circuit.hpp"

namespace waku::rln {

using ff::Fr;

struct RateLimitProof {
  Fr share_x;      ///< x = H(m)
  Fr share_y;      ///< y = sk + H(sk, epoch) * x
  Fr nullifier;    ///< internal nullifier phi
  std::uint64_t epoch = 0;  ///< external nullifier (epoch index)
  Fr root;         ///< identity tree root tau the proof was made against
  zksnark::Proof proof;  ///< the zkSNARK pi

  [[nodiscard]] Bytes serialize() const;
  static RateLimitProof deserialize(BytesView bytes);

  /// Public-input vector in the circuit's canonical order, with x taken
  /// from the *message content* (so a mismatched share_x cannot verify).
  [[nodiscard]] std::vector<Fr> public_inputs(const Fr& message_hash) const;

  friend bool operator==(const RateLimitProof&,
                         const RateLimitProof&) = default;

  /// Serialized size: 4 field elements + epoch + 128-byte proof.
  static constexpr std::size_t kSerializedSize = 4 * 32 + 8 + 128;
};

/// H(m): hashes the message signal into the Shamir x-coordinate.
Fr message_hash(const WakuMessage& message);

/// The one proof-bundle builder: witnesses the RLN circuit for
/// (sk, path, H(message), epoch), proves it with the path depth's shared
/// keypair, and fills the bundle from the circuit's public values. `rng`
/// is drawn from by prove() only.
RateLimitProof make_rate_limit_proof(const Fr& sk, merkle::MerklePath path,
                                     const WakuMessage& message,
                                     std::uint64_t epoch, Rng& rng);

/// Attaches a serialized proof to a message (in place).
void attach_proof(WakuMessage& message, const RateLimitProof& proof);

/// Extracts and parses the proof; nullopt if absent or malformed.
std::optional<RateLimitProof> extract_proof(const WakuMessage& message);

}  // namespace waku::rln

#include "rln/rate_limit_proof.hpp"

#include "common/serde.hpp"
#include "hash/sha256.hpp"

namespace waku::rln {

Bytes RateLimitProof::serialize() const {
  ByteWriter w;
  w.write_raw(share_x.to_bytes_be());
  w.write_raw(share_y.to_bytes_be());
  w.write_raw(nullifier.to_bytes_be());
  w.write_u64(epoch);
  w.write_raw(root.to_bytes_be());
  w.write_raw(proof.serialize());
  return std::move(w).take();
}

RateLimitProof RateLimitProof::deserialize(BytesView bytes) {
  ByteReader r(bytes);
  RateLimitProof p;
  p.share_x = Fr::from_bytes_reduce(r.read_raw(32));
  p.share_y = Fr::from_bytes_reduce(r.read_raw(32));
  p.nullifier = Fr::from_bytes_reduce(r.read_raw(32));
  p.epoch = r.read_u64();
  p.root = Fr::from_bytes_reduce(r.read_raw(32));
  p.proof = zksnark::Proof::deserialize(r.read_raw(zksnark::Proof::kSerializedSize));
  return p;
}

std::vector<Fr> RateLimitProof::public_inputs(const Fr& msg_hash) const {
  zksnark::RlnPublicInputs pub;
  pub.x = msg_hash;
  pub.y = share_y;
  pub.nullifier = nullifier;
  pub.epoch = Fr::from_u64(epoch);
  pub.root = root;
  return pub.to_vector();
}

Fr message_hash(const WakuMessage& message) {
  // SHA-256 of signal_bytes() (u32-prefixed payload, then u32-prefixed
  // content topic), fed to the hasher field by field so no copy is built.
  hash::Sha256 h;
  h.update_le(message.payload.size(), 4);
  h.update(message.payload);
  h.update_le(message.content_topic.size(), 4);
  h.update(BytesView(
      reinterpret_cast<const std::uint8_t*>(message.content_topic.data()),
      message.content_topic.size()));
  return Fr::from_bytes_reduce(h.finalize());
}

RateLimitProof make_rate_limit_proof(const Fr& sk, merkle::MerklePath path,
                                     const WakuMessage& message,
                                     std::uint64_t epoch, Rng& rng) {
  const std::size_t depth = path.depth();
  zksnark::RlnProverInput input;
  input.sk = sk;
  input.path = std::move(path);
  input.x = message_hash(message);
  input.epoch = Fr::from_u64(epoch);
  const zksnark::RlnCircuit circuit = zksnark::build_rln_circuit(input);
  RateLimitProof bundle;
  bundle.share_x = circuit.publics.x;
  bundle.share_y = circuit.publics.y;
  bundle.nullifier = circuit.publics.nullifier;
  bundle.epoch = epoch;
  bundle.root = circuit.publics.root;
  bundle.proof = zksnark::prove(zksnark::rln_keypair(depth).pk,
                                circuit.builder.cs(),
                                circuit.builder.assignment(), rng);
  return bundle;
}

void attach_proof(WakuMessage& message, const RateLimitProof& proof) {
  message.rate_limit_proof = proof.serialize();
}

std::optional<RateLimitProof> extract_proof(const WakuMessage& message) {
  if (!message.rate_limit_proof.has_value()) return std::nullopt;
  try {
    return RateLimitProof::deserialize(*message.rate_limit_proof);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace waku::rln

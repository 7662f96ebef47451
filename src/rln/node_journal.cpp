#include "rln/node_journal.hpp"

#include "common/serde.hpp"

namespace waku::rln {

void NodeJournal::append(WalTag tag, BytesView payload, std::uint16_t shard) {
  if (store_.has_value()) {
    store_->append(static_cast<std::uint8_t>(tag), payload, shard);
  }
}

void NodeJournal::append_observation(WalTag tag, std::uint16_t shard,
                                     std::uint64_t epoch, const Fr& nullifier,
                                     const sss::Share& share,
                                     std::uint64_t proof_fp) {
  if (!store_.has_value()) return;
  ByteWriter w;
  w.write_u64(epoch);
  w.write_raw(nullifier.to_bytes_be());
  w.write_raw(share.x.to_bytes_be());
  w.write_raw(share.y.to_bytes_be());
  w.write_u64(proof_fp);
  append(tag, w.data(), shard);
}

Observation NodeJournal::read_observation(BytesView payload) {
  ByteReader r(payload);
  Observation o;
  o.epoch = r.read_u64();
  o.nullifier = Fr::from_bytes_reduce(r.read_raw(32));
  o.share.x = Fr::from_bytes_reduce(r.read_raw(32));
  o.share.y = Fr::from_bytes_reduce(r.read_raw(32));
  o.proof_fp = r.read_u64();
  return o;
}

}  // namespace waku::rln

#include "rln/checkpoint.hpp"

#include <stdexcept>

#include "common/serde.hpp"

namespace waku::rln {

namespace {

constexpr std::uint8_t kVersion = 2;  // v2: shard watermarks + Schnorr sig
constexpr std::size_t kWatermarkBytes = 2 + 8;  // shard u16 + min_epoch u64

Bytes payload_bytes(const Checkpoint& cp) {
  ByteWriter w;
  w.write_u8(kVersion);
  w.write_u64(cp.event_cursor);
  w.write_u64(cp.member_count);
  w.write_u64(cp.removed_count);
  w.write_u16(static_cast<std::uint16_t>(cp.nullifier_watermarks.size()));
  for (const shard::ShardWatermark& wm : cp.nullifier_watermarks) {
    w.write_u16(wm.shard);
    w.write_u64(wm.min_epoch);
  }
  w.write_u32(static_cast<std::uint32_t>(cp.recent_roots.size()));
  for (const Fr& root : cp.recent_roots) w.write_raw(root.to_bytes_be());
  w.write_bytes(cp.view);
  return std::move(w).take();
}

}  // namespace

Bytes Checkpoint::serialize() const {
  Bytes out = payload_bytes(*this);
  const Bytes sig = signature.serialize();
  out.insert(out.end(), sig.begin(), sig.end());
  return out;
}

Checkpoint Checkpoint::deserialize(BytesView bytes) {
  ByteReader r(bytes);
  Checkpoint cp;
  if (r.read_u8() != kVersion) {
    throw std::out_of_range("Checkpoint: unknown version");
  }
  cp.event_cursor = r.read_u64();
  cp.member_count = r.read_u64();
  cp.removed_count = r.read_u64();
  const std::size_t watermark_count =
      r.bounded_count(r.read_u16(), kWatermarkBytes);
  cp.nullifier_watermarks.reserve(watermark_count);
  for (std::size_t i = 0; i < watermark_count; ++i) {
    shard::ShardWatermark wm;
    wm.shard = r.read_u16();
    wm.min_epoch = r.read_u64();
    cp.nullifier_watermarks.push_back(wm);
  }
  const std::size_t root_count = r.bounded_count(r.read_u32(), 32);
  cp.recent_roots.reserve(root_count);
  for (std::size_t i = 0; i < root_count; ++i) {
    cp.recent_roots.push_back(Fr::from_bytes_reduce(r.read_raw(32)));
  }
  cp.view = r.read_bytes();
  cp.signature = hash::schnorr::Signature::deserialize(
      r.read_raw(hash::schnorr::Signature::kSerializedSize));
  return cp;
}

void Checkpoint::sign(const hash::schnorr::KeyPair& key) {
  signature = hash::schnorr::sign(key, payload_bytes(*this));
}

bool Checkpoint::verify(const Fr& service_pk) const {
  return hash::schnorr::verify(service_pk, payload_bytes(*this), signature);
}

std::optional<std::uint64_t> Checkpoint::watermark_for(
    shard::ShardId shard) const {
  for (const shard::ShardWatermark& wm : nullifier_watermarks) {
    if (wm.shard == shard) return wm.min_epoch;
  }
  return std::nullopt;
}

namespace {

constexpr std::uint8_t kDeltaVersion = 1;

Bytes delta_payload_bytes(const DeltaCheckpoint& d) {
  ByteWriter w;
  w.write_u8(kDeltaVersion);
  w.write_u64(d.from_cursor);
  w.write_raw(d.from_root.to_bytes_be());
  w.write_u64(d.to_cursor);
  w.write_u64(d.member_count);
  w.write_u64(d.removed_count);
  w.write_u16(static_cast<std::uint16_t>(d.nullifier_watermarks.size()));
  for (const shard::ShardWatermark& wm : d.nullifier_watermarks) {
    w.write_u16(wm.shard);
    w.write_u64(wm.min_epoch);
  }
  w.write_u8(static_cast<std::uint8_t>(d.root_tail.size()));
  for (const Fr& root : d.root_tail) w.write_raw(root.to_bytes_be());
  return std::move(w).take();
}

}  // namespace

Bytes DeltaCheckpoint::serialize() const {
  Bytes out = delta_payload_bytes(*this);
  const Bytes sig = signature.serialize();
  out.insert(out.end(), sig.begin(), sig.end());
  return out;
}

DeltaCheckpoint DeltaCheckpoint::deserialize(BytesView bytes) {
  ByteReader r(bytes);
  DeltaCheckpoint d;
  if (r.read_u8() != kDeltaVersion) {
    throw std::out_of_range("DeltaCheckpoint: unknown version");
  }
  d.from_cursor = r.read_u64();
  d.from_root = Fr::from_bytes_reduce(r.read_raw(32));
  d.to_cursor = r.read_u64();
  d.member_count = r.read_u64();
  d.removed_count = r.read_u64();
  const std::size_t watermark_count =
      r.bounded_count(r.read_u16(), kWatermarkBytes);
  d.nullifier_watermarks.reserve(watermark_count);
  for (std::size_t i = 0; i < watermark_count; ++i) {
    shard::ShardWatermark wm;
    wm.shard = r.read_u16();
    wm.min_epoch = r.read_u64();
    d.nullifier_watermarks.push_back(wm);
  }
  const std::uint8_t tail = r.read_u8();
  if (tail > kDeltaRootTailMax) {
    throw std::out_of_range("DeltaCheckpoint: root tail over cap");
  }
  d.root_tail.reserve(tail);
  for (std::uint8_t i = 0; i < tail; ++i) {
    d.root_tail.push_back(Fr::from_bytes_reduce(r.read_raw(32)));
  }
  d.signature = hash::schnorr::Signature::deserialize(
      r.read_raw(hash::schnorr::Signature::kSerializedSize));
  return d;
}

void DeltaCheckpoint::sign(const hash::schnorr::KeyPair& key) {
  signature = hash::schnorr::sign(key, delta_payload_bytes(*this));
}

bool DeltaCheckpoint::verify(const Fr& service_pk) const {
  return hash::schnorr::verify(service_pk, delta_payload_bytes(*this),
                               signature);
}

std::optional<std::uint64_t> DeltaCheckpoint::watermark_for(
    shard::ShardId shard) const {
  for (const shard::ShardWatermark& wm : nullifier_watermarks) {
    if (wm.shard == shard) return wm.min_epoch;
  }
  return std::nullopt;
}

Checkpoint make_group_checkpoint(
    const GroupManager& group, std::uint64_t event_cursor,
    std::vector<shard::ShardWatermark> watermarks) {
  const GroupCheckpoint gcp = group.export_checkpoint();
  Checkpoint cp;
  cp.event_cursor = event_cursor;
  cp.member_count = gcp.member_count;
  cp.removed_count = gcp.removed_count;
  cp.nullifier_watermarks = std::move(watermarks);
  cp.recent_roots = gcp.recent_roots;
  cp.view = gcp.view;
  return cp;
}

}  // namespace waku::rln

#include "chain/types.hpp"

#include "common/serde.hpp"

namespace waku::chain {

Bytes serialize_event(const Event& event) {
  ByteWriter w;
  w.write_raw(BytesView(event.contract.bytes.data(),
                        event.contract.bytes.size()));
  w.write_string(event.name);
  w.write_u32(static_cast<std::uint32_t>(event.topics.size()));
  for (const ff::U256& topic : event.topics) {
    w.write_raw(ff::u256_to_bytes_be(topic));
  }
  w.write_bytes(event.data);
  w.write_u64(event.block_number);
  return std::move(w).take();
}

Event deserialize_event(BytesView bytes) {
  ByteReader r(bytes);
  Event event;
  const Bytes addr = r.read_raw(event.contract.bytes.size());
  std::copy(addr.begin(), addr.end(), event.contract.bytes.begin());
  event.name = r.read_string();
  const std::size_t topic_count = r.bounded_count(r.read_u32(), 32);
  event.topics.reserve(topic_count);
  for (std::size_t i = 0; i < topic_count; ++i) {
    event.topics.push_back(ff::u256_from_bytes_be(r.read_raw(32)));
  }
  event.data = r.read_bytes();
  event.block_number = r.read_u64();
  return event;
}

}  // namespace waku::chain

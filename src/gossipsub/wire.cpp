#include "gossipsub/wire.hpp"

#include <stdexcept>

#include "common/serde.hpp"
#include "hash/sha256.hpp"

namespace waku::gossipsub {

MessageId PubSubMessage::id() const {
  // SHA-256 of the ByteWriter encoding write_string(topic),
  // write_u32(origin), write_u64(seqno), write_bytes(data), fed to the
  // hasher field by field so no copy of the message is built.
  hash::Sha256 h;
  h.update_le(topic.size(), 4);
  h.update(BytesView(reinterpret_cast<const std::uint8_t*>(topic.data()),
                     topic.size()));
  h.update_le(origin, 4);
  h.update_le(seqno, 8);
  h.update_le(data.size(), 4);
  h.update(data);
  return h.finalize();
}

Bytes encode_frame(const Frame& frame) {
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(frame.type));
  w.write_string(frame.topic);
  switch (frame.type) {
    case FrameType::kPublish: {
      if (!frame.message.has_value()) {
        throw std::invalid_argument("encode_frame: publish without message");
      }
      const PubSubMessage& m = *frame.message;
      w.write_u32(m.origin);
      w.write_u64(m.seqno);
      w.write_bytes(m.data);
      break;
    }
    case FrameType::kIHave:
    case FrameType::kIWant: {
      w.write_u32(static_cast<std::uint32_t>(frame.ids.size()));
      for (const MessageId& id : frame.ids) {
        w.write_raw(BytesView(id.data(), id.size()));
      }
      break;
    }
    case FrameType::kGraft:
    case FrameType::kPrune:
    case FrameType::kSubscribe:
    case FrameType::kUnsubscribe:
      break;
  }
  return std::move(w).take();
}

Frame decode_frame(BytesView bytes) {
  ByteReader r(bytes);
  Frame frame;
  const std::uint8_t type = r.read_u8();
  if (type < 1 || type > 7) {
    throw std::invalid_argument("decode_frame: unknown frame type");
  }
  frame.type = static_cast<FrameType>(type);
  frame.topic = r.read_string();
  switch (frame.type) {
    case FrameType::kPublish: {
      PubSubMessage m;
      m.topic = frame.topic;
      m.origin = r.read_u32();
      m.seqno = r.read_u64();
      m.data = r.read_bytes();
      frame.message = std::move(m);
      break;
    }
    case FrameType::kIHave:
    case FrameType::kIWant: {
      const std::uint32_t n = r.read_u32();
      if (n > 10'000) {
        throw std::invalid_argument("decode_frame: id list too long");
      }
      frame.ids.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        const Bytes raw = r.read_raw(32);
        MessageId id;
        std::copy(raw.begin(), raw.end(), id.begin());
        frame.ids.push_back(id);
      }
      break;
    }
    default:
      break;
  }
  return frame;
}

}  // namespace waku::gossipsub

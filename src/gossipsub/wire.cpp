#include "gossipsub/wire.hpp"

#include <stdexcept>

#include "common/serde.hpp"
#include "hash/sha256.hpp"

namespace waku::gossipsub {

namespace {

void expect_exhausted(const ByteReader& r) {
  if (!r.exhausted()) {
    throw std::invalid_argument("decode_frame: trailing bytes");
  }
}

}  // namespace

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

MessageId PublishView::id() const { return hash::sha256(body); }

PubSubMessage PublishView::message() const {
  return PubSubMessage{std::string(topic), Bytes(data.begin(), data.end()),
                       origin, seqno};
}

Bytes encode_publish(const PubSubMessage& msg) {
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(FrameType::kPublish));
  w.write_string(msg.topic);
  w.write_u32(msg.origin);
  w.write_u64(msg.seqno);
  w.write_bytes(msg.data);
  return std::move(w).take();
}

Bytes encode_frame(const Frame& frame) {
  if (frame.type == FrameType::kPublish) {
    if (!frame.message.has_value()) {
      throw std::invalid_argument("encode_frame: publish without message");
    }
    return encode_publish(*frame.message);
  }
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(frame.type));
  w.write_string(frame.topic);
  if (frame.type == FrameType::kIHave || frame.type == FrameType::kIWant) {
    w.write_u32(static_cast<std::uint32_t>(frame.ids.size()));
    for (const MessageId& id : frame.ids) {
      w.write_raw(BytesView(id.data(), id.size()));
    }
  }
  return std::move(w).take();
}

PublishView parse_publish(BytesView bytes) {
  ByteReader r(bytes);
  if (r.read_u8() != static_cast<std::uint8_t>(FrameType::kPublish)) {
    throw std::invalid_argument("decode_frame: not a publish frame");
  }
  PublishView view;
  view.body = bytes.subspan(1);
  const BytesView topic = r.read_view(r.read_u32());
  view.topic = std::string_view(reinterpret_cast<const char*>(topic.data()),
                                topic.size());
  view.origin = r.read_u32();
  view.seqno = r.read_u64();
  view.data = r.read_view(r.read_u32());
  expect_exhausted(r);
  return view;
}

Frame decode_frame(BytesView bytes) {
  Frame frame;
  if (is_publish(bytes)) {
    frame.message = parse_publish(bytes).message();
    frame.topic = frame.message->topic;
    return frame;
  }
  ByteReader r(bytes);
  const std::uint8_t type = r.read_u8();
  if (type < 1 || type > 7) {
    throw std::invalid_argument("decode_frame: unknown frame type");
  }
  frame.type = static_cast<FrameType>(type);
  frame.topic = r.read_string();
  if (frame.type == FrameType::kIHave || frame.type == FrameType::kIWant) {
    const std::uint32_t n = r.read_u32();
    if (n > 10'000) {
      throw std::invalid_argument("decode_frame: id list too long");
    }
    frame.ids.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      const BytesView raw = r.read_view(32);
      MessageId id;
      std::copy(raw.begin(), raw.end(), id.begin());
      frame.ids.push_back(id);
    }
  }
  expect_exhausted(r);
  return frame;
}

}  // namespace waku::gossipsub

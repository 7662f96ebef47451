// Gossipsub wire frames: PUBLISH carries full messages; IHAVE/IWANT carry
// gossip metadata; GRAFT/PRUNE maintain meshes; SUBSCRIBE/UNSUBSCRIBE
// announce topic interest. Frames are length-delimited binary via serde.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "gossipsub/types.hpp"

namespace waku::gossipsub {

enum class FrameType : std::uint8_t {
  kPublish = 1,
  kIHave = 2,
  kIWant = 3,
  kGraft = 4,
  kPrune = 5,
  kSubscribe = 6,
  kUnsubscribe = 7,
};

struct Frame {
  FrameType type = FrameType::kPublish;
  std::string topic;  // all types; a publish encodes message->topic
  std::optional<PubSubMessage> message;  // publish
  std::vector<MessageId> ids;            // ihave/iwant
};

/// A publish frame parsed in place: every field views the frame's bytes,
/// which must outlive it.
struct PublishView {
  std::string_view topic;
  NodeId origin = 0;
  std::uint64_t seqno = 0;
  BytesView data;
  BytesView body;  ///< the frame after its type byte: the id preimage

  /// SHA-256 of `body`, equal to message().id().
  [[nodiscard]] MessageId id() const;
  /// An owned copy of the message.
  [[nodiscard]] PubSubMessage message() const;
};

/// Serializes a frame for Network::send. A publish frame is
/// encode_publish(*frame.message).
Bytes encode_frame(const Frame& frame);
Bytes encode_publish(const PubSubMessage& msg);

/// True when `bytes` claims to be a publish frame (its type byte).
[[nodiscard]] inline bool is_publish(BytesView bytes) {
  return !bytes.empty() &&
         bytes[0] == static_cast<std::uint8_t>(FrameType::kPublish);
}

/// The one publish decoder. Throws std::out_of_range on truncated input
/// and std::invalid_argument on anything else malformed, trailing bytes
/// included (callers treat either as a misbehaving peer).
PublishView parse_publish(BytesView bytes);

/// Parses any frame (a publish through parse_publish), with the same
/// errors as parse_publish.
Frame decode_frame(BytesView bytes);

}  // namespace waku::gossipsub

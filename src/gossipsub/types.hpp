// Shared gossipsub types: configuration (libp2p GossipSub v1.1 defaults),
// pubsub messages, message ids, and validation results. WAKU-RELAY is a
// thin layer over this router (paper §I), and the peer-scoring baseline
// the paper critiques lives in peer_score.hpp.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "net/network.hpp"

namespace waku::gossipsub {

using net::NodeId;
using net::TimeMs;

/// Message identifier: SHA-256 of a publish frame's body, the frame bytes
/// after its type byte — (topic, origin, seqno, data) in their wire
/// encoding. PubSubMessage::id() streams the same preimage field by field;
/// a received frame is hashed in place (PublishView::id()). The decoder
/// rejects trailing bytes, so every accepted frame has exactly one id.
using MessageId = std::array<std::uint8_t, 32>;

struct MessageIdHash {
  std::size_t operator()(const MessageId& id) const noexcept {
    std::uint64_t h = 0;
    for (int i = 0; i < 8; ++i) h = (h << 8) | id[static_cast<std::size_t>(i)];
    return static_cast<std::size_t>(h);
  }
};

/// A pubsub message in flight.
struct PubSubMessage {
  std::string topic;
  Bytes data;
  NodeId origin = 0;
  std::uint64_t seqno = 0;

  [[nodiscard]] MessageId id() const;
};

/// Outcome of topic validation (the hook WAKU-RLN-RELAY plugs into).
enum class ValidationResult {
  kAccept,  ///< deliver and relay
  kIgnore,  ///< drop silently (e.g. duplicate / stale epoch)
  kReject,  ///< drop and penalize the sender (invalid proof, spam)
};

/// Validator callback: (sender, message) -> result.
using Validator =
    std::function<ValidationResult(NodeId from, const PubSubMessage&)>;

/// A received publish as a batch validator sees it. A non-owning view:
/// `msg` references the in-flight frame (inline validation) or the
/// router's pending buffer (batched validation) for the duration of the
/// validator call only. `received_at` is the local arrival time — epoch
/// checks must use it, not the flush time, or messages near the gap
/// boundary would expire while buffered.
struct IncomingMessage {
  NodeId from;
  TimeMs received_at;
  const PubSubMessage& msg;
};

/// Batch validator callback: one result per input, same order. The single
/// message Validator is adapted onto this internally, so a batch validator
/// is the router's one validation entry point.
using BatchValidator =
    std::function<std::vector<ValidationResult>(
        std::span<const IncomingMessage>)>;

/// Local delivery callback for subscribed topics.
using DeliveryHandler = std::function<void(const PubSubMessage&)>;

struct GossipSubConfig {
  // Mesh degree bounds (libp2p defaults).
  std::size_t mesh_n = 6;        ///< D
  std::size_t mesh_n_low = 4;    ///< D_lo
  std::size_t mesh_n_high = 12;  ///< D_hi
  std::size_t gossip_degree = 6; ///< IHAVE fanout per heartbeat

  TimeMs heartbeat_interval_ms = 1000;
  std::size_t history_length = 5;  ///< mcache windows kept
  std::size_t history_gossip = 3;  ///< windows advertised in IHAVE
  TimeMs seen_ttl_ms = 120'000;    ///< dedup cache retention

  /// Validation batching: buffer up to this many received publishes per
  /// topic and validate them in one BatchValidator call. Buffers flush
  /// when full and on every heartbeat (bounded added latency). 1 =
  /// validate inline on arrival (the historical behavior, the default).
  std::size_t validation_batch_max = 1;
};

}  // namespace waku::gossipsub

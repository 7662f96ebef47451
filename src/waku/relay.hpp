// WAKU-RELAY (11/WAKU2-RELAY): "a thin layer over the libp2p GossipSub
// routing protocol" (paper §I). It moves WakuMessages instead of raw
// bytes and exposes the validation hook WAKU-RLN-RELAY plugs its spam
// check into.
//
// A relay instance speaks one *default* pubsub topic (the historical
// single-topic shape) but can subscribe, validate, and publish on any
// number of additional topics — the sharded relay (src/shard) runs one
// gossipsub mesh per shard by qualifying the topic per shard, all through
// the single underlying router.
#pragma once

#include <functional>
#include <string>

#include "gossipsub/router.hpp"
#include "waku/message.hpp"

namespace waku {

/// Default pubsub topic of Waku v2.
inline const std::string kDefaultPubsubTopic = "/waku/2/default-waku/proto";

class WakuRelay {
 public:
  using MessageHandler = std::function<void(const WakuMessage&)>;
  /// Validator over the decoded WakuMessage; plugs into gossipsub.
  using MessageValidator = std::function<gossipsub::ValidationResult(
      net::NodeId from, const WakuMessage&)>;
  /// Batch validator over decoded WakuMessages: one result per message,
  /// same order. `from[i]` sent `messages[i]`, which arrived at local time
  /// `received_at[i]` (epoch checks must use arrival time, not flush time).
  using BatchMessageValidator =
      std::function<std::vector<gossipsub::ValidationResult>(
          const std::vector<net::NodeId>& from,
          const std::vector<net::TimeMs>& received_at,
          const std::vector<WakuMessage>& messages)>;

  WakuRelay(net::Network& network, gossipsub::GossipSubConfig config = {},
            gossipsub::PeerScoreConfig score_config = {},
            std::uint64_t seed = 1,
            std::string pubsub_topic = kDefaultPubsubTopic);

  /// Starts heartbeating (call after wiring the topology).
  void start() { router_.start(); }

  /// Stops heartbeating (node shutdown / simulated crash).
  void stop() { router_.stop(); }

  /// Subscribes to the default relay topic.
  void subscribe(MessageHandler handler) {
    subscribe_topic(topic_, std::move(handler));
  }
  /// Subscribes to an explicit pubsub topic (shard-qualified topics).
  void subscribe_topic(const std::string& pubsub_topic,
                       MessageHandler handler);

  /// Installs the message validator on the default topic (e.g. the PoW
  /// check). A convenience adapter over the batch hook — batching config
  /// still applies.
  void set_validator(MessageValidator validator);

  /// Installs the batched message validator (the RLN validation pipeline)
  /// on the default topic. Malformed envelopes are rejected before the
  /// validator sees them.
  void set_batch_validator(BatchMessageValidator validator) {
    set_batch_validator_topic(topic_, std::move(validator));
  }
  /// Same, on an explicit pubsub topic — the sharded relay installs one
  /// per subscribed shard, so each shard buffers and flushes its own
  /// validation windows.
  void set_batch_validator_topic(const std::string& pubsub_topic,
                                 BatchMessageValidator validator);

  /// Publishes a message on the default topic; returns its gossipsub id.
  gossipsub::MessageId publish(const WakuMessage& message) {
    return publish_on(topic_, message);
  }
  /// Publishes on an explicit pubsub topic (the shard the message's
  /// content topic maps to).
  gossipsub::MessageId publish_on(const std::string& pubsub_topic,
                                  const WakuMessage& message);

  /// Targeted publish to a chosen peer set only (no local delivery, no
  /// flood) — the attacker capability behind the split-equivocation
  /// adversary. See GossipSubRouter::publish_to.
  gossipsub::MessageId publish_to_on(const std::string& pubsub_topic,
                                     const WakuMessage& message,
                                     std::span<const net::NodeId> peers);

  [[nodiscard]] net::NodeId node_id() const { return router_.node_id(); }
  [[nodiscard]] const std::string& pubsub_topic() const { return topic_; }
  [[nodiscard]] gossipsub::GossipSubRouter& router() { return router_; }
  [[nodiscard]] const gossipsub::GossipSubRouter& router() const {
    return router_;
  }
  [[nodiscard]] const gossipsub::RouterStats& stats() const {
    return router_.stats();
  }

 private:
  std::string topic_;
  gossipsub::GossipSubRouter router_;
};

}  // namespace waku

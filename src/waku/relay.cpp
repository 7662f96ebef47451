#include "waku/relay.hpp"

namespace waku {

WakuRelay::WakuRelay(net::Network& network, gossipsub::GossipSubConfig config,
                     gossipsub::PeerScoreConfig score_config,
                     std::uint64_t seed, std::string pubsub_topic)
    : topic_(std::move(pubsub_topic)),
      router_(network, config, score_config, seed) {}

void WakuRelay::subscribe_topic(const std::string& pubsub_topic,
                                MessageHandler handler) {
  router_.subscribe(pubsub_topic,
                    [handler = std::move(handler)](
                        const gossipsub::PubSubMessage& msg) {
                      handler(WakuMessage::deserialize(msg.data));
                    });
}

void WakuRelay::set_validator(MessageValidator validator) {
  // The router adapts it onto the batch hook, so window configs apply.
  router_.set_validator(
      topic_, [validator = std::move(validator)](
                  net::NodeId from, const gossipsub::PubSubMessage& msg)
                  -> gossipsub::ValidationResult {
        WakuMessage decoded;
        try {
          decoded = WakuMessage::deserialize(msg.data);
        } catch (const std::exception&) {
          return gossipsub::ValidationResult::kReject;  // malformed envelope
        }
        return validator(from, decoded);
      });
}

void WakuRelay::set_batch_validator_topic(const std::string& pubsub_topic,
                                          BatchMessageValidator validator) {
  router_.set_batch_validator(
      pubsub_topic,
      [validator = std::move(validator)](
          std::span<const gossipsub::IncomingMessage> batch) {
        // Decode the envelopes first; only well-formed messages reach the
        // validator, and malformed ones are rejected in place.
        std::vector<gossipsub::ValidationResult> results(
            batch.size(), gossipsub::ValidationResult::kReject);
        std::vector<net::NodeId> froms;
        std::vector<net::TimeMs> times;
        std::vector<WakuMessage> decoded;
        std::vector<std::size_t> positions;
        froms.reserve(batch.size());
        times.reserve(batch.size());
        decoded.reserve(batch.size());
        positions.reserve(batch.size());
        for (std::size_t i = 0; i < batch.size(); ++i) {
          try {
            decoded.push_back(WakuMessage::deserialize(batch[i].msg.data));
            froms.push_back(batch[i].from);
            times.push_back(batch[i].received_at);
            positions.push_back(i);
          } catch (const std::exception&) {
            // malformed envelope: stays kReject
          }
        }
        if (!decoded.empty()) {
          const std::vector<gossipsub::ValidationResult> inner =
              validator(froms, times, decoded);
          for (std::size_t k = 0; k < positions.size(); ++k) {
            results[positions[k]] = k < inner.size()
                                        ? inner[k]
                                        : gossipsub::ValidationResult::kIgnore;
          }
        }
        return results;
      });
}

gossipsub::MessageId WakuRelay::publish_on(const std::string& pubsub_topic,
                                           const WakuMessage& message) {
  return router_.publish(pubsub_topic, message.serialize());
}

gossipsub::MessageId WakuRelay::publish_to_on(
    const std::string& pubsub_topic, const WakuMessage& message,
    std::span<const net::NodeId> peers) {
  return router_.publish_to(pubsub_topic, message.serialize(), peers);
}

}  // namespace waku

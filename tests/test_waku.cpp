// Tests for the Waku protocol layer: message serialization, and relay
// propagation and validation.
#include <gtest/gtest.h>

#include "waku/message.hpp"
#include "waku/relay.hpp"

namespace waku {
namespace {

TEST(WakuMessage, SerializationRoundTrip) {
  WakuMessage m;
  m.payload = to_bytes("hi there");
  m.content_topic = "/app/1/chat/proto";
  m.version = 2;
  m.timestamp_ms = 1644810116000ULL;
  m.rate_limit_proof = to_bytes("proof-bytes");
  EXPECT_EQ(WakuMessage::deserialize(m.serialize()), m);
}

TEST(WakuMessage, RoundTripWithoutProof) {
  WakuMessage m;
  m.payload = to_bytes("no proof");
  EXPECT_EQ(WakuMessage::deserialize(m.serialize()), m);
  EXPECT_FALSE(WakuMessage::deserialize(m.serialize())
                   .rate_limit_proof.has_value());
}

TEST(WakuMessage, SignalBytesCoverPayloadAndTopic) {
  WakuMessage a;
  a.payload = to_bytes("x");
  a.content_topic = "t1";
  WakuMessage b = a;
  b.content_topic = "t2";
  EXPECT_NE(a.signal_bytes(), b.signal_bytes());
  // But not the proof (the proof signs the signal, not itself).
  WakuMessage c = a;
  c.rate_limit_proof = to_bytes("zzz");
  EXPECT_EQ(a.signal_bytes(), c.signal_bytes());
}

TEST(WakuMessage, DeserializeRejectsTruncated) {
  WakuMessage m;
  m.payload = to_bytes("hello");
  Bytes wire = m.serialize();
  wire.resize(wire.size() / 2);
  EXPECT_THROW(WakuMessage::deserialize(wire), std::out_of_range);
}

struct RelayPair {
  net::Simulator sim;
  net::Network net{sim, {.base_latency_ms = 10, .jitter_ms = 0,
                         .loss_rate = 0}, 31};
  WakuRelay a{net};
  WakuRelay b{net, {}, {}, 2};
  std::vector<WakuMessage> a_got, b_got;

  RelayPair() {
    net.connect(a.node_id(), b.node_id());
    a.subscribe([this](const WakuMessage& m) { a_got.push_back(m); });
    b.subscribe([this](const WakuMessage& m) { b_got.push_back(m); });
    a.start();
    b.start();
    sim.run_until(3000);
  }
};

TEST(WakuRelay, DeliversDecodedMessages) {
  RelayPair pair;
  WakuMessage m;
  m.payload = to_bytes("relay me");
  m.content_topic = "/app/1/x/proto";
  pair.a.publish(m);
  pair.sim.run_until(pair.sim.now() + 2000);
  ASSERT_EQ(pair.b_got.size(), 1u);
  EXPECT_EQ(pair.b_got[0].payload, to_bytes("relay me"));
  EXPECT_EQ(pair.b_got[0].content_topic, "/app/1/x/proto");
}

TEST(WakuRelay, ValidatorSeesDecodedMessage) {
  RelayPair pair;
  std::vector<std::string> validated_topics;
  pair.b.set_validator([&](net::NodeId, const WakuMessage& m) {
    validated_topics.push_back(m.content_topic);
    return gossipsub::ValidationResult::kAccept;
  });
  WakuMessage m;
  m.payload = to_bytes("check me");
  m.content_topic = "/validated";
  pair.a.publish(m);
  pair.sim.run_until(pair.sim.now() + 2000);
  ASSERT_EQ(validated_topics.size(), 1u);
  EXPECT_EQ(validated_topics[0], "/validated");
}

TEST(WakuRelay, RejectingValidatorBlocksDelivery) {
  RelayPair pair;
  pair.b.set_validator([](net::NodeId, const WakuMessage&) {
    return gossipsub::ValidationResult::kReject;
  });
  WakuMessage m;
  m.payload = to_bytes("blocked");
  pair.a.publish(m);
  pair.sim.run_until(pair.sim.now() + 2000);
  EXPECT_TRUE(pair.b_got.empty());
  EXPECT_EQ(pair.b.stats().rejected, 1u);
}

}  // namespace
}  // namespace waku

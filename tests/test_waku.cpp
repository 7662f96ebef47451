// Tests for the Waku protocol layer: message serialization, relay
// propagation and validation, the store protocol's queries, and the filter
// protocol's light-node push path.
#include <gtest/gtest.h>

#include <memory>

#include "waku/filter.hpp"
#include "waku/message.hpp"
#include "waku/relay.hpp"
#include "waku/store.hpp"

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

// -- Store -------------------------------------------------------------------

WakuMessage mk_msg(const std::string& body, const std::string& topic) {
  WakuMessage m;
  m.payload = to_bytes(body);
  m.content_topic = topic;
  return m;
}

TEST(WakuStore, ArchivesAndQueriesByTime) {
  WakuStore store;
  for (std::uint64_t t = 0; t < 10; ++t) {
    store.archive(mk_msg(std::string("m").append(std::to_string(t)), "/t"),
                  t * 100);
  }
  HistoryQuery q;
  q.start_time_ms = 250;
  q.end_time_ms = 650;
  const HistoryResponse resp = store.query(q);
  ASSERT_EQ(resp.messages.size(), 4u);  // t=300,400,500,600
  EXPECT_EQ(resp.messages[0].payload, to_bytes("m3"));
  EXPECT_FALSE(resp.next_cursor.has_value());
}

TEST(WakuStore, FiltersByContentTopic) {
  WakuStore store;
  store.archive(mk_msg("a", "/chat"), 10);
  store.archive(mk_msg("b", "/news"), 20);
  store.archive(mk_msg("c", "/chat"), 30);
  HistoryQuery q;
  q.content_topic = "/chat";
  const HistoryResponse resp = store.query(q);
  ASSERT_EQ(resp.messages.size(), 2u);
  EXPECT_EQ(resp.messages[1].payload, to_bytes("c"));
}

TEST(WakuStore, PaginationWithCursor) {
  WakuStore store;
  for (int i = 0; i < 25; ++i) {
    store.archive(mk_msg(std::string("m").append(std::to_string(i)), "/t"),
                  static_cast<std::uint64_t>(i));
  }
  HistoryQuery q;
  q.page_size = 10;
  HistoryResponse page1 = store.query(q);
  ASSERT_EQ(page1.messages.size(), 10u);
  ASSERT_TRUE(page1.next_cursor.has_value());

  q.cursor = *page1.next_cursor;
  HistoryResponse page2 = store.query(q);
  ASSERT_EQ(page2.messages.size(), 10u);
  EXPECT_EQ(page2.messages[0].payload, to_bytes("m10"));

  q.cursor = *page2.next_cursor;
  HistoryResponse page3 = store.query(q);
  EXPECT_EQ(page3.messages.size(), 5u);
  EXPECT_FALSE(page3.next_cursor.has_value());
}

TEST(WakuStore, EvictsOldestWhenFull) {
  WakuStore store(5);
  for (int i = 0; i < 8; ++i) {
    store.archive(mk_msg(std::string("m").append(std::to_string(i)), "/t"),
                  static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(store.size(), 5u);
  const HistoryResponse resp = store.query(HistoryQuery{});
  EXPECT_EQ(resp.messages[0].payload, to_bytes("m3"));
}

TEST(WakuStore, TracksBytes) {
  WakuStore store;
  store.archive(mk_msg(std::string(100, 'x'), "/t"), 0);
  EXPECT_EQ(store.bytes_stored(), 100u);
}

// -- Filter ------------------------------------------------------------------

struct FilterFixture : ::testing::Test {
  net::Simulator sim;
  net::Network net{sim, {.base_latency_ms = 5, .jitter_ms = 0,
                         .loss_rate = 0}, 37};
  FilterService service{net};
  std::vector<WakuMessage> light_got;
  FilterClient client{net, [this](const WakuMessage& m) {
                        light_got.push_back(m);
                      }};

  void SetUp() override {
    net.connect(service.node_id(), client.node_id());
  }
};

TEST_F(FilterFixture, PushesMatchingMessages) {
  client.subscribe(service.node_id(), "/wanted");
  sim.run_all();
  service.on_relay_message(mk_msg("yes", "/wanted"));
  service.on_relay_message(mk_msg("no", "/other"));
  sim.run_all();
  ASSERT_EQ(light_got.size(), 1u);
  EXPECT_EQ(light_got[0].payload, to_bytes("yes"));
  EXPECT_EQ(service.pushed_count(), 1u);
}

TEST_F(FilterFixture, UnsubscribeStopsPushes) {
  client.subscribe(service.node_id(), "/wanted");
  sim.run_all();
  client.unsubscribe(service.node_id(), "/wanted");
  sim.run_all();
  service.on_relay_message(mk_msg("late", "/wanted"));
  sim.run_all();
  EXPECT_TRUE(light_got.empty());
  EXPECT_EQ(service.subscription_count(), 0u);
}

TEST_F(FilterFixture, MultipleTopicsPerClient) {
  client.subscribe(service.node_id(), "/a");
  client.subscribe(service.node_id(), "/b");
  sim.run_all();
  service.on_relay_message(mk_msg("1", "/a"));
  service.on_relay_message(mk_msg("2", "/b"));
  service.on_relay_message(mk_msg("3", "/c"));
  sim.run_all();
  EXPECT_EQ(light_got.size(), 2u);
  EXPECT_EQ(client.received_count(), 2u);
}

}  // namespace
}  // namespace waku

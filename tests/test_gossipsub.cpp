// Tests for the gossipsub router and peer scoring: mesh formation,
// propagation, validation gating, lazy gossip recovery, and the
// Sybil-vulnerability of score-based defences the paper critiques.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "common/rng.hpp"
#include "common/serde.hpp"
#include "gossipsub/router.hpp"
#include "hash/sha256.hpp"

namespace waku::gossipsub {
namespace {

constexpr const char* kTopic = "test-topic";

struct Swarm {
  net::Simulator sim;
  net::Network net;
  std::vector<std::unique_ptr<GossipSubRouter>> routers;
  std::vector<std::uint64_t> delivered;

  explicit Swarm(std::size_t n, net::LinkConfig link = {.base_latency_ms = 20,
                                                        .jitter_ms = 10,
                                                        .loss_rate = 0},
                 GossipSubConfig config = {})
      : net(sim, link, 23), delivered(n, 0) {
    for (std::size_t i = 0; i < n; ++i) {
      routers.push_back(
          std::make_unique<GossipSubRouter>(net, config, PeerScoreConfig{},
                                            100 + i));
    }
  }

  void wire_and_subscribe(std::size_t degree = 4) {
    Rng rng(29);
    net.connect_random(degree, rng);
    for (std::size_t i = 0; i < routers.size(); ++i) {
      routers[i]->subscribe(kTopic, [this, i](const PubSubMessage&) {
        ++delivered[i];
      });
      routers[i]->start();
    }
    sim.run_until(sim.now() + 5000);  // several heartbeats: meshes form
  }

  std::uint64_t total_delivered() const {
    std::uint64_t n = 0;
    for (const auto d : delivered) n += d;
    return n;
  }
};

TEST(GossipSub, MeshFormsWithinBounds) {
  Swarm swarm(20);
  swarm.wire_and_subscribe(6);
  for (const auto& r : swarm.routers) {
    const auto mesh = r->mesh_peers(kTopic);
    EXPECT_GE(mesh.size(), 1u);
    EXPECT_LE(mesh.size(), GossipSubConfig{}.mesh_n_high);
  }
}

TEST(GossipSub, PublishReachesAllSubscribers) {
  Swarm swarm(30);
  swarm.wire_and_subscribe();
  swarm.routers[0]->publish(kTopic, to_bytes("hello everyone"));
  swarm.sim.run_until(swarm.sim.now() + 10'000);
  for (std::size_t i = 0; i < swarm.routers.size(); ++i) {
    EXPECT_EQ(swarm.delivered[i], 1u) << "node " << i;
  }
}

TEST(GossipSub, EveryMessageDeliveredExactlyOnce) {
  Swarm swarm(25);
  swarm.wire_and_subscribe();
  for (int m = 0; m < 10; ++m) {
    swarm.routers[static_cast<std::size_t>(m) % 25]->publish(
        kTopic, to_bytes("msg" + std::to_string(m)));
    swarm.sim.run_until(swarm.sim.now() + 500);
  }
  swarm.sim.run_until(swarm.sim.now() + 10'000);
  for (std::size_t i = 0; i < swarm.routers.size(); ++i) {
    EXPECT_EQ(swarm.delivered[i], 10u) << "node " << i;
  }
}

TEST(GossipSub, DuplicatesAreSuppressed) {
  Swarm swarm(20);
  swarm.wire_and_subscribe();
  swarm.routers[0]->publish(kTopic, to_bytes("dup-test"));
  swarm.sim.run_until(swarm.sim.now() + 10'000);
  // With flood publish + mesh relay, some duplicates must have been seen
  // and absorbed rather than re-delivered.
  std::uint64_t dups = 0;
  for (const auto& r : swarm.routers) dups += r->stats().duplicates;
  EXPECT_GT(dups, 0u);
  EXPECT_EQ(swarm.total_delivered(), 20u);
}

TEST(GossipSub, LazyGossipRecoversLostMessages) {
  // 30% loss: eager push misses some peers; IHAVE/IWANT repair should
  // still deliver everywhere eventually.
  Swarm swarm(20, {.base_latency_ms = 20, .jitter_ms = 10, .loss_rate = 0.30});
  swarm.wire_and_subscribe();
  swarm.routers[0]->publish(kTopic, to_bytes("lossy"));
  swarm.sim.run_until(swarm.sim.now() + 30'000);
  EXPECT_GE(swarm.total_delivered(), 19u);  // at most one straggler
}

TEST(GossipSub, ValidatorRejectStopsPropagationAtFirstHop) {
  Swarm swarm(20);
  swarm.wire_and_subscribe();
  // All nodes reject everything on this topic.
  for (auto& r : swarm.routers) {
    r->set_validator(kTopic, [](net::NodeId, const PubSubMessage&) {
      return ValidationResult::kReject;
    });
  }
  swarm.routers[0]->publish(kTopic, to_bytes("spam"));
  swarm.sim.run_until(swarm.sim.now() + 10'000);

  // Publisher delivered to itself only; no forwarding happened anywhere.
  EXPECT_EQ(swarm.total_delivered(), 1u);
  std::uint64_t forwarded = 0;
  std::uint64_t rejected = 0;
  for (const auto& r : swarm.routers) {
    forwarded += r->stats().forwarded;
    rejected += r->stats().rejected;
  }
  EXPECT_EQ(forwarded, 0u);
  // Only the publisher's direct connections ever saw it.
  EXPECT_LE(rejected, swarm.net.neighbors(0).size());
  EXPECT_GE(rejected, 1u);
}

TEST(GossipSub, ValidatorIgnoreDropsSilentlyWithoutPenalty) {
  Swarm swarm(10);
  swarm.wire_and_subscribe();
  for (auto& r : swarm.routers) {
    r->set_validator(kTopic, [](net::NodeId, const PubSubMessage&) {
      return ValidationResult::kIgnore;
    });
  }
  swarm.routers[0]->publish(kTopic, to_bytes("meh"));
  swarm.sim.run_until(swarm.sim.now() + 5'000);
  EXPECT_EQ(swarm.total_delivered(), 1u);  // only the publisher itself
  // Ignore must not penalize: scores of node 0 at its peers stay >= 0.
  for (const auto& r : swarm.routers) {
    if (r->node_id() == 0) continue;
    EXPECT_GE(r->scores().score(0), 0.0);
  }
}

TEST(GossipSub, InvalidMessagesCrashSenderScore) {
  Swarm swarm(10);
  swarm.wire_and_subscribe();
  for (auto& r : swarm.routers) {
    r->set_validator(kTopic, [](net::NodeId, const PubSubMessage&) {
      return ValidationResult::kReject;
    });
  }
  // Node 0 floods garbage; its neighbors' opinion of it collapses. Once a
  // neighbor graylists it, further garbage is ignored without validation,
  // so the rejected count saturates below the number of messages sent.
  for (int i = 0; i < 10; ++i) {
    swarm.routers[0]->publish(kTopic, to_bytes("junk" + std::to_string(i)));
    swarm.sim.run_until(swarm.sim.now() + 50);
  }
  swarm.sim.run_until(swarm.sim.now() + 100);

  const std::size_t neighbors = swarm.net.neighbors(0).size();
  std::uint64_t rejected = 0;
  bool someone_hostile = false;
  for (const auto& r : swarm.routers) {
    if (r->node_id() == 0) continue;
    rejected += r->stats().rejected;
    if (r->scores().score(0) < -40.0) someone_hostile = true;
  }
  EXPECT_TRUE(someone_hostile);
  // Graylisting kicked in before all 10 messages were validated everywhere.
  EXPECT_LT(rejected, 10 * neighbors);
  EXPECT_GE(rejected, 3u);
}

TEST(GossipSub, SybilRotationEvadesScoring) {
  // The paper's critique of peer scoring: a spammer that rotates through
  // fresh identities starts each with a clean score. We model rotation by
  // publishing garbage from many distinct nodes — none accumulates enough
  // negative score to be contained before it has already spammed.
  Swarm swarm(30);
  swarm.wire_and_subscribe();
  for (auto& r : swarm.routers) {
    r->set_validator(kTopic, [](net::NodeId, const PubSubMessage&) {
      return ValidationResult::kReject;
    });
  }
  std::uint64_t spam_received_total = 0;
  for (std::size_t sybil = 0; sybil < 15; ++sybil) {
    swarm.routers[sybil]->publish(kTopic, to_bytes("sybil-spam"));
    swarm.sim.run_until(swarm.sim.now() + 200);
  }
  for (const auto& r : swarm.routers) {
    spam_received_total += r->stats().rejected;
  }
  // Every fresh identity lands its spam on its direct peers: scoring never
  // stops the first message of a new Sybil.
  EXPECT_GE(spam_received_total, 15u);
}

TEST(GossipSub, UnsubscribeLeavesMesh) {
  Swarm swarm(10);
  swarm.wire_and_subscribe();
  swarm.routers[0]->unsubscribe(kTopic);
  swarm.sim.run_until(swarm.sim.now() + 3'000);
  for (const auto& r : swarm.routers) {
    if (r->node_id() == 0) continue;
    const auto mesh = r->mesh_peers(kTopic);
    EXPECT_TRUE(std::find(mesh.begin(), mesh.end(), 0u) == mesh.end());
  }
  swarm.routers[1]->publish(kTopic, to_bytes("after-leave"));
  swarm.sim.run_until(swarm.sim.now() + 5'000);
  EXPECT_EQ(swarm.delivered[0], 0u);
}

TEST(GossipSub, HeartbeatRetractsUnsubscribeFromPartitionedPeer) {
  // A peer that is unreachable while we unsubscribe must still learn of
  // it once the link returns: the heartbeat re-announces subscriptions to
  // late links (PR 4), and it must retract UNsubscribes the same way —
  // otherwise the relinked peer keeps grafting the dead topic's mesh and
  // fanout-routes publishes into a void (after a reshard's drop-old,
  // that dead topic is a whole generation's shard mesh).
  Swarm swarm(2);
  swarm.net.connect(0, 1);
  for (std::size_t i = 0; i < 2; ++i) {
    swarm.routers[i]->subscribe(kTopic, [&swarm, i](const PubSubMessage&) {
      ++swarm.delivered[i];
    });
    swarm.routers[i]->start();
  }
  swarm.sim.run_until(swarm.sim.now() + 3'000);
  ASSERT_TRUE(swarm.routers[1]->peer_subscribed(0, kTopic));

  // Partition, then unsubscribe while unreachable: the kUnsubscribe
  // frame has no link to travel.
  swarm.net.disconnect(0, 1);
  swarm.routers[0]->unsubscribe(kTopic);
  swarm.sim.run_until(swarm.sim.now() + 3'000);
  ASSERT_TRUE(swarm.routers[1]->peer_subscribed(0, kTopic));  // stale belief

  // Relink: within a heartbeat the retraction lands and router 1 forgets
  // the stale subscription; nothing is fanout-routed to router 0.
  swarm.net.connect(0, 1);
  swarm.sim.run_until(swarm.sim.now() + 3'000);
  EXPECT_FALSE(swarm.routers[1]->peer_subscribed(0, kTopic));
  swarm.routers[1]->publish(kTopic, to_bytes("post-retraction"));
  swarm.sim.run_until(swarm.sim.now() + 3'000);
  EXPECT_EQ(swarm.delivered[0], 0u);
}

TEST(GossipSub, StaleSubscriptionCorrectedAfterLossyUnsubscribe) {
  // The unsubscribe frame itself can be LOST (lossy link, not a
  // partition): the peer stays a neighbor, so the heartbeat's
  // late-link retraction never triggers. The stale belief must still be
  // corrected event-driven — a publish routed to us on a topic we left
  // proves the sender's belief is stale, and we retract again.
  Swarm swarm(2);
  swarm.net.connect(0, 1);
  for (std::size_t i = 0; i < 2; ++i) {
    swarm.routers[i]->subscribe(kTopic, [&swarm, i](const PubSubMessage&) {
      ++swarm.delivered[i];
    });
    swarm.routers[i]->start();
  }
  swarm.sim.run_until(swarm.sim.now() + 3'000);

  // Everything router 0 sends is eaten while it unsubscribes.
  net::LinkConfig lossy;
  lossy.loss_rate = 1.0;
  swarm.net.set_link_override(0, 1, lossy);
  swarm.routers[0]->unsubscribe(kTopic);
  swarm.net.clear_link_override(0, 1);
  swarm.sim.run_until(swarm.sim.now() + 2'000);
  ASSERT_TRUE(swarm.routers[1]->peer_subscribed(0, kTopic));  // stale

  // Router 1 publishes into the stale mesh; router 0's event-driven
  // retraction corrects the belief.
  swarm.routers[1]->publish(kTopic, to_bytes("stale-mesh publish"));
  swarm.sim.run_until(swarm.sim.now() + 3'000);
  EXPECT_FALSE(swarm.routers[1]->peer_subscribed(0, kTopic));
  EXPECT_EQ(swarm.delivered[0], 0u);
}

TEST(GossipSub, ResubscribeWhilePartitionedNeedsNoRetraction) {
  // Unsubscribe then RE-subscribe, both while the peer is away: its
  // stale belief is accidentally correct again and must survive the
  // reconnect (no spurious retraction after the re-announce).
  Swarm swarm(2);
  swarm.net.connect(0, 1);
  for (std::size_t i = 0; i < 2; ++i) {
    swarm.routers[i]->subscribe(kTopic, [&swarm, i](const PubSubMessage&) {
      ++swarm.delivered[i];
    });
    swarm.routers[i]->start();
  }
  swarm.sim.run_until(swarm.sim.now() + 3'000);

  swarm.net.disconnect(0, 1);
  swarm.routers[0]->unsubscribe(kTopic);
  swarm.routers[0]->subscribe(kTopic, [&swarm](const PubSubMessage&) {
    ++swarm.delivered[0];
  });
  swarm.net.connect(0, 1);
  swarm.sim.run_until(swarm.sim.now() + 5'000);
  EXPECT_TRUE(swarm.routers[1]->peer_subscribed(0, kTopic));
  swarm.routers[1]->publish(kTopic, to_bytes("back again"));
  swarm.sim.run_until(swarm.sim.now() + 3'000);
  EXPECT_EQ(swarm.delivered[0], 1u);
}

TEST(GossipSub, MalformedFramePenalized) {
  Swarm swarm(2);
  swarm.net.connect(0, 1);
  swarm.routers[0]->subscribe(kTopic, [](const PubSubMessage&) {});
  swarm.routers[1]->subscribe(kTopic, [](const PubSubMessage&) {});
  swarm.net.send(1, 0, to_bytes("\xff\xff garbage"));
  swarm.sim.run_all();
  EXPECT_LT(swarm.routers[0]->scores().score(1), 0.0);
}

Frame control_frame(FrameType type, std::string topic) {
  Frame frame;
  frame.type = type;
  frame.topic = std::move(topic);
  return frame;
}

Bytes padded_publish() {
  Bytes frame = encode_publish(PubSubMessage{
      .topic = kTopic, .data = to_bytes("padded"), .origin = 1, .seqno = 0});
  frame.push_back(0);
  return frame;
}

TEST(GossipSub, PaddedPublishPenalizedAndNeverDelivered) {
  Swarm swarm(2);
  swarm.net.connect(0, 1);
  for (std::size_t i = 0; i < 2; ++i) {
    swarm.routers[i]->subscribe(kTopic, [&swarm, i](const PubSubMessage&) {
      ++swarm.delivered[i];
    });
  }
  swarm.net.send(1, 0, padded_publish());
  swarm.sim.run_all();
  EXPECT_LT(swarm.routers[0]->scores().score(1), 0.0);
  EXPECT_EQ(swarm.delivered[0], 0u);
  EXPECT_EQ(swarm.routers[0]->stats().duplicates, 0u);
}

/// A bare endpoint: injects frames and keeps every frame buffer it gets.
class Sniffer : public net::NetNode {
 public:
  explicit Sniffer(net::Network& net) : net_(net), id(net.add_node(this)) {}
  void on_message(NodeId, BytesView) override { ADD_FAILURE(); }
  void on_frame(NodeId, const net::SharedBytes& frame) override {
    received.push_back(frame);
  }
  void send(NodeId to, const Frame& frame) {
    net_.send(id, to, encode_frame(frame));
  }
  [[nodiscard]] std::size_t publishes() const {
    return static_cast<std::size_t>(std::count_if(
        received.begin(), received.end(),
        [](const net::SharedBytes& f) { return is_publish(*f); }));
  }

  net::Network& net_;
  NodeId id;
  std::vector<net::SharedBytes> received;
};

/// A relay with one injecting peer and one mesh peer (the sniffer) on
/// kTopic.
struct RelayRig {
  net::Simulator sim;
  net::Network net{sim, {.base_latency_ms = 10, .jitter_ms = 0}, 5};
  GossipSubRouter relay{net};
  Sniffer injector{net};
  Sniffer sniffer{net};
  std::uint64_t delivered = 0;

  RelayRig() {
    net.connect(relay.node_id(), injector.id);
    net.connect(relay.node_id(), sniffer.id);
    relay.subscribe(kTopic, [this](const PubSubMessage&) { ++delivered; });
    // The sniffer joins the relay's mesh for the topic.
    sniffer.send(relay.node_id(), control_frame(FrameType::kSubscribe, kTopic));
    sniffer.send(relay.node_id(), control_frame(FrameType::kGraft, kTopic));
    sim.run_all();
  }

  static Bytes frame(const char* data) {
    return encode_publish(PubSubMessage{
        .topic = kTopic, .data = to_bytes(data), .origin = 7, .seqno = 1});
  }
  // Each send is a fresh buffer, so equality is by bytes, not pointer.
  void inject(const Bytes& bytes, NodeId from) {
    net.send(from, relay.node_id(), bytes);
    sim.run_until(sim.now() + 100);
  }
};

TEST(GossipSub, RelayForwardsReceivedBytes) {
  RelayRig rig;
  ASSERT_EQ(rig.relay.mesh_peers(kTopic), std::vector<NodeId>{rig.sniffer.id});

  const auto injected = std::make_shared<const Bytes>(
      encode_publish(PubSubMessage{.topic = kTopic,
                                   .data = to_bytes("forward me as is"),
                                   .origin = rig.injector.id,
                                   .seqno = 3}));
  rig.net.send(rig.injector.id, rig.relay.node_id(), injected);
  rig.sim.run_all();
  EXPECT_EQ(rig.delivered, 1u);
  ASSERT_EQ(rig.sniffer.publishes(), 1u);
  const net::SharedBytes& forwarded = rig.sniffer.received.back();
  EXPECT_EQ(*forwarded, *injected);
  EXPECT_EQ(forwarded.get(), injected.get()) << "relay copied the frame";
}

TEST(GossipSub, SeenCacheExpiresOldestFirst) {
  net::Simulator sim;
  net::Network net(sim, {.base_latency_ms = 10, .jitter_ms = 0}, 5);
  GossipSubConfig config;
  config.seen_ttl_ms = 3'000;
  GossipSubRouter router(net, config);
  Sniffer injector(net);
  net.connect(router.node_id(), injector.id);
  std::vector<std::string> delivered;
  router.subscribe(kTopic, [&](const PubSubMessage& m) {
    delivered.push_back(to_string(m.data));
  });
  router.start();  // heartbeats at 1000, 2000, ...
  const auto inject = [&](const char* data) {
    net.send(injector.id, router.node_id(),
             encode_publish(PubSubMessage{.topic = kTopic,
                                          .data = to_bytes(data),
                                          .origin = injector.id,
                                          .seqno = 0}));
  };

  inject("old");  // seen at 10
  sim.run_until(1'500);
  inject("new");  // seen at 1510
  inject("old");  // within the TTL: a duplicate
  sim.run_until(2'000);
  EXPECT_EQ(delivered, (std::vector<std::string>{"old", "new"}));
  EXPECT_EQ(router.stats().duplicates, 1u);

  // The heartbeat at 4000 expires "old" (age 3990) but not "new" (2490).
  sim.run_until(4'100);
  inject("old");
  inject("new");
  sim.run_until(4'500);
  EXPECT_EQ(delivered, (std::vector<std::string>{"old", "new", "old"}));
  EXPECT_EQ(router.stats().duplicates, 2u);

  // The heartbeat at 5000 expires "new" (age 3490), not "old" (reseen
  // at 4110).
  sim.run_until(5'100);
  inject("old");
  inject("new");
  sim.run_until(5'500);
  EXPECT_EQ(delivered,
            (std::vector<std::string>{"old", "new", "old", "new"}));
  EXPECT_EQ(router.stats().duplicates, 3u);
  router.stop();
}

TEST(GossipSubDuplicates, ByteEqualDuplicateIsCountedOnceAndGoesNowhere) {
  RelayRig rig;
  const Bytes frame = RelayRig::frame("twice");
  rig.inject(frame, rig.injector.id);
  rig.inject(frame, rig.injector.id);
  rig.inject(frame, rig.sniffer.id);
  EXPECT_EQ(rig.delivered, 1u);
  EXPECT_EQ(rig.relay.stats().duplicates, 2u);
  EXPECT_EQ(rig.relay.stats().forwarded, 1u);
  EXPECT_EQ(rig.sniffer.publishes(), 1u);
  EXPECT_EQ(rig.injector.publishes(), 0u);
  EXPECT_EQ(rig.relay.held_frames(), 1u);
}

TEST(GossipSubDuplicates, GraylistedSendersDuplicateIsNotCounted) {
  RelayRig rig;
  const Bytes frame = RelayRig::frame("graylist");
  rig.inject(frame, rig.injector.id);
  while (!rig.relay.scores().graylisted(rig.sniffer.id)) {
    rig.relay.scores().record_invalid_message(rig.sniffer.id);
  }
  rig.inject(frame, rig.sniffer.id);
  EXPECT_EQ(rig.relay.stats().duplicates, 0u);
  rig.inject(frame, rig.injector.id);
  EXPECT_EQ(rig.relay.stats().duplicates, 1u);
  EXPECT_EQ(rig.delivered, 1u);
}

TEST(GossipSubDuplicates, DuplicateAfterHistoryLengthIsDeduplicatedById) {
  RelayRig rig;
  rig.relay.start();  // heartbeats every 1000 ms from now
  const Bytes frame = RelayRig::frame("late");
  rig.inject(frame, rig.injector.id);
  ASSERT_EQ(rig.relay.held_frames(), 1u);
  // history_length (5) heartbeats later the frame is no longer held, but
  // its id is still in the seen cache (120 s TTL).
  rig.sim.run_until(rig.sim.now() + 5'500);
  EXPECT_EQ(rig.relay.held_frames(), 0u);
  rig.inject(frame, rig.injector.id);
  EXPECT_EQ(rig.relay.stats().duplicates, 1u);
  EXPECT_EQ(rig.delivered, 1u);
  EXPECT_EQ(rig.relay.stats().forwarded, 1u);
  EXPECT_EQ(rig.relay.held_frames(), 0u) << "a late duplicate is not held";
  rig.relay.stop();
}

TEST(GossipSubDuplicates, SameLengthFrameDifferingInOneByteIsNew) {
  RelayRig rig;
  const Bytes frame = RelayRig::frame("one byte apart");
  Bytes other = frame;
  other.back() ^= 0x01;  // last data byte: still a well-formed publish
  rig.inject(frame, rig.injector.id);
  rig.inject(other, rig.injector.id);
  EXPECT_EQ(rig.delivered, 2u);
  EXPECT_EQ(rig.relay.stats().duplicates, 0u);
  EXPECT_EQ(rig.sniffer.publishes(), 2u);
}

TEST(GossipSubDuplicates, EchoesOfOwnPublishAreDuplicates) {
  RelayRig rig;
  rig.relay.publish(kTopic, to_bytes("mine"));
  const std::vector<NodeId> target{rig.injector.id};
  rig.relay.publish_to(kTopic, to_bytes("targeted"), target);
  rig.sim.run_until(rig.sim.now() + 100);
  ASSERT_EQ(rig.sniffer.publishes(), 1u);
  ASSERT_EQ(rig.injector.publishes(), 1u);
  rig.inject(*rig.sniffer.received.back(), rig.sniffer.id);
  rig.inject(*rig.injector.received.back(), rig.injector.id);
  EXPECT_EQ(rig.delivered, 1u) << "only the local delivery of publish()";
  EXPECT_EQ(rig.relay.stats().duplicates, 2u);
  EXPECT_EQ(rig.relay.stats().forwarded, 0u);
  EXPECT_EQ(rig.sniffer.publishes(), 1u);
}

TEST(PeerScoreUnit, FreshPeerIsNeutral) {
  PeerScore score;
  EXPECT_EQ(score.score(5), 0.0);
  EXPECT_FALSE(score.graylisted(5));
}

TEST(PeerScoreUnit, InvalidMessagesAreSquared) {
  PeerScore score;
  score.record_invalid_message(1);
  const double one = score.score(1);
  score.record_invalid_message(1);
  const double two = score.score(1);
  EXPECT_LT(two, 4 * one + 1e-9);  // -w*n^2 grows superlinearly
}

TEST(PeerScoreUnit, DecayForgivesOverTime) {
  PeerScore score;
  for (int i = 0; i < 3; ++i) score.record_invalid_message(7);
  const double before = score.score(7);
  for (int i = 0; i < 60; ++i) score.decay_all();
  EXPECT_GT(score.score(7), before);
  EXPECT_EQ(score.score(7), 0.0);  // snapped to zero
}

TEST(PeerScoreUnit, PositiveBehaviourBuildsCredit) {
  PeerScore score;
  for (int i = 0; i < 10; ++i) {
    score.record_first_delivery(3);
    score.record_mesh_tick(3);
  }
  EXPECT_GT(score.score(3), 0.0);
}

TEST(PeerScoreUnit, ThresholdsOrdering) {
  const PeerScoreConfig c;
  EXPECT_GT(c.gossip_threshold, c.publish_threshold);
  EXPECT_GT(c.publish_threshold, c.graylist_threshold);
}

TEST(WireFormat, FrameRoundTrips) {
  Frame f;
  f.type = FrameType::kPublish;
  f.topic = "t";
  PubSubMessage m;
  m.topic = "t";
  m.data = to_bytes("payload");
  m.origin = 9;
  m.seqno = 1234;
  f.message = m;
  const Frame decoded = decode_frame(encode_frame(f));
  EXPECT_EQ(decoded.topic, "t");
  ASSERT_TRUE(decoded.message.has_value());
  EXPECT_EQ(decoded.message->data, m.data);
  EXPECT_EQ(decoded.message->origin, 9u);
  EXPECT_EQ(decoded.message->seqno, 1234u);
}

TEST(WireFormat, IHaveRoundTrips) {
  Frame f;
  f.type = FrameType::kIHave;
  f.topic = "t";
  MessageId id{};
  id[0] = 0xab;
  f.ids = {id, id};
  const Frame decoded = decode_frame(encode_frame(f));
  EXPECT_EQ(decoded.type, FrameType::kIHave);
  ASSERT_EQ(decoded.ids.size(), 2u);
  EXPECT_EQ(decoded.ids[0][0], 0xab);
}

TEST(WireFormat, RejectsGarbage) {
  EXPECT_THROW(decode_frame(to_bytes("\x63nonsense")), std::invalid_argument);
  EXPECT_THROW(decode_frame(Bytes{}), std::out_of_range);
}

TEST(WireFormat, RejectsTrailingBytes) {
  EXPECT_THROW(parse_publish(padded_publish()), std::invalid_argument);
  EXPECT_THROW(decode_frame(padded_publish()), std::invalid_argument);
  Frame ihave = control_frame(FrameType::kIHave, "t");
  ihave.ids = {MessageId{}};
  Bytes padded = encode_frame(ihave);
  padded.push_back(0);
  EXPECT_THROW(decode_frame(padded), std::invalid_argument);
  Bytes graft = encode_frame(control_frame(FrameType::kGraft, "t"));
  graft.push_back(0);
  EXPECT_THROW(decode_frame(graft), std::invalid_argument);
}

TEST(WireFormat, PublishIdIsSha256OfFrameBody) {
  Rng rng(0xB0D7);
  for (int i = 0; i < 32; ++i) {
    PubSubMessage m;
    m.topic = to_string(rng.next_bytes(rng.next_below(40)));
    m.data = rng.next_bytes(rng.next_below(600));
    m.origin = static_cast<NodeId>(rng.next_u64());
    m.seqno = rng.next_u64();
    const Bytes frame = encode_publish(m);
    const PublishView view = parse_publish(frame);
    EXPECT_EQ(view.id(), m.id()) << "message " << i;
    EXPECT_EQ(view.id(), hash::sha256(BytesView(frame).subspan(1)));
    const PubSubMessage back = view.message();
    EXPECT_EQ(back.topic, m.topic);
    EXPECT_EQ(back.data, m.data);
    EXPECT_EQ(back.origin, m.origin);
    EXPECT_EQ(back.seqno, m.seqno);
  }
}

TEST(WireFormat, MessageIdDependsOnAllFields) {
  PubSubMessage base{.topic = "t", .data = to_bytes("x"), .origin = 1,
                     .seqno = 1};
  PubSubMessage diff_topic = base;
  diff_topic.topic = "u";
  PubSubMessage diff_data = base;
  diff_data.data = to_bytes("y");
  PubSubMessage diff_origin = base;
  diff_origin.origin = 2;
  PubSubMessage diff_seq = base;
  diff_seq.seqno = 2;
  EXPECT_NE(base.id(), diff_topic.id());
  EXPECT_NE(base.id(), diff_data.id());
  EXPECT_NE(base.id(), diff_origin.id());
  EXPECT_NE(base.id(), diff_seq.id());
}

Bytes byte_pattern(std::size_t n) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  return b;
}

// Ids travel in IHAVE/IWANT and key every seen cache, so a different id for
// the same message is a wire-format change.
TEST(WireFormat, MessageIdIsPinned) {
  const PubSubMessage empty{
      .topic = "/waku/2/rs/0/0", .data = {}, .origin = 7, .seqno = 0};
  const PubSubMessage full{.topic = "/waku/2/rs/0/3",
                           .data = byte_pattern(300),
                           .origin = 0x01020304,
                           .seqno = 0x1122334455667788ULL};
  EXPECT_EQ(to_hex(empty.id()),
            "0430021be3f3ae62ce6c18ed715a142ca72e315aceb6d8d32c837695e01e068d");
  EXPECT_EQ(to_hex(full.id()),
            "9ea9cf400e14011fc36876a6271ac981e9a003d6bf736fc1da356f79e8e190c1");
}

TEST(WireFormat, MessageIdIsSha256OfByteWriterEncoding) {
  Rng rng(0x1D5);
  for (int i = 0; i < 64; ++i) {
    PubSubMessage m;
    m.topic = to_string(rng.next_bytes(rng.next_below(48)));
    m.data = rng.next_bytes(rng.next_below(700));
    m.origin = static_cast<NodeId>(rng.next_u64());
    m.seqno = rng.next_u64();
    ByteWriter w;
    w.write_string(m.topic);
    w.write_u32(m.origin);
    w.write_u64(m.seqno);
    w.write_bytes(m.data);
    EXPECT_EQ(m.id(), hash::sha256(w.data())) << "message " << i;
  }
}

}  // namespace
}  // namespace waku::gossipsub

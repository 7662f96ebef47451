// GossipSub v1.1-style router (paper [2]): mesh overlay per topic, eager
// push within the mesh, lazy IHAVE/IWANT gossip outside it, heartbeat mesh
// maintenance, and score-gated interactions. One router instance per
// simulated node; frames travel over net::Network links.
#pragma once

#include <deque>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "gossipsub/peer_score.hpp"
#include "gossipsub/types.hpp"
#include "gossipsub/wire.hpp"

namespace waku::gossipsub {

/// Per-router counters consumed by the spam experiments.
struct RouterStats {
  std::uint64_t delivered = 0;        ///< unique valid messages delivered
  std::uint64_t duplicates = 0;       ///< already-seen publishes received
  std::uint64_t rejected = 0;         ///< validation -> kReject
  std::uint64_t ignored = 0;          ///< validation -> kIgnore
  std::uint64_t forwarded = 0;        ///< publishes relayed onward
  std::uint64_t ihave_sent = 0;
  std::uint64_t iwant_served = 0;
  /// Batched-validation windows handed to a validator (observability:
  /// window count vs delivered/rejected gives mean window size).
  std::uint64_t validation_windows_flushed = 0;
};

class GossipSubRouter : public net::NetNode {
 public:
  /// Registers itself with `network`; the router's NodeId is node_id().
  GossipSubRouter(net::Network& network, GossipSubConfig config = {},
                  PeerScoreConfig score_config = {},
                  std::uint64_t seed = 1);

  GossipSubRouter(const GossipSubRouter&) = delete;
  GossipSubRouter& operator=(const GossipSubRouter&) = delete;

  /// Begins heartbeating; call after the topology is wired.
  void start();

  /// Cancels the heartbeat (node shutdown). Safe to call when not started.
  void stop();

  /// Subscribes to `topic`; `handler` fires for each delivered message.
  void subscribe(const std::string& topic, DeliveryHandler handler);
  void unsubscribe(const std::string& topic);

  /// Installs the validation hook for `topic` (the RLN/PoW plug point).
  /// Adapted onto the batch hook below, so batching config applies.
  void set_validator(const std::string& topic, Validator validator);

  /// Installs the batched validation hook for `topic` — the router's one
  /// validation entry point. With validation_batch_max > 1, received
  /// publishes are buffered and validated in windows (flushed when the
  /// window fills and on every heartbeat); otherwise each message is
  /// validated inline as a window of one. A publish from a quarantined
  /// peer (non-zero P4 invalid-message counter, see PeerScore) is always
  /// validated inline, so its bad proofs never share a window with honest
  /// ones; the counter decays on the heartbeat and the peer's publishes
  /// then join windows again. A kReject verdict scores the sender (P4),
  /// kIgnore drops the message without a penalty.
  void set_batch_validator(const std::string& topic, BatchValidator validator);

  /// Validates and dispatches any buffered publishes for all topics now.
  void flush_pending_validation();

  /// Hop-direction observability hook (cross-node propagation tracing):
  /// fires with kind "fwd" for every outbound publish frame (peer = the
  /// target: eager push, fanout, relay, or IWANT serve) and kind "dup"
  /// for every duplicate publish received (peer = the sender — the only
  /// layer that sees duplicates; they are dropped before validation).
  /// Near-free when unset: one branch per send.
  using TraceHook =
      std::function<void(const char* kind, NodeId peer, const PubSubMessage&)>;
  void set_trace_hook(TraceHook hook) { trace_hook_ = std::move(hook); }

  /// Publishes data under `topic`; returns the message id.
  MessageId publish(const std::string& topic, Bytes data);

  /// Targeted publish: sends the message ONLY to the given peers (no local
  /// delivery, no mesh flood). This is an attacker capability — the
  /// split-equivocation adversary uses it to show conflicting shares to
  /// disjoint mesh neighbors — and a testing tool; honest publishers use
  /// publish().
  MessageId publish_to(const std::string& topic, Bytes data,
                       std::span<const NodeId> peers);

  // net::NetNode. on_frame is the receive path; on_message copies the
  // bytes into a buffer of their own and takes it.
  void on_message(NodeId from, BytesView payload) override;
  void on_frame(NodeId from, const net::SharedBytes& frame) override;

  // Introspection for tests and benches.
  [[nodiscard]] NodeId node_id() const { return id_; }
  [[nodiscard]] bool subscribed(const std::string& topic) const {
    return handlers_.contains(topic);
  }
  /// What this router believes about a PEER's subscription — the state
  /// heartbeat (un)subscribe re-announcement converges; tests assert a
  /// late-relinked peer forgets topics we left while it was away.
  [[nodiscard]] bool peer_subscribed(NodeId peer,
                                     const std::string& topic) const {
    const auto it = peer_topics_.find(peer);
    return it != peer_topics_.end() && it->second.contains(topic);
  }
  [[nodiscard]] std::vector<NodeId> mesh_peers(const std::string& topic) const;
  [[nodiscard]] const RouterStats& stats() const { return stats_; }
  /// Publishes currently buffered awaiting batched validation, summed
  /// over topics (observability: in-node backlog gauge).
  [[nodiscard]] std::size_t pending_validation_total() const {
    std::size_t total = 0;
    for (const auto& [topic, pending] : pending_validation_) {
      total += pending.size();
    }
    return total;
  }
  /// Frames held for byte-equal duplicate checks (received first or
  /// originated within the last history_length heartbeats).
  [[nodiscard]] std::size_t held_frames() const {
    return recent_frames_.size();
  }
  [[nodiscard]] PeerScore& scores() { return scores_; }
  [[nodiscard]] const PeerScore& scores() const { return scores_; }

 private:
  void heartbeat();
  /// Seeded 64-bit hash of a frame's bytes, the recent_frames_ key.
  [[nodiscard]] std::uint64_t frame_key(BytesView bytes) const;
  /// True when `bytes` equal the held frame under `key` (a duplicate).
  [[nodiscard]] bool holds_frame(std::uint64_t key, BytesView bytes) const;
  /// Inserts `id` into the seen cache and, when it is fresh, holds its
  /// `frame` under `key`; false if the id was already there.
  bool mark_seen(const MessageId& id, std::uint64_t key,
                 const net::SharedBytes& frame);
  /// Marks an own message seen and cached; returns its id and its frame,
  /// encoded once for every peer it goes to.
  std::pair<MessageId, net::SharedBytes> originate(const PubSubMessage& msg);
  void handle_publish(NodeId from, const PublishView& view,
                      const net::SharedBytes& frame, std::uint64_t key);
  void flush_topic_validation(const std::string& topic);
  /// Applies one validation result: deliver + relay, or penalize/drop.
  void dispatch_validated(NodeId from, const PubSubMessage& msg,
                          const MessageId& id, const net::SharedBytes& frame,
                          ValidationResult result);
  void handle_ihave(NodeId from, const std::string& topic,
                    const std::vector<MessageId>& ids);
  void handle_iwant(NodeId from, const std::vector<MessageId>& ids);
  void handle_graft(NodeId from, const std::string& topic);
  void handle_prune(NodeId from, const std::string& topic);
  void send_frame(NodeId to, const Frame& frame);
  /// Sends the encoded publish `frame` of `msg`; fires the trace hook
  /// ("fwd").
  void send_publish(NodeId to, const net::SharedBytes& frame,
                    const PubSubMessage& msg);
  /// Forwards the received `frame` unchanged to the topic mesh.
  void relay(const PubSubMessage& msg, const net::SharedBytes& frame,
             NodeId except);
  std::vector<NodeId> topic_peers(const std::string& topic) const;

  net::Network& network_;
  GossipSubConfig config_;
  NodeId id_;
  Rng rng_;
  std::uint64_t frame_seed_;  ///< frame_key seed; not drawn from rng_
  std::uint64_t seqno_ = 0;
  std::uint64_t heartbeats_ = 0;
  net::Simulator::TaskId heartbeat_task_ = 0;  // 0 = not started

  std::unordered_map<std::string, DeliveryHandler> handlers_;
  // Per-topic validation hooks (set_validator adapts onto this shape).
  std::unordered_map<std::string, BatchValidator> validators_;
  // A publish buffered for batched validation: the message copied out of
  // its first receipt, the id hashed at arrival, and the received frame,
  // which relay forwards unchanged.
  struct BufferedPublish {
    NodeId from;
    TimeMs received_at;
    MessageId id;
    PubSubMessage msg;
    net::SharedBytes frame;
  };
  // Publishes awaiting batched validation, per topic (see
  // GossipSubConfig::validation_batch_max).
  std::unordered_map<std::string, std::vector<BufferedPublish>>
      pending_validation_;
  std::unordered_map<NodeId, std::set<std::string>> peer_topics_;
  /// Topics each neighbor has been sent a kSubscribe for — the heartbeat
  /// announces our subscriptions to links that appeared after subscribe()
  /// (late-joined peers, post-start topology growth).
  std::unordered_map<NodeId, std::set<std::string>> announced_;
  std::unordered_map<std::string, std::set<NodeId>> mesh_;

  // Dedup cache with insertion timestamps, and its entries in insertion
  // order. The clock never runs backwards, so that is time order and the
  // heartbeat expires the cache from the front, touching only what it
  // erases. (Map nodes never move, so 8-byte pointers name the entries.)
  using SeenCache = std::unordered_map<MessageId, TimeMs, MessageIdHash>;
  SeenCache seen_;
  std::deque<const SeenCache::value_type*> seen_order_;

  // Frames received first, or originated, keyed by frame_key. A publish
  // byte-equal to one is a duplicate before any parse or SHA-256. Each
  // entry leaves with the mcache window it arrived in (history_length
  // heartbeats), or with its seen_ entry if the TTL is shorter, so every
  // held frame's id is in seen_. A key already taken (a 64-bit collision)
  // is not held; its duplicates take the id path.
  struct HeldFrame {
    std::uint64_t key;
    TimeMs seen_at;
    std::uint64_t heartbeat;
  };
  std::unordered_map<std::uint64_t, net::SharedBytes> recent_frames_;
  std::deque<HeldFrame> recent_order_;

  // Message cache: windowed ids for gossip + encoded frames for IWANT.
  std::deque<std::vector<std::pair<std::string, MessageId>>> mcache_windows_;
  std::unordered_map<MessageId, net::SharedBytes, MessageIdHash> mcache_;

  PeerScore scores_;
  RouterStats stats_;
  TraceHook trace_hook_;
};

}  // namespace waku::gossipsub

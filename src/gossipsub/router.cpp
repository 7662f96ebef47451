#include "gossipsub/router.hpp"

#include <algorithm>
#include <cstring>

#include "common/expect.hpp"

namespace waku::gossipsub {

namespace {

std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// 64x64 -> 128-bit multiply, folded to 64 bits.
std::uint64_t fold_mul(std::uint64_t a, std::uint64_t b) {
  const unsigned __int128 p = static_cast<unsigned __int128>(a) * b;
  return static_cast<std::uint64_t>(p) ^ static_cast<std::uint64_t>(p >> 64);
}

}  // namespace

GossipSubRouter::GossipSubRouter(net::Network& network, GossipSubConfig config,
                                 PeerScoreConfig score_config,
                                 std::uint64_t seed)
    : network_(network),
      config_(config),
      id_(network.add_node(this)),
      rng_(seed ^ (0x9e3779b97f4a7c15ULL * (id_ + 1))),
      frame_seed_([&] {
        std::uint64_t state = seed ^ (0xd6e8feb86659fd93ULL * (id_ + 1));
        return splitmix64(state);
      }()),
      scores_(score_config) {
  mcache_windows_.emplace_back();
}

void GossipSubRouter::start() {
  heartbeat_task_ = network_.sim().schedule_every(
      config_.heartbeat_interval_ms, [this] { heartbeat(); });
}

void GossipSubRouter::stop() {
  if (heartbeat_task_ != 0) {
    network_.sim().cancel(heartbeat_task_);
    heartbeat_task_ = 0;
  }
}

void GossipSubRouter::subscribe(const std::string& topic,
                                DeliveryHandler handler) {
  WAKU_EXPECTS(handler != nullptr);
  handlers_[topic] = std::move(handler);
  Frame frame;
  frame.type = FrameType::kSubscribe;
  frame.topic = topic;
  for (const NodeId peer : network_.neighbors(id_)) {
    send_frame(peer, frame);
    announced_[peer].insert(topic);
  }
}

void GossipSubRouter::unsubscribe(const std::string& topic) {
  // Settle buffered publishes while the handler/validator are still
  // installed: their ids already sit in seen_, so silently discarding
  // them would make them undeliverable until the seen TTL expires.
  flush_topic_validation(topic);
  handlers_.erase(topic);
  validators_.erase(topic);
  pending_validation_.erase(topic);
  Frame frame;
  frame.type = FrameType::kUnsubscribe;
  frame.topic = topic;
  // Retract the announcement from every peer we can reach now; peers we
  // CANNOT reach keep their announced_ entry, which the heartbeat reads
  // as "still believes we subscribe" and retracts once the link is back
  // (a late (re)joined peer must not graft a mesh we already left).
  for (const NodeId peer : network_.neighbors(id_)) {
    send_frame(peer, frame);
    if (const auto it = announced_.find(peer); it != announced_.end()) {
      it->second.erase(topic);
    }
  }
  // Leave the mesh politely.
  if (const auto it = mesh_.find(topic); it != mesh_.end()) {
    Frame prune;
    prune.type = FrameType::kPrune;
    prune.topic = topic;
    for (const NodeId peer : it->second) send_frame(peer, prune);
    mesh_.erase(it);
  }
}

void GossipSubRouter::set_validator(const std::string& topic,
                                    Validator validator) {
  // A single-message validator is a loop over the window.
  set_batch_validator(topic, [validator = std::move(validator)](
                                 std::span<const IncomingMessage> batch) {
    std::vector<ValidationResult> results;
    results.reserve(batch.size());
    for (const IncomingMessage& incoming : batch) {
      results.push_back(validator(incoming.from, incoming.msg));
    }
    return results;
  });
}

void GossipSubRouter::set_batch_validator(const std::string& topic,
                                          BatchValidator validator) {
  validators_[topic] = std::move(validator);
}

std::vector<NodeId> GossipSubRouter::topic_peers(
    const std::string& topic) const {
  std::vector<NodeId> out;
  for (const NodeId peer : network_.neighbors(id_)) {
    const auto it = peer_topics_.find(peer);
    if (it != peer_topics_.end() && it->second.contains(topic)) {
      out.push_back(peer);
    }
  }
  return out;
}

std::uint64_t GossipSubRouter::frame_key(BytesView bytes) const {
  // Multiply-fold over 16-byte blocks (the wyhash construction). Not a
  // commitment: holds_frame compares the bytes before any decision.
  constexpr std::uint64_t k0 = 0xa0761d6478bd642fULL;
  constexpr std::uint64_t k1 = 0xe7037ed1a0b428dbULL;
  std::uint64_t h = frame_seed_ ^ bytes.size();
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 16; p += 16, n -= 16) {
    h = fold_mul(load_u64(p) ^ k0 ^ h, load_u64(p + 8) ^ k1);
  }
  std::uint8_t tail[16] = {};
  if (n > 0) std::memcpy(tail, p, n);
  h = fold_mul(load_u64(tail) ^ k0 ^ h, load_u64(tail + 8) ^ k1);
  return fold_mul(h ^ k0, bytes.size() ^ k1);
}

bool GossipSubRouter::holds_frame(std::uint64_t key, BytesView bytes) const {
  const auto it = recent_frames_.find(key);
  if (it == recent_frames_.end()) return false;
  const Bytes& held = *it->second;
  return held.size() == bytes.size() &&
         std::memcmp(held.data(), bytes.data(), bytes.size()) == 0;
}

bool GossipSubRouter::mark_seen(const MessageId& id, std::uint64_t key,
                                const net::SharedBytes& frame) {
  const TimeMs now = network_.sim().now();
  const auto [it, fresh] = seen_.try_emplace(id, now);
  if (!fresh) return false;
  seen_order_.push_back(&*it);
  if (recent_frames_.try_emplace(key, frame).second) {
    recent_order_.push_back(HeldFrame{key, now, heartbeats_});
  }
  return true;
}

std::pair<MessageId, net::SharedBytes> GossipSubRouter::originate(
    const PubSubMessage& msg) {
  const MessageId id = msg.id();
  auto frame = std::make_shared<const Bytes>(encode_publish(msg));
  mark_seen(id, frame_key(*frame), frame);
  mcache_.emplace(id, frame);
  mcache_windows_.front().emplace_back(msg.topic, id);
  return {id, std::move(frame)};
}

MessageId GossipSubRouter::publish(const std::string& topic, Bytes data) {
  const PubSubMessage msg{topic, std::move(data), id_, seqno_++};
  const auto [id, frame] = originate(msg);

  // Deliver locally.
  if (const auto it = handlers_.find(topic); it != handlers_.end()) {
    ++stats_.delivered;
    it->second(msg);
  }

  // Flood publish: every subscribed neighbor above the publish threshold.
  for (const NodeId peer : topic_peers(topic)) {
    if (scores_.below_publish(peer)) continue;
    send_publish(peer, frame, msg);
  }
  return id;
}

MessageId GossipSubRouter::publish_to(const std::string& topic, Bytes data,
                                      std::span<const NodeId> peers) {
  // Marked seen/cached like any own publish so echoes deduplicate, but
  // deliberately NOT delivered locally and NOT flooded: the caller chose
  // exactly who sees it.
  const PubSubMessage msg{topic, std::move(data), id_, seqno_++};
  const auto [id, frame] = originate(msg);
  for (const NodeId peer : peers) send_publish(peer, frame, msg);
  return id;
}

void GossipSubRouter::send_frame(NodeId to, const Frame& frame) {
  network_.send(id_, to, encode_frame(frame));
}

void GossipSubRouter::send_publish(NodeId to, const net::SharedBytes& frame,
                                   const PubSubMessage& msg) {
  network_.send(id_, to, frame);
  if (trace_hook_) trace_hook_("fwd", to, msg);
}

void GossipSubRouter::on_message(NodeId from, BytesView payload) {
  on_frame(from,
           std::make_shared<const Bytes>(payload.begin(), payload.end()));
}

void GossipSubRouter::on_frame(NodeId from, const net::SharedBytes& bytes) {
  // A publish byte-equal to a held frame is a duplicate: its id is in
  // seen_ already, so it costs one hash, one probe and one compare, and
  // no parse or SHA-256. Graylisted senders skip the probe; below, their
  // frames are parsed (a malformed one is penalized) and dropped.
  const bool graylisted = scores_.graylisted(from);
  const bool publish_frame = is_publish(*bytes);
  std::uint64_t key = 0;
  if (publish_frame && !graylisted) {
    key = frame_key(*bytes);
    if (holds_frame(key, *bytes)) {
      ++stats_.duplicates;
      if (trace_hook_) {
        trace_hook_("dup", from, parse_publish(*bytes).message());
      }
      return;
    }
  }

  // Any other publish is parsed in place (`frame` keeps its default
  // kPublish type), so graylisted senders and late duplicates cost no
  // copy.
  std::optional<PublishView> publish;
  Frame frame;
  try {
    if (publish_frame) {
      publish = parse_publish(*bytes);
    } else {
      frame = decode_frame(*bytes);
    }
  } catch (const std::exception&) {
    scores_.record_behaviour_penalty(from);
    return;
  }

  if (graylisted) {
    // Graylisted peers are ignored wholesale (libp2p behaviour).
    if (frame.type == FrameType::kGraft) {
      scores_.record_behaviour_penalty(from);
    }
    return;
  }

  switch (frame.type) {
    case FrameType::kPublish:
      handle_publish(from, *publish, bytes, key);
      break;
    case FrameType::kIHave:
      handle_ihave(from, frame.topic, frame.ids);
      break;
    case FrameType::kIWant:
      handle_iwant(from, frame.ids);
      break;
    case FrameType::kGraft:
      handle_graft(from, frame.topic);
      break;
    case FrameType::kPrune:
      handle_prune(from, frame.topic);
      break;
    case FrameType::kSubscribe:
      peer_topics_[from].insert(frame.topic);
      break;
    case FrameType::kUnsubscribe:
      peer_topics_[from].erase(frame.topic);
      if (const auto it = mesh_.find(frame.topic); it != mesh_.end()) {
        it->second.erase(from);
      }
      break;
  }
}

void GossipSubRouter::handle_publish(NodeId from, const PublishView& view,
                                     const net::SharedBytes& frame,
                                     std::uint64_t key) {
  const MessageId id = view.id();
  if (!mark_seen(id, key, frame)) {
    // A duplicate whose frame is no longer held (or was never held).
    ++stats_.duplicates;
    if (trace_hook_) trace_hook_("dup", from, view.message());
    return;
  }
  // The first receipt is the only one copied out of the frame.
  PubSubMessage msg = view.message();

  if (!handlers_.contains(msg.topic)) {
    // The sender believes we subscribe (mesh relay or fanout target),
    // so our kUnsubscribe must have been lost in transit — retract
    // again. Idempotent, bounded by the sender's own rate, and each
    // delivery is a fresh trial, so the stale belief converges away
    // even on lossy links (where a single send-time retraction cannot).
    Frame retract;
    retract.type = FrameType::kUnsubscribe;
    retract.topic = msg.topic;
    send_frame(from, retract);
  }

  // Validation gate — spam dies here, at the first hop (paper §IV). With
  // batching enabled the message waits for a validation window; buffered
  // messages already count as seen, so echoes keep deduplicating.
  const auto vit = validators_.find(msg.topic);
  if (vit == validators_.end()) {
    dispatch_validated(from, msg, id, frame, ValidationResult::kAccept);
    return;
  }
  const TimeMs now = network_.local_time(id_);
  // Quarantine: a sender with a live P4 (invalid-message) count is
  // validated at once, as a window of one, so its next bad proof cannot
  // send an honest window to per-proof verification. The count decays on
  // the heartbeat, so the quarantine ends by itself.
  if (config_.validation_batch_max <= 1 ||
      scores_.invalid_messages(from) > 0) {
    const IncomingMessage one{from, now, msg};
    const std::vector<ValidationResult> results =
        vit->second(std::span<const IncomingMessage>(&one, 1));
    dispatch_validated(
        from, msg, id, frame,
        results.empty() ? ValidationResult::kIgnore : results.front());
    return;
  }
  auto& pending = pending_validation_[msg.topic];
  pending.push_back(BufferedPublish{from, now, id, std::move(msg), frame});
  if (pending.size() >= config_.validation_batch_max) {
    flush_topic_validation(std::string(view.topic));
  }
}

void GossipSubRouter::dispatch_validated(NodeId from, const PubSubMessage& msg,
                                         const MessageId& id,
                                         const net::SharedBytes& frame,
                                         ValidationResult result) {
  if (result == ValidationResult::kReject) {
    ++stats_.rejected;
    scores_.record_invalid_message(from);
    return;
  }
  if (result == ValidationResult::kIgnore) {
    ++stats_.ignored;
    return;
  }

  scores_.record_first_delivery(from);
  mcache_.emplace(id, frame);
  mcache_windows_.front().emplace_back(msg.topic, id);

  if (const auto hit = handlers_.find(msg.topic); hit != handlers_.end()) {
    ++stats_.delivered;
    hit->second(msg);
  }
  relay(msg, frame, from);
}

void GossipSubRouter::flush_topic_validation(const std::string& topic) {
  const auto pit = pending_validation_.find(topic);
  if (pit == pending_validation_.end() || pit->second.empty()) return;
  std::vector<BufferedPublish> batch = std::move(pit->second);
  pit->second = {};

  ++stats_.validation_windows_flushed;
  const auto vit = validators_.find(topic);
  if (vit == validators_.end()) {
    // Validator removed while messages were buffered: treat as unvalidated.
    for (const BufferedPublish& buffered : batch) {
      dispatch_validated(buffered.from, buffered.msg, buffered.id,
                         buffered.frame, ValidationResult::kAccept);
    }
    return;
  }
  std::vector<IncomingMessage> views;
  views.reserve(batch.size());
  for (const BufferedPublish& buffered : batch) {
    views.push_back(
        IncomingMessage{buffered.from, buffered.received_at, buffered.msg});
  }
  const std::vector<ValidationResult> results = vit->second(views);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    dispatch_validated(batch[i].from, batch[i].msg, batch[i].id,
                       batch[i].frame,
                       i < results.size() ? results[i]
                                          : ValidationResult::kIgnore);
  }
}

void GossipSubRouter::flush_pending_validation() {
  // Snapshot the topic list: dispatching can reach user code that mutates
  // the pending map (e.g. a handler that publishes).
  std::vector<std::string> topics;
  topics.reserve(pending_validation_.size());
  for (const auto& [topic, pending] : pending_validation_) {
    if (!pending.empty()) topics.push_back(topic);
  }
  for (const std::string& topic : topics) flush_topic_validation(topic);
}

void GossipSubRouter::relay(const PubSubMessage& msg,
                            const net::SharedBytes& frame, NodeId except) {
  const auto it = mesh_.find(msg.topic);
  if (it == mesh_.end()) return;
  for (const NodeId peer : it->second) {
    if (peer == except || peer == msg.origin) continue;
    send_publish(peer, frame, msg);
    ++stats_.forwarded;
  }
}

void GossipSubRouter::handle_ihave(NodeId from, const std::string& topic,
                                   const std::vector<MessageId>& ids) {
  if (scores_.below_gossip(from)) return;
  if (!handlers_.contains(topic)) return;
  std::vector<MessageId> wanted;
  for (const MessageId& id : ids) {
    if (!seen_.contains(id)) wanted.push_back(id);
  }
  if (wanted.empty()) return;
  Frame frame;
  frame.type = FrameType::kIWant;
  frame.topic = topic;
  frame.ids = std::move(wanted);
  send_frame(from, frame);
}

void GossipSubRouter::handle_iwant(NodeId from,
                                   const std::vector<MessageId>& ids) {
  if (scores_.below_gossip(from)) return;
  for (const MessageId& id : ids) {
    const auto it = mcache_.find(id);
    if (it == mcache_.end()) continue;
    network_.send(id_, from, it->second);
    if (trace_hook_) {
      trace_hook_("fwd", from, parse_publish(*it->second).message());
    }
    ++stats_.iwant_served;
  }
}

void GossipSubRouter::handle_graft(NodeId from, const std::string& topic) {
  if (!handlers_.contains(topic) ||
      mesh_[topic].size() >= config_.mesh_n_high) {
    Frame prune;
    prune.type = FrameType::kPrune;
    prune.topic = topic;
    send_frame(from, prune);
    if (!handlers_.contains(topic)) {
      // A graft proves the peer believes we subscribe; if that belief
      // were current we would be subscribed. Retract (again) — grafts
      // retry every heartbeat while the peer's mesh is under its low
      // watermark, so this converges even when earlier retractions were
      // lost on a lossy link.
      Frame retract;
      retract.type = FrameType::kUnsubscribe;
      retract.topic = topic;
      send_frame(from, retract);
    }
    return;
  }
  mesh_[topic].insert(from);
}

void GossipSubRouter::handle_prune(NodeId from, const std::string& topic) {
  if (const auto it = mesh_.find(topic); it != mesh_.end()) {
    it->second.erase(from);
  }
}

std::vector<NodeId> GossipSubRouter::mesh_peers(
    const std::string& topic) const {
  const auto it = mesh_.find(topic);
  if (it == mesh_.end()) return {};
  return std::vector<NodeId>(it->second.begin(), it->second.end());
}

void GossipSubRouter::heartbeat() {
  // Validation windows never outlive a heartbeat (bounded latency).
  flush_pending_validation();

  // Subscription upkeep: announce our topics to neighbors that have not
  // heard them yet, and retract topics a neighbor still believes we
  // subscribe but we no longer do. subscribe()/unsubscribe() only reach
  // the links that existed at that moment; topology grown afterwards
  // (sharded deployments stitching per-shard rings, restarts,
  // operator-added links, peers that were partitioned during a reshard's
  // drop-old) converges here, within one heartbeat of the link
  // appearing. Without the retraction a late-joined peer keeps grafting
  // the dead topic's mesh and fanout-publishing into a void.
  for (const NodeId peer : network_.neighbors(id_)) {
    auto& told = announced_[peer];
    for (const auto& [topic, handler] : handlers_) {
      if (told.contains(topic)) continue;
      Frame frame;
      frame.type = FrameType::kSubscribe;
      frame.topic = topic;
      send_frame(peer, frame);
      told.insert(topic);
    }
    for (auto it = told.begin(); it != told.end();) {
      if (handlers_.contains(*it)) {
        ++it;
        continue;
      }
      Frame frame;
      frame.type = FrameType::kUnsubscribe;
      frame.topic = *it;
      send_frame(peer, frame);
      it = told.erase(it);
    }
  }

  // Score upkeep.
  for (const auto& [topic, peers] : mesh_) {
    for (const NodeId peer : peers) scores_.record_mesh_tick(peer);
  }
  scores_.decay_all();

  // Mesh maintenance per subscribed topic.
  for (const auto& [topic, handler] : handlers_) {
    auto& mesh = mesh_[topic];

    // Drop graylisted or disconnected peers.
    for (auto it = mesh.begin(); it != mesh.end();) {
      if (scores_.graylisted(*it) || !network_.connected(id_, *it)) {
        it = mesh.erase(it);
      } else {
        ++it;
      }
    }

    if (mesh.size() < config_.mesh_n_low) {
      auto candidates = topic_peers(topic);
      std::erase_if(candidates, [&](NodeId p) {
        return mesh.contains(p) || scores_.graylisted(p);
      });
      std::shuffle(candidates.begin(), candidates.end(), rng_);
      while (mesh.size() < config_.mesh_n && !candidates.empty()) {
        const NodeId peer = candidates.back();
        candidates.pop_back();
        mesh.insert(peer);
        Frame graft;
        graft.type = FrameType::kGraft;
        graft.topic = topic;
        send_frame(peer, graft);
      }
    } else if (mesh.size() > config_.mesh_n_high) {
      std::vector<NodeId> members(mesh.begin(), mesh.end());
      std::shuffle(members.begin(), members.end(), rng_);
      while (mesh.size() > config_.mesh_n && !members.empty()) {
        const NodeId peer = members.back();
        members.pop_back();
        mesh.erase(peer);
        Frame prune;
        prune.type = FrameType::kPrune;
        prune.topic = topic;
        send_frame(peer, prune);
      }
    }

    // Lazy gossip: IHAVE recent ids to non-mesh topic peers.
    std::vector<MessageId> recent;
    std::size_t windows = 0;
    for (const auto& window : mcache_windows_) {
      if (windows++ >= config_.history_gossip) break;
      for (const auto& [wtopic, id] : window) {
        if (wtopic == topic) recent.push_back(id);
      }
    }
    if (!recent.empty()) {
      auto gossip_to = topic_peers(topic);
      std::erase_if(gossip_to, [&](NodeId p) {
        return mesh.contains(p) || scores_.below_gossip(p);
      });
      std::shuffle(gossip_to.begin(), gossip_to.end(), rng_);
      if (gossip_to.size() > config_.gossip_degree) {
        gossip_to.resize(config_.gossip_degree);
      }
      for (const NodeId peer : gossip_to) {
        Frame ihave;
        ihave.type = FrameType::kIHave;
        ihave.topic = topic;
        ihave.ids = recent;
        send_frame(peer, ihave);
        ++stats_.ihave_sent;
      }
    }
  }

  // Shift the message-cache window and expire old entries.
  mcache_windows_.emplace_front();
  while (mcache_windows_.size() > config_.history_length) {
    for (const auto& [topic, id] : mcache_windows_.back()) {
      mcache_.erase(id);
    }
    mcache_windows_.pop_back();
  }

  // Held frames leave with their mcache window, or with their seen_ entry
  // (the same TTL rule as below) if that goes first; both are in arrival
  // order.
  ++heartbeats_;
  const TimeMs now = network_.sim().now();
  while (!recent_order_.empty() &&
         (recent_order_.front().heartbeat + config_.history_length <=
              heartbeats_ ||
          now - recent_order_.front().seen_at > config_.seen_ttl_ms)) {
    recent_frames_.erase(recent_order_.front().key);
    recent_order_.pop_front();
  }

  // TTL-prune the dedup cache, oldest first.
  while (!seen_order_.empty() &&
         now - seen_order_.front()->second > config_.seen_ttl_ms) {
    const MessageId id = seen_order_.front()->first;
    seen_order_.pop_front();
    seen_.erase(id);
  }

  // Drop announcement bookkeeping for peers that left the network for
  // good (ids are never reused) — unsubscribe() deliberately retains
  // entries for unreachable peers, which must not become a leak across
  // long-lived churn.
  for (auto it = announced_.begin(); it != announced_.end();) {
    if (!network_.node_alive(it->first)) {
      it = announced_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace waku::gossipsub

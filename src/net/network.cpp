#include "net/network.hpp"

#include <algorithm>

#include "common/expect.hpp"

namespace waku::net {

Network::Network(Simulator& sim, LinkConfig link, std::uint64_t seed)
    : sim_(sim), link_(link), rng_(seed) {}

NodeId Network::add_node(NetNode* endpoint) {
  WAKU_EXPECTS(endpoint != nullptr);
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(endpoint);
  adjacency_.emplace_back();
  skew_ms_.push_back(0);
  stats_.emplace_back();
  return id;
}

void Network::remove_node(NodeId n) {
  WAKU_EXPECTS(n < nodes_.size());
  const std::vector<NodeId> peers = adjacency_[n];  // copy: disconnect mutates
  for (const NodeId peer : peers) disconnect(n, peer);
  nodes_[n] = nullptr;
}

void Network::connect(NodeId a, NodeId b) {
  WAKU_EXPECTS(a < nodes_.size() && b < nodes_.size() && a != b);
  if (connected(a, b)) return;
  adjacency_[a].push_back(b);
  adjacency_[b].push_back(a);
}

void Network::disconnect(NodeId a, NodeId b) {
  auto erase_from = [](std::vector<NodeId>& v, NodeId x) {
    v.erase(std::remove(v.begin(), v.end(), x), v.end());
  };
  WAKU_EXPECTS(a < nodes_.size() && b < nodes_.size());
  erase_from(adjacency_[a], b);
  erase_from(adjacency_[b], a);
}

bool Network::connected(NodeId a, NodeId b) const {
  const auto& adj = adjacency_[a];
  return std::find(adj.begin(), adj.end(), b) != adj.end();
}

const std::vector<NodeId>& Network::neighbors(NodeId n) const {
  WAKU_EXPECTS(n < nodes_.size());
  return adjacency_[n];
}

void Network::connect_random(std::size_t degree, Rng& rng) {
  const std::size_t n = nodes_.size();
  WAKU_EXPECTS(n >= 2 && degree < n);
  // Ring guarantees connectivity; random chords give small diameter.
  for (NodeId i = 0; i < n; ++i) {
    connect(i, static_cast<NodeId>((i + 1) % n));
  }
  for (NodeId i = 0; i < n; ++i) {
    while (adjacency_[i].size() < degree) {
      const NodeId j = static_cast<NodeId>(rng.next_below(n));
      if (j != i && !connected(i, j)) connect(i, j);
    }
  }
}

void Network::set_link_override(NodeId a, NodeId b, LinkConfig link) {
  WAKU_EXPECTS(a < nodes_.size() && b < nodes_.size());
  link_overrides_[link_key(a, b)] = link;
}

void Network::clear_link_override(NodeId a, NodeId b) {
  link_overrides_.erase(link_key(a, b));
}

const LinkConfig& Network::link_config(NodeId a, NodeId b) const {
  const auto it = link_overrides_.find(link_key(a, b));
  return it != link_overrides_.end() ? it->second : link_;
}

void Network::send(NodeId from, NodeId to, SharedBytes payload) {
  WAKU_EXPECTS(from < nodes_.size() && to < nodes_.size() &&
               payload != nullptr);
  if (!connected(from, to)) return;  // stale mesh entry; drop silently

  stats_[from].messages_sent += 1;
  stats_[from].bytes_sent += payload->size();

  const LinkConfig& link = link_config(from, to);
  if (link.loss_rate > 0 && rng_.chance(link.loss_rate)) return;

  const TimeMs jitter =
      link.jitter_ms == 0 ? 0 : rng_.next_below(link.jitter_ms + 1);
  const TimeMs delay = link.base_latency_ms + jitter;
  sim_.schedule_after(delay, [this, from, to,
                              payload = std::move(payload)]() {
    if (nodes_[to] == nullptr) return;  // receiver died while in flight
    stats_[to].messages_received += 1;
    stats_[to].bytes_received += payload->size();
    nodes_[to]->on_frame(from, payload);
  });
}

void Network::set_clock_skew(NodeId n, std::int64_t skew_ms) {
  WAKU_EXPECTS(n < nodes_.size());
  skew_ms_[n] = skew_ms;
}

TimeMs Network::local_time(NodeId n) const {
  WAKU_EXPECTS(n < nodes_.size());
  const std::int64_t t =
      static_cast<std::int64_t>(sim_.now()) + skew_ms_[n];
  return t < 0 ? 0 : static_cast<TimeMs>(t);
}

const TrafficStats& Network::stats(NodeId n) const {
  WAKU_EXPECTS(n < nodes_.size());
  return stats_[n];
}

TrafficStats Network::total_stats() const {
  TrafficStats total;
  for (const TrafficStats& s : stats_) {
    total.messages_sent += s.messages_sent;
    total.messages_received += s.messages_received;
    total.bytes_sent += s.bytes_sent;
    total.bytes_received += s.bytes_received;
  }
  return total;
}

void Network::reset_stats() {
  std::fill(stats_.begin(), stats_.end(), TrafficStats{});
}

}  // namespace waku::net

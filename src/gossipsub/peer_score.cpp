#include "gossipsub/peer_score.hpp"

#include <algorithm>

namespace waku::gossipsub {

void PeerScore::record_mesh_tick(NodeId peer) {
  Counters& c = peers_[peer];
  c.time_in_mesh =
      std::min(c.time_in_mesh + 1.0,
               config_.time_in_mesh_cap / std::max(config_.time_in_mesh_weight,
                                                   1e-9));
}

void PeerScore::record_first_delivery(NodeId peer) {
  Counters& c = peers_[peer];
  c.first_deliveries = std::min(
      c.first_deliveries + 1.0,
      config_.first_message_cap / std::max(config_.first_message_weight, 1e-9));
}

void PeerScore::record_invalid_message(NodeId peer) {
  peers_[peer].invalid_messages += 1.0;
}

void PeerScore::record_behaviour_penalty(NodeId peer) {
  peers_[peer].behaviour_penalty += 1.0;
}

void PeerScore::decay_all() {
  for (auto& [peer, c] : peers_) {
    c.first_deliveries *= config_.decay;
    c.invalid_messages *= config_.decay;
    c.behaviour_penalty *= config_.decay;
    // Counters below noise floor snap to zero (libp2p decayToZero).
    if (c.first_deliveries < 0.01) c.first_deliveries = 0;
    if (c.invalid_messages < 0.01) c.invalid_messages = 0;
    if (c.behaviour_penalty < 0.01) c.behaviour_penalty = 0;
  }
}

std::size_t PeerScore::graylist_count() const {
  std::size_t n = 0;
  for (const auto& [peer, c] : peers_) {
    if (score(peer) < config_.graylist_threshold) ++n;
  }
  return n;
}

double PeerScore::invalid_messages(NodeId peer) const {
  const auto it = peers_.find(peer);
  return it == peers_.end() ? 0.0 : it->second.invalid_messages;
}

double PeerScore::score(NodeId peer) const {
  const auto it = peers_.find(peer);
  if (it == peers_.end()) return 0.0;
  const Counters& c = it->second;
  double s = 0.0;
  s += config_.time_in_mesh_weight * c.time_in_mesh;
  s += config_.first_message_weight * c.first_deliveries;
  s += config_.invalid_message_weight * c.invalid_messages * c.invalid_messages;
  s += config_.behaviour_penalty_weight * c.behaviour_penalty *
       c.behaviour_penalty;
  return s;
}

}  // namespace waku::gossipsub

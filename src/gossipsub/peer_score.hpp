// libp2p GossipSub v1.1 peer scoring (paper [2]) — the reputation-based
// spam defence the paper contrasts with RLN. Simplified to the components
// that matter for spam: time-in-mesh (P1), first-message deliveries (P2),
// invalid messages (P4), and the behavioural penalty (P7), with the three
// standard action thresholds.
//
// The paper's critique — "prone to censorship and subject to inexpensive
// attacks where the spammer deploys millions of bots" — is reproduced in
// E7: each fresh Sybil identity starts with a neutral score and gets a free
// window of spam before crossing the graylist threshold.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "gossipsub/types.hpp"

namespace waku::gossipsub {

struct PeerScoreConfig {
  double time_in_mesh_weight = 0.01;   ///< P1, per heartbeat in mesh
  double time_in_mesh_cap = 50.0;
  double first_message_weight = 1.0;   ///< P2
  double first_message_cap = 50.0;
  double invalid_message_weight = -10.0;  ///< P4 (counter is squared)
  double behaviour_penalty_weight = -5.0;  ///< P7 (counter is squared)
  double decay = 0.9;  ///< applied to P2/P4/P7 counters each heartbeat

  // Action thresholds (negative numbers; libp2p convention).
  double gossip_threshold = -10.0;   ///< below: no gossip exchange
  double publish_threshold = -50.0;  ///< below: no self-published flood
  double graylist_threshold = -80.0; ///< below: ignore peer entirely
};

class PeerScore {
 public:
  explicit PeerScore(PeerScoreConfig config = {}) : config_(config) {}

  /// P1: called each heartbeat for peers currently in a mesh.
  void record_mesh_tick(NodeId peer);

  /// P2: peer was the first to deliver a valid message.
  void record_first_delivery(NodeId peer);

  /// P4: peer delivered a message that failed validation.
  void record_invalid_message(NodeId peer);

  /// P7: protocol misbehaviour (e.g. GRAFT while graylisted).
  void record_behaviour_penalty(NodeId peer);

  /// Applies counter decay; call once per heartbeat.
  void decay_all();

  [[nodiscard]] double score(NodeId peer) const;

  /// The P4 counter: invalid messages from `peer`, decayed each
  /// heartbeat and snapped to 0 below the noise floor. Non-zero means
  /// the router quarantines the peer's publishes out of batch windows.
  [[nodiscard]] double invalid_messages(NodeId peer) const;

  [[nodiscard]] bool below_gossip(NodeId peer) const {
    return score(peer) < config_.gossip_threshold;
  }
  [[nodiscard]] bool below_publish(NodeId peer) const {
    return score(peer) < config_.publish_threshold;
  }
  [[nodiscard]] bool graylisted(NodeId peer) const {
    return score(peer) < config_.graylist_threshold;
  }

  /// Peers currently below the graylist threshold — the router-level
  /// containment signal the adversarial scenario metrics sample per epoch.
  [[nodiscard]] std::size_t graylist_count() const;

  [[nodiscard]] const PeerScoreConfig& config() const { return config_; }

 private:
  struct Counters {
    double time_in_mesh = 0;
    double first_deliveries = 0;
    double invalid_messages = 0;
    double behaviour_penalty = 0;
  };

  PeerScoreConfig config_;
  std::unordered_map<NodeId, Counters> peers_;
};

}  // namespace waku::gossipsub

// Simulated p2p network: nodes joined by bidirectional links with
// configurable latency, jitter, and loss; per-node clock skew (the
// "ClockAsynchrony" of paper §III-F); and traffic accounting used by the
// spam-containment experiments (E7/E8).
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "net/simulator.hpp"

namespace waku::net {

using NodeId = std::uint32_t;

/// An immutable frame buffer, shared by every send of one frame and by
/// each of its in-flight deliveries (a fan-out is encoded once).
using SharedBytes = std::shared_ptr<const Bytes>;

/// Interface implemented by protocol endpoints (gossipsub routers, etc).
class NetNode {
 public:
  virtual ~NetNode() = default;
  virtual void on_message(NodeId from, BytesView payload) = 0;
  /// Network's delivery entry point. A node that forwards frames unchanged
  /// (the gossipsub relay) overrides it to keep the buffer; the rest read
  /// the bytes through on_message.
  virtual void on_frame(NodeId from, const SharedBytes& frame) {
    on_message(from, *frame);
  }
};

struct LinkConfig {
  TimeMs base_latency_ms = 40;  ///< one-way propagation delay
  TimeMs jitter_ms = 20;        ///< uniform extra delay in [0, jitter]
  double loss_rate = 0.0;       ///< probability a message is dropped
};

/// Per-node traffic counters.
struct TrafficStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
};

class Network {
 public:
  Network(Simulator& sim, LinkConfig link, std::uint64_t seed = 7);

  /// Registers a node; the caller retains ownership of `endpoint`.
  NodeId add_node(NetNode* endpoint);

  /// Detaches a node (crash/shutdown): severs all its links and forgets
  /// the endpoint pointer. In-flight deliveries to it are dropped; the id
  /// is never reused (a restarted peer joins with a fresh id, exactly as a
  /// rebooted libp2p host gets a fresh connection set).
  void remove_node(NodeId n);
  [[nodiscard]] bool node_alive(NodeId n) const {
    return n < nodes_.size() && nodes_[n] != nullptr;
  }

  /// Creates (idempotently) a bidirectional link.
  void connect(NodeId a, NodeId b);
  void disconnect(NodeId a, NodeId b);
  [[nodiscard]] bool connected(NodeId a, NodeId b) const;
  [[nodiscard]] const std::vector<NodeId>& neighbors(NodeId n) const;

  /// Wires every node into a random graph of the given target degree
  /// (plus a ring for connectivity).
  void connect_random(std::size_t degree, Rng& rng);

  /// Sends `payload` from `from` to its neighbor `to`; delivery is
  /// scheduled after link latency (or dropped per loss_rate).
  void send(NodeId from, NodeId to, SharedBytes payload);
  void send(NodeId from, NodeId to, Bytes payload) {
    send(from, to, std::make_shared<const Bytes>(std::move(payload)));
  }

  // -- Per-link overrides (adversarial topology shaping) -------------------

  /// Overrides latency/jitter/loss for the (a, b) link in both directions
  /// (the default LinkConfig keeps applying to every other link). The
  /// eclipse scenarios use this to park a victim behind lossy links
  /// without disconnecting it — a disconnect is observable, degraded links
  /// are not.
  void set_link_override(NodeId a, NodeId b, LinkConfig link);
  void clear_link_override(NodeId a, NodeId b);
  /// Effective config for the (a, b) link (override or the default).
  [[nodiscard]] const LinkConfig& link_config(NodeId a, NodeId b) const;

  // -- Clock skew (ClockAsynchrony, §III-F) --------------------------------

  void set_clock_skew(NodeId n, std::int64_t skew_ms);
  /// Node-local wall clock: simulated time + skew (never negative).
  [[nodiscard]] TimeMs local_time(NodeId n) const;

  // -- Accounting -----------------------------------------------------------

  [[nodiscard]] const TrafficStats& stats(NodeId n) const;
  [[nodiscard]] TrafficStats total_stats() const;
  void reset_stats();

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] Simulator& sim() { return sim_; }

 private:
  /// Canonical (min, max) key for an undirected link.
  [[nodiscard]] static std::uint64_t link_key(NodeId a, NodeId b) {
    const NodeId lo = a < b ? a : b;
    const NodeId hi = a < b ? b : a;
    return (static_cast<std::uint64_t>(lo) << 32) | hi;
  }

  Simulator& sim_;
  LinkConfig link_;
  Rng rng_;
  std::vector<NetNode*> nodes_;
  std::vector<std::vector<NodeId>> adjacency_;
  std::vector<std::int64_t> skew_ms_;
  std::vector<TrafficStats> stats_;
  std::unordered_map<std::uint64_t, LinkConfig> link_overrides_;
};

}  // namespace waku::net

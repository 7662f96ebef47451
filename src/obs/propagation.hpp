// Cross-node propagation assembly: merges per-node TraceCollector rings
// into one causal tree per sampled message.
//
// Every node makes the same 1-in-N sampling decision for a message (the
// trace key is content-derived — see waku::trace_key), so the per-node
// rings collected from a fleet partition by key into complete cross-node
// views with no wire-format change (the Dapper model). The assembler
// ingests each node's completed traces tagged with the node id, rebuilds
// the hop graph from the hop-direction details the router/node layers
// stamp on events ("rx ... from=P", "fwd ... to=P", "dup ... from=P"),
// and rolls the trees up into network-level health: propagation
// p50/p95/p99 (publish -> last honest delivery), hop-count distribution,
// mesh redundancy (duplicate rx / useful rx), and reachability
// (delivered / subscribed). Virtual-clock timestamps are comparable
// across simulated nodes, so per-hop latencies need no clock alignment.
//
// Ingestion is idempotent: the harness re-collects rings every epoch,
// and re-offering the same (node, key) trace keeps the version with the
// most events. Output iterates sorted containers only — a deterministic
// run assembles byte-identical JSON.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/recorder.hpp"
#include "obs/trace.hpp"

namespace waku::obs {

/// Sentinel for "no peer recorded" (hop provenance absent).
inline constexpr std::uint64_t kNoPeer = ~std::uint64_t{0};

/// One node's view of one traced message, folded from its trace events.
struct PropagationNodeView {
  std::uint64_t node = kNoPeer;
  /// Hop distance from the origin over first-rx provenance edges;
  /// -1 when unresolvable (missing origin or broken parent chain).
  int depth = -1;
  std::uint64_t first_rx_ns = 0;
  std::uint64_t from = kNoPeer;  ///< first-rx provenance peer
  std::string verdict;           ///< last validation verdict ("" = none seen)
  bool delivered = false;
  std::uint64_t deliver_ns = 0;
  std::size_t forwards = 0;      ///< outbound "fwd" hops from this node
  std::size_t duplicate_rx = 0;  ///< "dup" receipts at this node
  bool truncated = false;        ///< this node's span closed as "truncated"
  std::uint64_t span_start_ns = 0;
  std::uint64_t span_end_ns = 0;
};

/// The reconstructed cross-node propagation tree for one trace key.
struct PropagationTree {
  TraceKey key = 0;
  bool has_origin = false;
  std::uint64_t origin_node = kNoPeer;
  std::uint64_t publish_ns = 0;
  bool has_shard = false;
  std::uint16_t shard = 0;
  std::size_t deliveries = 0;      ///< nodes that delivered (origin included)
  std::uint64_t last_delivery_ns = 0;
  std::size_t useful_rx = 0;       ///< nodes with >=1 first receipt
  std::size_t duplicate_rx = 0;    ///< duplicate receipts across all nodes
  std::size_t rejections = 0;      ///< nodes whose verdict was a reject
  int max_delivery_depth = -1;     ///< deepest delivering node
  int reject_depth = -1;           ///< shallowest rejecting node (-1 = none)
  bool truncated = false;          ///< any contributing span truncated
  /// Origin seen, >=1 delivery beyond the origin, nothing truncated.
  bool complete = false;
  /// Spam signature: rejected somewhere and never delivered off-origin.
  bool rejected = false;
  /// Anchored at a node marked adversary (mark_adversary): either the
  /// traced origin, or — for rootless trees — a contributing node that
  /// never received the message itself. Adversaries do not emit honest
  /// publish telemetry, so their trees are attack evidence, not failed
  /// honest reconstructions.
  bool adversary_origin = false;
  std::vector<PropagationNodeView> nodes;  ///< sorted by node id

  /// publish -> last delivery; 0 when either end is missing.
  [[nodiscard]] std::uint64_t latency_ns() const {
    return (has_origin && last_delivery_ns > publish_ns)
               ? last_delivery_ns - publish_ns
               : 0;
  }
  [[nodiscard]] std::string to_json() const;
};

/// Network-level rollup over every assembled tree.
struct PropagationSummary {
  std::size_t trees = 0;
  std::size_t complete_trees = 0;
  /// Neither complete, rejected, nor adversary-anchored: origin missing,
  /// zero deliveries, or a truncated contributing span — surfaced, never
  /// silently skipped.
  std::size_t incomplete_trees = 0;
  std::size_t rejected_trees = 0;
  /// Trees anchored at a marked adversary (within-quota spam that was
  /// accepted fleet-wide lands here, not in rejected_trees).
  std::size_t adversary_trees = 0;
  std::uint64_t p50_ns = 0;  ///< publish -> last delivery, complete trees
  std::uint64_t p95_ns = 0;
  std::uint64_t p99_ns = 0;
  double redundancy_ratio = 0.0;  ///< duplicate rx / useful rx
  double reachability = 1.0;      ///< sum delivered / sum subscribed
  /// hop_histogram[d] = delivering nodes at depth d (complete trees).
  std::vector<std::size_t> hop_histogram;

  [[nodiscard]] std::string to_json() const;
};

class PropagationAssembler {
 public:
  /// Offer one node's trace ring (completed() and/or slowest()); tag is
  /// the node id the traces were collected from. Idempotent per
  /// (node, key): the version with the most events wins, so per-epoch
  /// re-collection of a ring neither duplicates nor regresses a tree.
  void ingest(std::uint64_t node_id, const std::vector<Trace>& traces);

  /// Offer a node's flight-recorder events for the forensics view (only
  /// "slash" events are retained; the rest of the ring stays with the
  /// node's own postmortem path).
  void ingest_flight(std::uint64_t node_id,
                     const std::vector<FlightEvent>& events);

  /// Reachability denominators: how many nodes subscribe the shard a
  /// tree propagated on. Unset shards fall back to the default; with
  /// neither, reachability reports 1.0 (no denominator to judge by).
  void set_subscribers(std::uint16_t shard, std::size_t count);
  void set_default_subscribers(std::size_t count);

  /// Declare a node adversary-controlled: trees it originates (traced or
  /// rootless) classify as attack trees and feed the forensics view
  /// instead of counting against honest reconstruction.
  void mark_adversary(std::uint64_t node) { adversaries_.insert(node); }

  /// Rebuild every tree, sorted by trace key.
  [[nodiscard]] std::vector<PropagationTree> assemble() const;
  [[nodiscard]] PropagationSummary summary() const;

  /// The summary plus per-tree detail — the ScenarioVerdict embed.
  [[nodiscard]] std::string summary_json() const;

  /// Chrome trace-event format ({"traceEvents": [...]}, ts/dur in
  /// microseconds, pid = node id) — loads in chrome://tracing and
  /// Perfetto: one named span per (message, node) plus per-node process
  /// metadata.
  [[nodiscard]] std::string chrome_trace_json() const;

  /// Per-attack causal chains: for each rejected (spam) tree, the
  /// cross-node rx/verdict observations stitched with the slash flight
  /// events that followed the publish (commit -> member_slashed).
  [[nodiscard]] std::string forensics_json() const;

  [[nodiscard]] std::size_t ingested_traces() const;

 private:
  [[nodiscard]] PropagationTree build_tree(
      TraceKey key, const std::map<std::uint64_t, Trace>& per_node) const;

  // key -> (node id -> that node's best trace for the key).
  std::map<TraceKey, std::map<std::uint64_t, Trace>> by_key_;
  // "slash" flight events, tagged with the recording node.
  struct TaggedFlightEvent {
    std::uint64_t node = 0;
    FlightEvent event;
  };
  std::vector<TaggedFlightEvent> slash_events_;
  std::set<std::uint64_t> adversaries_;
  std::map<std::uint16_t, std::size_t> subscribers_;
  std::size_t default_subscribers_ = 0;
  std::set<std::uint64_t> known_nodes_;
};

}  // namespace waku::obs

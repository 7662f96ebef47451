#include "obs/propagation.hpp"

#include <algorithm>
#include <cinttypes>

#include "obs/json.hpp"

namespace waku::obs {

namespace {

/// Parses `name=<u64>` out of a "k=v,k=v" hop-detail string; kNoPeer
/// when absent or malformed. Details are machine-stamped (node/shard/
/// peer ids), so a strict digits-only parse is enough.
std::uint64_t detail_field(const std::string& detail, const char* name) {
  const std::string needle = std::string(name) + "=";
  std::size_t pos = 0;
  while (pos < detail.size()) {
    const std::size_t hit = detail.find(needle, pos);
    if (hit == std::string::npos) return kNoPeer;
    // Must start a field: beginning of string or right after a comma.
    if (hit != 0 && detail[hit - 1] != ',') {
      pos = hit + 1;
      continue;
    }
    std::size_t i = hit + needle.size();
    if (i >= detail.size() || detail[i] < '0' || detail[i] > '9') {
      return kNoPeer;
    }
    std::uint64_t value = 0;
    while (i < detail.size() && detail[i] >= '0' && detail[i] <= '9') {
      value = value * 10 + static_cast<std::uint64_t>(detail[i] - '0');
      ++i;
    }
    return value;
  }
  return kNoPeer;
}

bool verdict_is_reject(const std::string& verdict) {
  // Mirrors rln::Verdict: accept and the two ignores pass a message by;
  // everything else killed it at this node.
  return !(verdict.empty() || verdict == "accept" ||
           verdict == "epoch_gap" || verdict == "duplicate");
}

/// The rollup members, shared by PropagationSummary::to_json and
/// summary_json (which appends the tree detail).
void write_summary(JsonWriter& w, const PropagationSummary& s) {
  w.key("trees").u64(s.trees).key("complete_trees").u64(s.complete_trees);
  w.key("incomplete_trees").u64(s.incomplete_trees);
  w.key("rejected_trees").u64(s.rejected_trees);
  w.key("adversary_trees").u64(s.adversary_trees);
  w.key("propagation_p50_ns").u64(s.p50_ns);
  w.key("propagation_p95_ns").u64(s.p95_ns);
  w.key("propagation_p99_ns").u64(s.p99_ns);
  w.key("redundancy_ratio").num(s.redundancy_ratio);
  w.key("reachability").num(s.reachability).key("hop_histogram").arr();
  for (const std::size_t n : s.hop_histogram) w.u64(n);
  w.end();
}

}  // namespace

void PropagationAssembler::ingest(std::uint64_t node_id,
                                  const std::vector<Trace>& traces) {
  known_nodes_.insert(node_id);
  for (const Trace& t : traces) {
    Trace& slot = by_key_[t.key][node_id];
    // Re-ingestion keeps the richest version: per-epoch re-collection
    // offers the identical trace again (no-op), and a trace that gained
    // late hop annotations replaces its earlier snapshot.
    if (slot.events.size() < t.events.size() ||
        (slot.events.size() == t.events.size() && slot.end_ns < t.end_ns)) {
      slot = t;
    }
  }
}

void PropagationAssembler::ingest_flight(std::uint64_t node_id,
                                         const std::vector<FlightEvent>& events) {
  for (const FlightEvent& ev : events) {
    if (ev.kind != "slash") continue;
    const bool seen = std::any_of(
        slash_events_.begin(), slash_events_.end(),
        [&](const TaggedFlightEvent& have) {
          return have.node == node_id && have.event.at_ns == ev.at_ns &&
                 have.event.detail == ev.detail;
        });
    if (!seen) slash_events_.push_back({node_id, ev});
  }
}

void PropagationAssembler::set_subscribers(std::uint16_t shard,
                                           std::size_t count) {
  subscribers_[shard] = count;
}

void PropagationAssembler::set_default_subscribers(std::size_t count) {
  default_subscribers_ = count;
}

std::size_t PropagationAssembler::ingested_traces() const {
  std::size_t total = 0;
  for (const auto& [key, per_node] : by_key_) total += per_node.size();
  return total;
}

PropagationTree PropagationAssembler::build_tree(
    TraceKey key, const std::map<std::uint64_t, Trace>& per_node) const {
  PropagationTree tree;
  tree.key = key;

  for (const auto& [node_id, trace] : per_node) {
    PropagationNodeView view;
    view.node = node_id;
    view.span_start_ns = trace.start_ns;
    view.span_end_ns = trace.end_ns;
    view.truncated = trace.outcome == "truncated";
    for (const TraceEvent& ev : trace.events) {
      if (ev.stage == "publish") {
        tree.has_origin = true;
        tree.origin_node = node_id;
        tree.publish_ns = ev.at_ns;
        if (const std::uint64_t s = detail_field(ev.detail, "shard");
            s != kNoPeer) {
          tree.has_shard = true;
          tree.shard = static_cast<std::uint16_t>(s);
        }
      } else if (ev.stage == "rx") {
        if (view.first_rx_ns == 0) {
          view.first_rx_ns = ev.at_ns;
          view.from = detail_field(ev.detail, "from");
        }
        if (!tree.has_shard) {
          if (const std::uint64_t s = detail_field(ev.detail, "shard");
              s != kNoPeer) {
            tree.has_shard = true;
            tree.shard = static_cast<std::uint16_t>(s);
          }
        }
      } else if (ev.stage == "dup") {
        ++view.duplicate_rx;
      } else if (ev.stage == "fwd") {
        ++view.forwards;
      } else if (ev.stage == "verdict") {
        view.verdict = ev.detail;
      } else if (ev.stage == "deliver") {
        view.delivered = true;
        view.deliver_ns = ev.at_ns;
      }
    }
    tree.nodes.push_back(std::move(view));
  }

  // Depth: first-rx provenance edges form a parent forest rooted at the
  // origin. Resolve each node by walking its parent chain (bounded by
  // the node count, so a malformed cycle terminates).
  std::map<std::uint64_t, const PropagationNodeView*> by_node;
  for (const PropagationNodeView& v : tree.nodes) by_node[v.node] = &v;
  for (PropagationNodeView& v : tree.nodes) {
    if (tree.has_origin && v.node == tree.origin_node) {
      v.depth = 0;
      continue;
    }
    int depth = 0;
    std::uint64_t cursor = v.node;
    bool resolved = false;
    for (std::size_t steps = 0; steps <= tree.nodes.size(); ++steps) {
      if (tree.has_origin && cursor == tree.origin_node) {
        resolved = true;
        break;
      }
      const auto it = by_node.find(cursor);
      if (it == by_node.end() || it->second->from == kNoPeer) break;
      cursor = it->second->from;
      ++depth;
    }
    v.depth = resolved ? depth : -1;
  }

  for (const PropagationNodeView& v : tree.nodes) {
    if (v.first_rx_ns != 0) ++tree.useful_rx;
    tree.duplicate_rx += v.duplicate_rx;
    if (v.truncated) tree.truncated = true;
    if (verdict_is_reject(v.verdict)) {
      ++tree.rejections;
      if (v.depth >= 0 &&
          (tree.reject_depth < 0 || v.depth < tree.reject_depth)) {
        tree.reject_depth = v.depth;
      }
    }
    if (v.delivered) {
      ++tree.deliveries;
      tree.last_delivery_ns = std::max(tree.last_delivery_ns, v.deliver_ns);
      if (v.depth > tree.max_delivery_depth) tree.max_delivery_depth = v.depth;
    }
  }

  std::size_t remote_deliveries = tree.deliveries;
  if (tree.has_origin) {
    const auto it = by_node.find(tree.origin_node);
    if (it != by_node.end() && it->second->delivered) --remote_deliveries;
  }
  tree.complete = tree.has_origin && remote_deliveries >= 1 && !tree.truncated;
  tree.rejected = tree.rejections > 0 && remote_deliveries == 0;
  // Adversary anchoring. A marked adversary that appears with no rx and
  // no publish event is the untraced injection point (its node delivers
  // and forwards spam it never "received"); a marked traced origin is the
  // degenerate cooperative case. Honest trees that merely pass THROUGH an
  // adversary hop (first_rx set) are not affected.
  if (tree.has_origin) {
    tree.adversary_origin = adversaries_.count(tree.origin_node) > 0;
  } else {
    for (const PropagationNodeView& v : tree.nodes) {
      if (v.first_rx_ns == 0 && adversaries_.count(v.node) > 0) {
        tree.adversary_origin = true;
        break;
      }
    }
  }
  return tree;
}

std::vector<PropagationTree> PropagationAssembler::assemble() const {
  std::vector<PropagationTree> trees;
  trees.reserve(by_key_.size());
  for (const auto& [key, per_node] : by_key_) {
    trees.push_back(build_tree(key, per_node));
  }
  return trees;
}

PropagationSummary PropagationAssembler::summary() const {
  PropagationSummary s;
  std::vector<std::uint64_t> latencies;
  std::size_t total_dup = 0;
  std::size_t total_rx = 0;
  std::size_t delivered_sum = 0;
  std::size_t subscribed_sum = 0;

  for (const auto& [key, per_node] : by_key_) {
    const PropagationTree tree = build_tree(key, per_node);
    ++s.trees;
    total_dup += tree.duplicate_rx;
    total_rx += tree.useful_rx;
    if (tree.adversary_origin) {
      ++s.adversary_trees;
      continue;
    }
    if (tree.rejected) {
      ++s.rejected_trees;
      continue;
    }
    if (!tree.complete) {
      ++s.incomplete_trees;
      continue;
    }
    ++s.complete_trees;
    latencies.push_back(tree.latency_ns());
    for (const PropagationNodeView& v : tree.nodes) {
      if (!v.delivered || v.depth < 0) continue;
      const auto depth = static_cast<std::size_t>(v.depth);
      if (depth >= s.hop_histogram.size()) s.hop_histogram.resize(depth + 1);
      ++s.hop_histogram[depth];
    }
    std::size_t subscribed = default_subscribers_;
    if (tree.has_shard) {
      if (const auto it = subscribers_.find(tree.shard);
          it != subscribers_.end()) {
        subscribed = it->second;
      }
    }
    if (subscribed > 0) {
      delivered_sum += std::min(tree.deliveries, subscribed);
      subscribed_sum += subscribed;
    }
  }

  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    const auto rank = [&](std::size_t q) {
      return latencies[std::min(latencies.size() - 1,
                                latencies.size() * q / 100)];
    };
    s.p50_ns = rank(50);
    s.p95_ns = rank(95);
    s.p99_ns = rank(99);
  }
  if (total_rx > 0) {
    s.redundancy_ratio =
        static_cast<double>(total_dup) / static_cast<double>(total_rx);
  }
  if (subscribed_sum > 0) {
    s.reachability = static_cast<double>(delivered_sum) /
                     static_cast<double>(subscribed_sum);
  }
  return s;
}

std::string PropagationTree::to_json() const {
  JsonWriter w;
  w.obj().key("key").fmt("\"%016" PRIx64 "\"", key).key("origin_node");
  has_origin ? w.u64(origin_node) : w.null();
  w.key("publish_ns").u64(publish_ns).key("shard");
  has_shard ? w.u64(shard) : w.null();
  w.key("deliveries").u64(deliveries);
  w.key("last_delivery_ns").u64(last_delivery_ns);
  w.key("latency_ns").u64(latency_ns()).key("useful_rx").u64(useful_rx);
  w.key("duplicate_rx").u64(duplicate_rx).key("rejections").u64(rejections);
  w.key("max_delivery_depth").i64(max_delivery_depth);
  w.key("reject_depth").i64(reject_depth);
  w.key("truncated").boolean(truncated).key("complete").boolean(complete);
  w.key("rejected").boolean(rejected);
  w.key("adversary_origin").boolean(adversary_origin).key("hops").arr();
  for (const PropagationNodeView& v : nodes) {
    w.obj().key("node").u64(v.node).key("depth").i64(v.depth);
    w.key("first_rx_ns").u64(v.first_rx_ns).key("from");
    v.from == kNoPeer ? w.null() : w.u64(v.from);
    w.key("verdict").str(v.verdict).key("delivered").boolean(v.delivered);
    w.key("deliver_ns").u64(v.deliver_ns).key("forwards").u64(v.forwards);
    w.key("duplicate_rx").u64(v.duplicate_rx).end();
  }
  return std::move(w).take();
}

std::string PropagationSummary::to_json() const {
  JsonWriter w;
  write_summary(w.obj(), *this);
  return std::move(w).take();
}

std::string PropagationAssembler::summary_json() const {
  JsonWriter w;
  write_summary(w.obj(), summary());
  w.key("trees_detail").arr();
  for (const auto& [key, per_node] : by_key_) {
    w.raw(build_tree(key, per_node).to_json());
  }
  return std::move(w).take();
}

std::string PropagationAssembler::chrome_trace_json() const {
  JsonWriter w;
  w.obj().key("traceEvents").arr();
  for (const std::uint64_t node_id : known_nodes_) {
    w.obj().key("name").str("process_name").key("ph").str("M");
    w.key("pid").u64(node_id).key("tid").u64(0).key("args").obj();
    w.key("name").str("node " + std::to_string(node_id)).end().end();
  }
  for (const auto& [key, per_node] : by_key_) {
    const PropagationTree tree = build_tree(key, per_node);
    for (const PropagationNodeView& v : tree.nodes) {
      // One complete ("X") span per (message, node); ts/dur in us. A
      // zero-length span still gets 1us so the slice renders.
      const std::uint64_t ts_us = v.span_start_ns / 1000;
      const std::uint64_t end_us =
          std::max(v.span_end_ns, v.span_start_ns) / 1000;
      const std::uint64_t dur_us = end_us > ts_us ? end_us - ts_us : 1;
      w.obj().key("name").fmt("\"msg %016" PRIx64 "\"", key);
      w.key("cat").str("propagation").key("ph").str("X");
      w.key("ts").u64(ts_us).key("dur").u64(dur_us).key("pid").u64(v.node);
      w.key("tid").u64(0).key("args").obj().key("depth").i64(v.depth);
      w.key("verdict").str(v.verdict).key("delivered").boolean(v.delivered);
      w.key("forwards").u64(v.forwards);
      w.key("duplicate_rx").u64(v.duplicate_rx).end().end();
    }
  }
  return std::move(w).take();
}

std::string PropagationAssembler::forensics_json() const {
  // Time-ordered slash chain (commit -> member_slashed), shared by every
  // attack record below; ties break on node id for determinism.
  std::vector<TaggedFlightEvent> chain = slash_events_;
  std::sort(chain.begin(), chain.end(),
            [](const TaggedFlightEvent& a, const TaggedFlightEvent& b) {
              if (a.event.at_ns != b.event.at_ns) {
                return a.event.at_ns < b.event.at_ns;
              }
              return a.node < b.node;
            });

  JsonWriter w;
  w.obj().key("attacks").arr();
  for (const auto& [key, per_node] : by_key_) {
    const PropagationTree tree = build_tree(key, per_node);
    if (!tree.rejected && !tree.adversary_origin) continue;
    w.obj().key("key").fmt("\"%016" PRIx64 "\"", key).key("origin_node");
    tree.has_origin ? w.u64(tree.origin_node) : w.null();
    w.key("publish_ns").u64(tree.publish_ns);
    w.key("reject_depth").i64(tree.reject_depth).key("observations").arr();
    for (const PropagationNodeView& v : tree.nodes) {
      if (v.verdict.empty() && v.first_rx_ns == 0) continue;
      w.obj().key("node").u64(v.node).key("rx_ns").u64(v.first_rx_ns);
      w.key("verdict").str(v.verdict).end();
    }
    w.end().key("slash_chain").arr();
    for (const TaggedFlightEvent& ev : chain) {
      // Causal window: only slashes at/after this spam's publish.
      if (tree.has_origin && ev.event.at_ns < tree.publish_ns) continue;
      w.obj().key("node").u64(ev.node).key("at_ns").u64(ev.event.at_ns);
      w.key("epoch").u64(ev.event.epoch).key("detail").str(ev.event.detail);
      w.end();
    }
    w.end().end();
  }
  w.end().key("slash_events").u64(chain.size());
  return std::move(w).take();
}

}  // namespace waku::obs

#include "obs/propagation.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "obs/telemetry.hpp"  // format_double

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

std::string key_hex(TraceKey key) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, key);
  return buf;
}

void append_u64(std::string& out, const char* name, std::uint64_t v,
                bool comma = true) {
  out += '"';
  out += name;
  out += "\":";
  out += std::to_string(v);
  if (comma) out += ',';
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
  std::string out = "{\"key\":\"" + key_hex(key) + "\",";
  out += "\"origin_node\":";
  out += has_origin ? std::to_string(origin_node) : "null";
  out += ",";
  append_u64(out, "publish_ns", publish_ns);
  out += "\"shard\":";
  out += has_shard ? std::to_string(shard) : "null";
  out += ",";
  append_u64(out, "deliveries", deliveries);
  append_u64(out, "last_delivery_ns", last_delivery_ns);
  append_u64(out, "latency_ns", latency_ns());
  append_u64(out, "useful_rx", useful_rx);
  append_u64(out, "duplicate_rx", duplicate_rx);
  append_u64(out, "rejections", rejections);
  out += "\"max_delivery_depth\":" + std::to_string(max_delivery_depth) + ",";
  out += "\"reject_depth\":" + std::to_string(reject_depth) + ",";
  out += std::string("\"truncated\":") + (truncated ? "true" : "false") + ",";
  out += std::string("\"complete\":") + (complete ? "true" : "false") + ",";
  out += std::string("\"rejected\":") + (rejected ? "true" : "false") + ",";
  out += std::string("\"adversary_origin\":") +
         (adversary_origin ? "true" : "false") + ",";
  out += "\"hops\":[";
  bool first = true;
  for (const PropagationNodeView& v : nodes) {
    if (!first) out += ",";
    first = false;
    out += "{";
    append_u64(out, "node", v.node);
    out += "\"depth\":" + std::to_string(v.depth) + ",";
    append_u64(out, "first_rx_ns", v.first_rx_ns);
    out += "\"from\":";
    out += v.from == kNoPeer ? "null" : std::to_string(v.from);
    out += ",\"verdict\":\"" + json_escape(v.verdict) + "\",";
    out += std::string("\"delivered\":") + (v.delivered ? "true" : "false") +
           ",";
    append_u64(out, "deliver_ns", v.deliver_ns);
    append_u64(out, "forwards", v.forwards);
    append_u64(out, "duplicate_rx", v.duplicate_rx, /*comma=*/false);
    out += "}";
  }
  out += "]}";
  return out;
}

std::string PropagationSummary::to_json() const {
  std::string out = "{";
  append_u64(out, "trees", trees);
  append_u64(out, "complete_trees", complete_trees);
  append_u64(out, "incomplete_trees", incomplete_trees);
  append_u64(out, "rejected_trees", rejected_trees);
  append_u64(out, "adversary_trees", adversary_trees);
  append_u64(out, "propagation_p50_ns", p50_ns);
  append_u64(out, "propagation_p95_ns", p95_ns);
  append_u64(out, "propagation_p99_ns", p99_ns);
  out += "\"redundancy_ratio\":" + format_double(redundancy_ratio) + ",";
  out += "\"reachability\":" + format_double(reachability) + ",";
  out += "\"hop_histogram\":[";
  for (std::size_t d = 0; d < hop_histogram.size(); ++d) {
    if (d > 0) out += ",";
    out += std::to_string(hop_histogram[d]);
  }
  out += "]}";
  return out;
}

std::string PropagationAssembler::summary_json() const {
  std::string out = summary().to_json();
  out.pop_back();  // reopen the summary object to append the tree detail
  out += ",\"trees_detail\":[";
  bool first = true;
  for (const auto& [key, per_node] : by_key_) {
    if (!first) out += ",";
    first = false;
    out += build_tree(key, per_node).to_json();
  }
  out += "]}";
  return out;
}

std::string PropagationAssembler::chrome_trace_json() const {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  const auto emit = [&](const std::string& ev) {
    if (!first) out += ",";
    first = false;
    out += ev;
  };
  for (const std::uint64_t node_id : known_nodes_) {
    emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
         std::to_string(node_id) + ",\"tid\":0,\"args\":{\"name\":\"node " +
         std::to_string(node_id) + "\"}}");
  }
  for (const auto& [key, per_node] : by_key_) {
    const PropagationTree tree = build_tree(key, per_node);
    const std::string name = "msg " + key_hex(key);
    for (const PropagationNodeView& v : tree.nodes) {
      // One complete ("X") span per (message, node); ts/dur in us. A
      // zero-length span still gets 1us so the slice renders.
      const std::uint64_t ts_us = v.span_start_ns / 1000;
      const std::uint64_t end_us =
          std::max(v.span_end_ns, v.span_start_ns) / 1000;
      const std::uint64_t dur_us = end_us > ts_us ? end_us - ts_us : 1;
      std::string ev = "{\"name\":\"" + name +
                       "\",\"cat\":\"propagation\",\"ph\":\"X\",\"ts\":" +
                       std::to_string(ts_us) + ",\"dur\":" +
                       std::to_string(dur_us) + ",\"pid\":" +
                       std::to_string(v.node) + ",\"tid\":0,\"args\":{";
      ev += "\"depth\":" + std::to_string(v.depth) + ",";
      ev += "\"verdict\":\"" + json_escape(v.verdict) + "\",";
      ev += std::string("\"delivered\":") + (v.delivered ? "true" : "false") +
            ",";
      ev += "\"forwards\":" + std::to_string(v.forwards) + ",";
      ev += "\"duplicate_rx\":" + std::to_string(v.duplicate_rx) + "}}";
      emit(ev);
    }
  }
  out += "]}";
  return out;
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

  std::string out = "{\"attacks\":[";
  bool first_attack = true;
  for (const auto& [key, per_node] : by_key_) {
    const PropagationTree tree = build_tree(key, per_node);
    if (!tree.rejected && !tree.adversary_origin) continue;
    if (!first_attack) out += ",";
    first_attack = false;
    out += "{\"key\":\"" + key_hex(key) + "\",";
    out += "\"origin_node\":";
    out += tree.has_origin ? std::to_string(tree.origin_node) : "null";
    out += ",";
    append_u64(out, "publish_ns", tree.publish_ns);
    out += "\"reject_depth\":" + std::to_string(tree.reject_depth) + ",";
    out += "\"observations\":[";
    bool first_obs = true;
    for (const PropagationNodeView& v : tree.nodes) {
      if (v.verdict.empty() && v.first_rx_ns == 0) continue;
      if (!first_obs) out += ",";
      first_obs = false;
      out += "{";
      append_u64(out, "node", v.node);
      append_u64(out, "rx_ns", v.first_rx_ns);
      out += "\"verdict\":\"" + json_escape(v.verdict) + "\"}";
    }
    out += "],\"slash_chain\":[";
    bool first_slash = true;
    for (const TaggedFlightEvent& ev : chain) {
      // Causal window: only slashes at/after this spam's publish.
      if (tree.has_origin && ev.event.at_ns < tree.publish_ns) continue;
      if (!first_slash) out += ",";
      first_slash = false;
      out += "{";
      append_u64(out, "node", ev.node);
      append_u64(out, "at_ns", ev.event.at_ns);
      append_u64(out, "epoch", ev.event.epoch);
      out += "\"detail\":\"" + json_escape(ev.event.detail) + "\"}";
    }
    out += "]}";
  }
  out += "],";
  append_u64(out, "slash_events", chain.size(), /*comma=*/false);
  out += "}";
  return out;
}

}  // namespace waku::obs

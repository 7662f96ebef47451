#include "sim/scenario.hpp"

#include <algorithm>
#include <unordered_set>

#include "chain/rln_contract.hpp"
#include "common/expect.hpp"
#include "rln/checkpoint.hpp"

namespace waku::sim {

namespace {

/// part / whole; 1.0 when the whole is empty (nothing was owed).
double fraction(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 1.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

}  // namespace

Scenario::Scenario(ScenarioConfig config)
    : config_(std::move(config)),
      campaign_(config_.harness, 0x7AF1C0DEULL, config_.tick_ms,
                config_.honest_rate_per_epoch) {}

Scenario& Scenario::add_phase(PhaseSpec phase) {
  phases_.push_back(std::move(phase));
  return *this;
}

void Scenario::scrape_fleet(std::uint64_t epoch) {
  rln::RlnHarness& h = campaign_.harness;
  std::uint64_t spam_total = 0;
  for (const Adversary* adversary : all_adversaries_) {
    spam_total += adversary->spam_sent();
  }
  for (std::size_t i = 0; i < h.size(); ++i) {
    if (!campaign_.honest(i) || !h.alive(i)) continue;
    obs::NodeHealthSample s = h.node(i).health_sample();
    s.epoch = epoch;
    // Ground truth only the harness knows. Ideal delivery is "every
    // honest/spam message reaches every honest node", so each node's
    // share of the fleet-wide ideal is the cumulative sent total — the
    // aggregator's sums then reproduce the verdict's ratios.
    s.honest_delivered = campaign_.probe.node_honest_delivered(i);
    s.honest_ideal = campaign_.honest_sent;
    s.spam_delivered = campaign_.probe.node_spam_delivered(i);
    s.spam_sent = spam_total;
    fleet_.ingest(std::move(s));
  }
  // Harvest every node's trace rings BEFORE closing the row so the
  // epoch's fleet entry carries the propagation rollup it produced, and
  // feed the same numbers back to each node's self-monitor — that is
  // what arms the propagation-latency SLO rule for the operator loop.
  if (config_.harness.node.obs.trace.sample_every != 0) {
    campaign_.harvest_traces(propagation_);
    const obs::PropagationSummary ps = propagation_.summary();
    const double p95_ms = static_cast<double>(ps.p95_ns) / 1e6;
    fleet_.set_propagation(p95_ms, ps.redundancy_ratio, ps.reachability,
                           ps.incomplete_trees);
    for (std::size_t i = 0; i < h.size(); ++i) {
      if (!campaign_.honest(i) || !h.alive(i)) continue;
      h.node(i).telemetry().set_propagation_health(
          p95_ms, ps.redundancy_ratio, ps.reachability, ps.incomplete_trees);
    }
  }
  fleet_.close_epoch(epoch);
}

void Scenario::run_phase(const PhaseSpec& phase) {
  AdversaryContext ctx = campaign_.context();
  if (!phase.adversaries.empty() &&
      !campaign_.probe.attack_start_ms().has_value()) {
    campaign_.probe.mark_attack_start();
  }
  for (Adversary* adversary : phase.adversaries) {
    adversary->on_phase_start(ctx);
  }
  campaign_.run_ticks(phase.duration_ms, [&] {
    if (phase.honest_traffic) {
      campaign_.honest_tick(
          [](std::size_t) { return rln::kDefaultContentTopic; },
          nullptr, config_.honest_publishers);
    }
    for (Adversary* adversary : phase.adversaries) {
      adversary->on_tick(ctx);
    }
    if (campaign_.epoch_turned()) scrape_fleet(campaign_.epoch_now());
    return true;
  });
}

Report Scenario::run() {
  WAKU_EXPECTS(!ran_);
  ran_ = true;

  // Who is honest is a property of the whole campaign, not of a phase.
  for (const PhaseSpec& phase : phases_) {
    for (Adversary* adversary : phase.adversaries) {
      if (std::find(all_adversaries_.begin(), all_adversaries_.end(),
                    adversary) == all_adversaries_.end()) {
        all_adversaries_.push_back(adversary);
      }
      for (const std::size_t slot : adversary->controlled_nodes()) {
        campaign_.adversary_slots.insert(slot);
      }
    }
  }

  rln::RlnHarness& h = campaign_.harness;
  const HarnessProbe& probe = campaign_.probe;
  h.register_all();

  // Member index -> honest/adversary classification for slash attribution
  // (an index outlives the membership it names; capture it while every
  // adversary is still registered). Per-adversary index sets feed the
  // coalition breakdown: with several strategies in one campaign, each
  // gets its own slash attribution.
  std::unordered_set<std::uint64_t> adversary_indices;
  std::vector<std::unordered_set<std::uint64_t>> indices_per_adversary(
      all_adversaries_.size());
  for (std::size_t a = 0; a < all_adversaries_.size(); ++a) {
    for (const std::size_t slot : all_adversaries_[a]->controlled_nodes()) {
      if (const auto index = h.node(slot).group().own_index()) {
        adversary_indices.insert(*index);
        indices_per_adversary[a].insert(*index);
      }
    }
  }

  for (const PhaseSpec& phase : phases_) run_phase(phase);

  // Drain: let in-flight publishes, validation windows, and slash txs
  // settle before judging delivery ratios.
  h.run_ms(config_.drain_ms);
  if (campaign_.epoch_turned()) {
    scrape_fleet(campaign_.epoch_now());  // final row: post-drain state
  }

  ScenarioVerdict verdict;
  verdict.scenario = config_.name;
  verdict.seed = config_.harness.seed;
  verdict.nodes = h.size();
  verdict.adversary_nodes = campaign_.adversary_slots.size();
  verdict.honest_nodes = h.size() - campaign_.adversary_slots.size();

  for (const Adversary* adversary : all_adversaries_) {
    verdict.spam_sent += adversary->spam_sent();
  }
  verdict.spam_delivered_honest = campaign_.spam_delivered();
  verdict.honest_delivered_honest = campaign_.honest_delivered();
  verdict.honest_sent = campaign_.honest_sent;
  // Ideal delivery: every spam/honest message reaching every honest node
  // (local delivery included) scores 1.0.
  const double honest_nodes = static_cast<double>(verdict.honest_nodes);
  verdict.spam_containment_ratio =
      verdict.spam_sent == 0
          ? 0
          : static_cast<double>(verdict.spam_delivered_honest) /
                (static_cast<double>(verdict.spam_sent) * honest_nodes);
  verdict.honest_delivery_ratio =
      verdict.honest_sent == 0
          ? 1.0
          : static_cast<double>(verdict.honest_delivered_honest) /
                (static_cast<double>(verdict.honest_sent) * honest_nodes);

  // Slash attribution over a member-index set: the count, and the latency
  // of the first one since the attack began.
  const auto attribute = [&](const std::unordered_set<std::uint64_t>& indices,
                             std::uint64_t& slashes) {
    std::optional<std::uint64_t> latency;
    for (const HarnessProbe::SlashEvent& slash : probe.slashes()) {
      if (!indices.contains(slash.index)) continue;
      ++slashes;
      if (!latency.has_value() && probe.attack_start_ms().has_value()) {
        latency = slash.at_ms - *probe.attack_start_ms();
      }
    }
    return latency;
  };
  verdict.slashes = probe.slashes().size();
  verdict.withdrawals = probe.withdrawals().size();
  verdict.time_to_slash_ms =
      attribute(adversary_indices, verdict.adversary_slashes);
  verdict.honest_slashes = verdict.slashes - verdict.adversary_slashes;
  verdict.honest_false_positive_rate =
      verdict.honest_nodes == 0
          ? 0
          : static_cast<double>(verdict.honest_slashes) / honest_nodes;
  if (verdict.time_to_slash_ms.has_value()) {
    const std::uint64_t epoch_ms =
        config_.harness.node.validator.epoch.epoch_length_ms;
    verdict.time_to_slash_epochs =
        (*verdict.time_to_slash_ms + epoch_ms - 1) / epoch_ms;
  }

  // Coalition breakdown: one verdict per distinct adversary strategy.
  for (std::size_t a = 0; a < all_adversaries_.size(); ++a) {
    AdversaryVerdict av;
    av.name = all_adversaries_[a]->name();
    av.spam_sent = all_adversaries_[a]->spam_sent();
    av.controlled_nodes = all_adversaries_[a]->controlled_nodes().size();
    av.time_to_slash_ms = attribute(indices_per_adversary[a], av.slashes);
    verdict.per_adversary.push_back(std::move(av));
  }

  verdict.fleet_timeline_json = fleet_.timeline_json();
  if (config_.harness.node.obs.trace.sample_every != 0) {
    verdict.propagation_json = propagation_.summary_json();
  }

  Report report{std::move(verdict), {}, h.network().total_stats()};
  for (std::size_t i = 0; i < h.size(); ++i) {
    if (h.alive(i)) report.deployment += h.node(i).telemetry().snapshot();
  }
  return report;
}

// -- Eclipse campaign --------------------------------------------------------

namespace {

/// Registers a brand-new member straight on the contract (no node behind
/// it) — the membership churn the stale checkpoint is missing.
void register_external_member(rln::RlnHarness& h, std::uint64_t tag) {
  Rng rng(0xEC1000 + tag);
  const rln::Identity member = rln::Identity::generate(rng);
  const chain::Address account = chain::Address::from_u64(0xEC100000 + tag);
  h.chain().create_account(account, 10 * chain::kGweiPerEth);
  chain::Transaction tx;
  tx.from = account;
  tx.to = h.contract();
  tx.method = "register";
  tx.calldata = member.pk_bytes();
  tx.value = h.chain()
                 .contract_at<chain::RlnMembershipContract>(h.contract())
                 .deposit();
  h.chain().submit(std::move(tx));
}

}  // namespace

EclipseOutcome run_eclipse_campaign(const EclipseConfig& config) {
  rln::RlnHarness h(config.harness);
  h.register_all();
  h.run_ms(3'000);

  // The attacker holds a correctly signed checkpoint captured now — honest
  // at capture time, stale by bootstrap time. (Models a compromised or
  // merely frozen service replaying its last good artifact; the Schnorr
  // signature is genuine, which is exactly why staleness detection — not
  // the signature — must catch it.)
  const hash::schnorr::KeyPair key =
      hash::schnorr::keygen_from_seed(0xEC11B5E);
  rln::Checkpoint captured = h.node(0).make_checkpoint();
  captured.sign(key);
  StaleCheckpointService attacker(h.network(), captured.serialize());

  // Membership moves on while the attacker's artifact stands still.
  for (std::uint64_t i = 0; i < config.churn_members; ++i) {
    register_external_member(h, i);
  }
  h.run_ms(2 * config.harness.block_interval_ms + 1'000);

  // The victim: a light client whose honest bootstrap path sits behind
  // lossy links; the attacker's link is clean.
  rln::RlnFullServiceNode honest_service(h.network(), h.node(0));
  honest_service.set_checkpoint_signer(key);
  rln::RlnLightClient victim(h.network(), h.node(1).identity(),
                             *h.node(1).group().own_index(),
                             config.harness.node.validator.epoch,
                             config.harness.seed ^ 0xEC11ULL);
  victim.attach_chain(h.chain(), h.contract(), key.pk);
  victim.set_max_bootstrap_lag(config.max_bootstrap_lag);
  h.network().connect(victim.node_id(), honest_service.node_id());
  h.network().connect(victim.node_id(), attacker.node_id());
  net::LinkConfig lossy = config.harness.link;
  lossy.loss_rate = config.eclipse_loss;
  h.network().set_link_override(victim.node_id(), honest_service.node_id(),
                                lossy);

  EclipseOutcome out;
  // Starved attempt toward the honest service (the link eats it), then the
  // attacker's stale artifact. Outcomes are judged on client state, not
  // callbacks: responses lost to the eclipse leave stale entries in the
  // client's FIFO callback queue.
  victim.bootstrap(honest_service.node_id(), nullptr);
  h.run_ms(3'000);
  victim.bootstrap(attacker.node_id(), nullptr);
  h.run_ms(3'000);
  out.stale_served = attacker.served();
  out.stale_rejections = victim.stale_checkpoints_rejected();
  out.victim_detected_stale =
      !victim.bootstrapped() && out.stale_rejections > 0;

  // Recovery: the partition heals and the honest service gets through.
  h.network().clear_link_override(victim.node_id(),
                                  honest_service.node_id());
  victim.bootstrap(honest_service.node_id(), nullptr);
  h.run_ms(3'000);
  out.honest_bootstrap_after = victim.bootstrapped();
  return out;
}

// -- Shard-targeted flood campaign -------------------------------------------

std::string ShardFloodOutcome::to_json() const {
  return JsonObject()
      .integer("num_shards", num_shards)
      .integer("attacked_shard", attacked_shard)
      .integer("spam_sent", spam_sent)
      .boolean("attacker_slashed", attacker_slashed)
      .optional("time_to_slash_ms", time_to_slash_ms)
      .integers("honest_sent_by_shard", honest_sent_by_shard)
      .integers("honest_delivered_by_shard", honest_delivered_by_shard)
      .integers("spam_delivered_by_shard", spam_delivered_by_shard)
      .numbers("honest_delivery_by_shard", honest_delivery_by_shard, "%.4f")
      .number("min_non_attacked_delivery", min_non_attacked_delivery, "%.4f")
      .integer("spam_on_non_attacked_shards", spam_on_non_attacked_shards)
      .integer("propagation_trees", propagation_trees)
      .integer("propagation_complete", propagation_complete)
      .integer("propagation_incomplete", propagation_incomplete)
      .integer("propagation_rejected", propagation_rejected)
      .integer("propagation_adversary", propagation_adversary)
      .number("complete_tree_fraction", complete_tree_fraction, "%.4f")
      .number("propagation_p95_ms", propagation_p95_ms, "%.4f")
      .number("propagation_redundancy", propagation_redundancy, "%.4f")
      .number("propagation_reachability", propagation_reachability, "%.4f")
      .raw("propagation", propagation_json, "{}")
      .str();
}

ShardFloodOutcome run_shard_flood_campaign(const ShardFloodConfig& config) {
  rln::HarnessConfig hcfg = config.harness;
  const std::uint16_t num_shards = hcfg.node.shards.num_shards;
  const shard::ShardId attacked = config.attacked_shard;
  WAKU_EXPECTS(attacked < num_shards);
  hcfg.shard_assignment = round_robin(num_shards);
  Campaign c(hcfg, 0x5A4DF100DULL, config.tick_ms,
             config.honest_rate_per_epoch);
  // The flooder is the first slot homed on the attacked shard.
  const std::size_t flooder_slot = attacked;
  c.adversary_slots.insert(flooder_slot);
  c.stitch_rings(num_shards, /*chord=*/true);
  c.harness.register_all();
  const std::uint64_t flooder_index =
      c.harness.node(flooder_slot).group().own_index().value();

  const std::vector<std::string> shard_topic =
      shard_topics(shard::ShardMap(hcfg.node.shards));

  ShardFloodOutcome out;
  out.num_shards = num_shards;
  out.attacked_shard = attacked;
  out.honest_sent_by_shard.assign(num_shards, 0);

  RateLimitFlooder flooder(flooder_slot, config.flood_burst_per_epoch,
                           shard_topic[attacked]);
  AdversaryContext ctx = c.context();
  // Trace rings are harvested at each epoch turn and once more after the
  // drain.
  const bool tracing = hcfg.node.obs.trace.sample_every != 0;
  obs::PropagationAssembler assembler;
  const auto run = [&](net::TimeMs duration, bool attack) {
    c.run_ticks(duration, [&] {
      c.honest_tick(
          [&](std::size_t i) { return shard_topic[i % num_shards]; },
          [&](std::size_t i) { ++out.honest_sent_by_shard[i % num_shards]; });
      if (attack) flooder.on_tick(ctx);
      if (tracing && c.epoch_turned()) c.harvest_traces(assembler);
      return true;
    });
  };
  run(config.warmup_ms, false);
  c.probe.mark_attack_start();
  run(config.attack_ms, true);
  // Drain: let in-flight publishes, validation windows, and the slash
  // commit-reveal settle before judging containment.
  c.harness.run_ms(config.drain_ms);

  out.spam_sent = flooder.spam_sent();
  c.record_slash(flooder_index, out);

  // Per-shard delivery accounting. Honest hosts of shard s (flooder
  // excluded) are the ideal receiver set for that shard's traffic — the
  // publisher's local delivery included.
  out.honest_delivered_by_shard.assign(num_shards, 0);
  out.spam_delivered_by_shard.assign(num_shards, 0);
  out.honest_delivery_by_shard.assign(num_shards, 0.0);
  out.min_non_attacked_delivery = 1.0;
  for (std::uint16_t s = 0; s < num_shards; ++s) {
    std::uint64_t hosts = 0;
    for (std::size_t i = s; i < c.harness.size(); i += num_shards) {
      if (!c.honest(i) || !c.harness.alive(i)) continue;
      ++hosts;
      out.honest_delivered_by_shard[s] +=
          c.probe.node_shard_honest_delivered(i, s);
      out.spam_delivered_by_shard[s] +=
          c.probe.node_shard_spam_delivered(i, s);
    }
    out.honest_delivery_by_shard[s] = fraction(
        out.honest_delivered_by_shard[s], out.honest_sent_by_shard[s] * hosts);
    if (s != attacked) {
      out.min_non_attacked_delivery = std::min(
          out.min_non_attacked_delivery, out.honest_delivery_by_shard[s]);
      out.spam_on_non_attacked_shards += out.spam_delivered_by_shard[s];
    }
  }

  if (tracing) {
    c.harvest_traces(assembler);  // post-drain: traces finished during it
    const obs::PropagationSummary ps = assembler.summary();
    out.propagation_trees = ps.trees;
    out.propagation_complete = ps.complete_trees;
    out.propagation_incomplete = ps.incomplete_trees;
    out.propagation_rejected = ps.rejected_trees;
    out.propagation_adversary = ps.adversary_trees;
    out.complete_tree_fraction = fraction(
        ps.complete_trees, ps.trees - ps.rejected_trees - ps.adversary_trees);
    out.propagation_p95_ms = static_cast<double>(ps.p95_ns) / 1e6;
    out.propagation_redundancy = ps.redundancy_ratio;
    out.propagation_reachability = ps.reachability;
    // Compact rollup only (no per-tree detail): campaign outcomes are
    // committed as bench baselines, where a 256-node trees_detail array
    // would be megabytes of noise.
    out.propagation_json = ps.to_json();
    out.chrome_trace_json = assembler.chrome_trace_json();
  }
  return out;
}

// -- Live reshard campaign ---------------------------------------------------

std::string LiveReshardOutcome::to_json() const {
  return JsonObject()
      .integer("from_shards", from_shards)
      .integer("to_shards", to_shards)
      .boolean("all_nodes_converged", all_nodes_converged)
      .integer("honest_sent", honest_sent)
      .integer("honest_delivered", honest_delivered)
      .integer("honest_ideal", honest_ideal)
      .number("honest_delivery", honest_delivery, "%.4f")
      .integer("spam_pairs_sent", spam_pairs_sent)
      .integer("spam_delivered", spam_delivered)
      .integer("quota_double_deliveries", quota_double_deliveries)
      .boolean("attacker_slashed", attacker_slashed)
      .optional("time_to_slash_ms", time_to_slash_ms)
      .integer("cutover_duration_ms", cutover_duration_ms)
      .number("steady_msgs_per_sec", steady_msgs_per_sec, "%.2f")
      .number("cutover_msgs_per_sec", cutover_msgs_per_sec, "%.2f")
      .number("post_msgs_per_sec", post_msgs_per_sec, "%.2f")
      .number("throughput_dip", throughput_dip, "%.4f")
      .integer("overlap_messages_in_flight", overlap_messages_in_flight)
      .boolean("rebalance_was_recommended", rebalance_was_recommended)
      .str();
}

LiveReshardOutcome run_live_reshard_campaign(const LiveReshardConfig& config) {
  rln::HarnessConfig hcfg = config.harness;
  const std::uint16_t from = hcfg.node.shards.num_shards;
  const std::uint16_t to = config.target_shards;
  WAKU_EXPECTS(from >= 1 && to > from && to % from == 0);
  // Round-robin on BOTH layouts: slot i hosts old shard i mod F and will
  // host new shard i mod T — a refinement pair by construction
  // ((i mod T) mod F == i mod F), which is what lets every node enforce
  // the shared cutover quota for the topics it hosts.
  hcfg.shard_assignment = round_robin(from);
  const shard::ShardMap old_map(hcfg.node.shards);
  const shard::ShardMap new_map =
      old_map.split(static_cast<std::uint16_t>(to / from));
  const std::vector<std::string> topic_old = shard_topics(old_map);
  const std::vector<std::string> topic_new = shard_topics(new_map);

  // The overlap attacker works one topic it hosts under both layouts. It
  // outlives the campaign, whose probe feeds its ledger.
  const bool attack = config.flood_pairs_per_epoch > 0;
  const std::size_t attack_slot = 1;
  CrossGenerationPairAttacker attacker(
      attack_slot, config.flood_pairs_per_epoch,
      topic_homed_on("/waku/2/reshard-attack-", attack_slot, old_map,
                     new_map));
  Campaign c(hcfg, 0x11FE5A4DULL, config.tick_ms,
             config.honest_rate_per_epoch);
  rln::RlnHarness& h = c.harness;
  const std::size_t n = h.size();
  if (attack) c.adversary_slots.insert(attack_slot);
  c.stitch_rings(from);
  c.stitch_rings(to);
  c.probe.set_delivery_observer(
      [&attacker](std::size_t i, std::string_view payload) {
        attacker.observe_delivery(i, payload);
      });
  h.register_all();
  const std::uint64_t attacker_index =
      attack ? h.node(attack_slot).group().own_index().value() : 0;

  LiveReshardOutcome out;
  out.from_shards = from;
  out.to_shards = to;
  AdversaryContext ctx = c.context();
  const auto run = [&](net::TimeMs duration, bool new_topics, bool pairs) {
    c.run_ticks(duration, [&] {
      c.honest_tick(
          [&](std::size_t i) {
            return new_topics ? topic_new[i % to] : topic_old[i % from];
          },
          [&](std::size_t i) {
            out.honest_ideal += new_topics ? c.honest_hosts(to, i % to)
                                           : c.honest_hosts(from, i % from);
          });
      if (pairs) attacker.on_tick(ctx);
      return true;
    });
  };

  // Segment throughput in fully-delivered messages/sec: raw deliveries
  // are fan-out dependent (a T-shard mesh has fewer hosts per message
  // than an F-shard one), so normalize by the segment's ideal receiver
  // count — sent × (delivered/ideal) is "messages that fully arrived".
  struct SegmentMark {
    std::uint64_t sent, ideal, delivered;
  };
  const auto mark = [&] {
    return SegmentMark{c.honest_sent, out.honest_ideal, c.honest_delivered()};
  };
  const auto segment_msgs_per_sec = [](const SegmentMark& a,
                                       const SegmentMark& b,
                                       net::TimeMs duration) {
    const std::uint64_t ideal = b.ideal - a.ideal;
    if (ideal == 0 || duration == 0) return 0.0;
    const double completion =
        static_cast<double>(b.delivered - a.delivered) /
        static_cast<double>(ideal);
    return static_cast<double>(b.sent - a.sent) * completion * 1000.0 /
           static_cast<double>(duration);
  };

  // -- Steady state (throughput baseline + the "reshard now" signal).
  const SegmentMark warmup_start = mark();
  run(config.warmup_ms, false, false);
  const SegmentMark warmup_end = mark();
  out.steady_msgs_per_sec =
      segment_msgs_per_sec(warmup_start, warmup_end, config.warmup_ms);
  {
    // The operator-side signal: feed the fleet's per-shard accepted
    // totals into a load tracker whose per-shard budget the current
    // layout exceeds — exactly the situation that should recommend this
    // campaign's reshard.
    shard::ShardLoadTracker::Config tcfg;
    tcfg.window_ms = config.warmup_ms + 1;
    tcfg.overload_msgs_per_sec =
        std::max(0.001, out.steady_msgs_per_sec / (2.0 * from));
    shard::ShardLoadTracker tracker(tcfg);
    for (std::uint16_t s = 0; s < from; ++s) {
      std::uint64_t accepted = 0;
      std::size_t log_entries = 0;
      for (std::size_t i = s; i < n; i += from) {
        if (!h.alive(i)) continue;
        accepted += h.node(i).validator().pipeline(s).stats().accepted;
        log_entries += h.node(i).validator().pipeline(s).log().entry_count();
      }
      tracker.record(s, 0, log_entries, 0);
      tracker.record(s, accepted, log_entries, config.warmup_ms);
    }
    const shard::RebalanceRecommendation rec =
        tracker.recommend(old_map, topic_old);
    out.rebalance_was_recommended =
        rec.reshard_recommended && rec.target_shards > from;
  }

  // -- Staged cutover, fleet-wide lockstep.
  const net::TimeMs cutover_start = h.sim().now();
  for (std::size_t i = 0; i < n; ++i) {
    h.node(i).begin_reshard(to, {static_cast<shard::ShardId>(i % to)});
  }
  run(config.announce_ms, false, false);
  const auto advance_all = [&] {
    for (std::size_t i = 0; i < n; ++i) h.node(i).advance_reshard();
  };
  advance_all();  // overlap
  c.probe.mark_attack_start();
  const std::uint64_t pre_overlap_delivered = c.honest_delivered();
  run(config.overlap_ms, false, attack);
  out.overlap_messages_in_flight =
      c.honest_delivered() - pre_overlap_delivered;
  advance_all();  // drain
  run(config.drain_phase_ms, true, false);
  advance_all();  // drop-old
  const net::TimeMs cutover_end = h.sim().now();
  out.cutover_duration_ms = cutover_end - cutover_start;
  out.cutover_msgs_per_sec =
      segment_msgs_per_sec(warmup_end, mark(), cutover_end - cutover_start);

  // -- Post-cutover steady state + final quiesce. The first epoch after
  // drop-old is blanked by the conservative quota merge (by design);
  // measure the recovered rate from the epoch after it.
  run(hcfg.node.validator.epoch.epoch_length_ms, true, false);
  const SegmentMark settle_start = mark();
  run(config.settle_ms, true, false);
  out.post_msgs_per_sec =
      segment_msgs_per_sec(settle_start, mark(), config.settle_ms);
  h.run_ms(config.quiesce_ms);

  out.throughput_dip =
      out.steady_msgs_per_sec > 0
          ? std::max(0.0, 1.0 - out.cutover_msgs_per_sec /
                                    out.steady_msgs_per_sec)
          : 0.0;
  out.honest_sent = c.honest_sent;
  out.honest_delivered = c.honest_delivered();
  out.honest_delivery = fraction(out.honest_delivered, out.honest_ideal);
  out.spam_pairs_sent = attacker.pairs_sent();
  out.spam_delivered = c.spam_delivered();
  out.quota_double_deliveries = attacker.quota_double_deliveries();
  out.all_nodes_converged = c.all_converged(to, old_map.generation() + 1);
  if (attack) c.record_slash(attacker_index, out);
  return out;
}

// -- Operator hotspot campaign ------------------------------------------------

std::string OperatorHotspotConfig::to_json() const {
  return JsonObject()
      .integer("nodes", harness.num_nodes)
      .integer("target_shards", target_shards)
      .integer("max_epochs", max_epochs)
      .number("honest_rate_per_epoch", honest_rate_per_epoch, "%.2f")
      .integer("flood_pairs_per_epoch", flood_pairs_per_epoch)
      .number("overload_msgs_per_sec", overload_msgs_per_sec, "%.2f")
      .integer("cooldown_epochs", cooldown_epochs)
      .integer("trip_epochs", trip_epochs)
      .integer("phase_dwell_epochs", phase_dwell_epochs)
      .integer("seed", harness.seed)
      .str();
}

std::string OperatorHotspotOutcome::to_json() const {
  return JsonObject()
      .integer("from_shards", from_shards)
      .integer("to_shards", to_shards)
      .boolean("operator_triggered", operator_triggered)
      .integer("trigger_epoch", trigger_epoch)
      .boolean("converged", converged)
      .integer("converged_epoch", converged_epoch)
      .integer("epochs_to_converge", epochs_to_converge)
      .integer("operator_decisions", operator_decisions)
      .integer("honest_sent", honest_sent)
      .integer("honest_delivered", honest_delivered)
      .integer("honest_ideal", honest_ideal)
      .number("honest_delivery", honest_delivery, "%.4f")
      .integer("spam_pairs_sent", spam_pairs_sent)
      .integer("spam_delivered", spam_delivered)
      .integer("quota_double_deliveries", quota_double_deliveries)
      .boolean("attacker_slashed", attacker_slashed)
      .optional("time_to_slash_ms", time_to_slash_ms)
      .integer("anomalies_fired", anomalies_fired)
      .raw("fleet_timeline", fleet_timeline_json, "[]")
      .raw("postmortem", postmortem_json, "null")
      .str();
}

OperatorHotspotOutcome run_operator_hotspot_campaign(
    const OperatorHotspotConfig& config) {
  rln::HarnessConfig hcfg = config.harness;
  const std::uint16_t from = hcfg.node.shards.num_shards;
  const std::uint16_t to = config.target_shards;
  WAKU_EXPECTS(from >= 1 && to > from && to % from == 0);
  hcfg.shard_assignment = round_robin(from);
  // The loop under test: every node watches its OWN tracker + anomaly
  // engine in upkeep and acts alone — the campaign never calls
  // begin_reshard/advance_reshard.
  hcfg.node.operator_loop.enabled = true;
  hcfg.node.operator_loop.cooldown_epochs = config.cooldown_epochs;
  hcfg.node.operator_loop.trip_epochs = config.trip_epochs;
  hcfg.node.operator_loop.phase_dwell_epochs = config.phase_dwell_epochs;
  hcfg.node.load_tracker.overload_msgs_per_sec = config.overload_msgs_per_sec;

  const shard::ShardMap old_map(hcfg.node.shards);
  const std::uint32_t gen0 = old_map.generation();
  const shard::ShardMap new_map =
      old_map.split(static_cast<std::uint16_t>(to / from));
  // Pre-picked per-slot topics: slot i's topic is homed on old shard
  // i mod F and new shard i mod T, so it stays publishable by the same
  // node through the whole cutover — only its mesh moves.
  const std::size_t n = hcfg.num_nodes;
  std::vector<std::string> topic_for(n);
  for (std::size_t i = 0; i < n; ++i) {
    topic_for[i] = topic_homed_on(
        "/waku/2/hotspot-" + std::to_string(i) + "-", i, old_map, new_map);
  }

  // The overlap attacker sends on its own topic, but ONLY while its own
  // node is in the dual-generation window (overlap/drain) — which it
  // reaches when ITS operator loop fires, not on any campaign schedule.
  // Slash latency runs from its first pair. It outlives the campaign,
  // whose probe feeds its ledger.
  const bool attack = config.flood_pairs_per_epoch > 0;
  const std::size_t attack_slot = 1;
  CrossGenerationPairAttacker attacker(
      attack_slot, config.flood_pairs_per_epoch, topic_for[attack_slot]);

  // Per-slot chooser: spread the new-generation family round-robin (slot
  // i hosts new shard i mod target). Installed via the probe's node hook
  // so a restarted node re-learns it before its operator resumes.
  Campaign c(hcfg, 0x0B5E7A70ULL, config.tick_ms, config.honest_rate_per_epoch,
             [](std::size_t i, rln::WakuRlnRelayNode& node) {
               node.set_operator_subscribe_chooser([i](std::uint16_t target) {
                 return round_robin(target)(i);
               });
             });
  rln::RlnHarness& h = c.harness;
  if (attack) c.adversary_slots.insert(attack_slot);
  c.stitch_rings(from);
  c.stitch_rings(to);
  c.probe.set_delivery_observer(
      [&attacker](std::size_t i, std::string_view payload) {
        attacker.observe_delivery(i, payload);
      });
  h.register_all();
  const std::uint64_t attacker_index =
      attack ? h.node(attack_slot).group().own_index().value() : 0;
  AdversaryContext ctx = c.context();
  const auto attacker_tick = [&] {
    if (!attack || !h.alive(attack_slot)) return;
    const shard::ReshardPhase phase = h.node(attack_slot).shards().phase();
    if (phase != shard::ReshardPhase::kOverlap &&
        phase != shard::ReshardPhase::kDrain) {
      return;
    }
    attacker.on_tick(ctx);
    if (attacker.pairs_sent() > 0 && !c.probe.attack_start_ms()) {
      c.probe.mark_attack_start();
    }
  };

  OperatorHotspotOutcome out;
  out.from_shards = from;

  // Fleet plane: scrape every honest node's health each epoch; a
  // fleet-side anomaly engine watches the rows the same way an operator
  // dashboard would.
  obs::FleetAggregator fleet;
  obs::AnomalyEngine fleet_anomaly;
  const auto scrape = [&](std::uint64_t epoch) {
    bool first_honest = true;
    for (std::size_t i = 0; i < n; ++i) {
      if (!c.honest(i) || !h.alive(i)) continue;
      obs::NodeHealthSample s = h.node(i).health_sample();
      s.epoch = epoch;
      s.honest_delivered = c.probe.node_honest_delivered(i);
      s.spam_delivered = c.probe.node_spam_delivered(i);
      if (first_honest) {
        // Campaign-wide totals ride on one sample so the aggregator's
        // sums reproduce the outcome ratios. spam_delivered is summed
        // per RECEIVER, so the sent side carries the same weight: both
        // halves of every pair, fanned out to every honest node.
        s.honest_ideal = out.honest_ideal;
        s.spam_sent = attacker.spam_sent() * static_cast<std::uint64_t>(n - 1);
        first_honest = false;
      }
      fleet.ingest(std::move(s));
    }
    if (const obs::FleetEpochSeries* row = fleet.close_epoch(epoch)) {
      (void)fleet_anomaly.evaluate(*row);
    }
  };

  // Tick until every node converged, within the epoch budget.
  const auto tick = [&] {
    c.honest_tick(
        [&](std::size_t i) { return topic_for[i]; },
        [&](std::size_t i) {
          // The ideal receiver set follows the PUBLISHER's routing: old
          // mesh (every host of old home) until this node's drain, new
          // mesh (the new home's hosts) from drain on.
          rln::WakuRlnRelayNode& node = h.node(i);
          const bool new_routing =
              node.shards().map().generation() != gen0 ||
              node.shards().phase() == shard::ReshardPhase::kDrain;
          out.honest_ideal += new_routing ? c.honest_hosts(to, i % to)
                                          : c.honest_hosts(from, i % from);
        });
    attacker_tick();
    if (!c.epoch_turned()) return true;
    const std::uint64_t epoch = c.epoch_now();
    scrape(epoch);
    if (!out.operator_triggered) {
      std::uint64_t earliest = ~std::uint64_t{0};
      for (std::size_t i = 0; i < n; ++i) {
        if (!h.alive(i)) continue;
        const auto& loop = h.node(i).operator_loop().bookkeeping();
        if (loop.decisions == 0) continue;
        earliest = std::min(earliest, loop.last_action_epoch);
      }
      if (earliest != ~std::uint64_t{0}) {
        out.operator_triggered = true;
        out.trigger_epoch = earliest;
      }
    }
    if (!c.all_converged(to, gen0 + 1)) return true;
    out.converged = true;
    out.converged_epoch = epoch;
    return false;
  };
  // The budget is rounded up to whole ticks: every tick runs in full.
  const net::TimeMs budget =
      config.max_epochs * hcfg.node.validator.epoch.epoch_length_ms;
  c.run_ticks((budget + config.tick_ms - 1) / config.tick_ms * config.tick_ms,
              tick);

  // Quiesce: in-flight traffic + the attacker's slash commit-reveal.
  h.run_ms(config.quiesce_ms);
  if (c.epoch_turned()) scrape(c.epoch_now());

  out.to_shards = h.node(0).shards().map().num_shards();
  out.epochs_to_converge =
      out.converged ? out.converged_epoch - out.trigger_epoch : 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!h.alive(i)) continue;
    out.operator_decisions += h.node(i).operator_loop().bookkeeping().decisions;
  }
  out.honest_sent = c.honest_sent;
  out.honest_delivered = c.honest_delivered();
  out.honest_delivery = fraction(out.honest_delivered, out.honest_ideal);
  out.spam_pairs_sent = attacker.pairs_sent();
  out.spam_delivered = c.spam_delivered();
  out.quota_double_deliveries = attacker.quota_double_deliveries();
  if (attack) c.record_slash(attacker_index, out);
  out.anomalies_fired = fleet_anomaly.fired_total();
  out.fleet_timeline_json = fleet.timeline_json();
  out.postmortem_json =
      h.node(0).telemetry().flight_recorder().postmortem_json(
          "operator-hotspot-campaign");
  return out;
}

}  // namespace waku::sim

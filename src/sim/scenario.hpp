// Declarative adversarial scenarios: a Scenario composes timed phases
// (warmup / attack / recovery) over an RlnHarness deployment. Each phase
// runs a Poisson honest-traffic generator over the non-adversarial nodes
// and ticks the attached Adversary strategies; a HarnessProbe classifies
// every delivery and timestamps every slash; run() returns a Report with
// the containment verdict and the deployment's summed node counters.
//
// Everything is deterministic from ScenarioConfig::harness.seed — the same
// config replays the same campaign event-for-event.
#pragma once

#include "obs/fleet.hpp"
#include "sim/campaign.hpp"
#include "sim/report.hpp"

namespace waku::sim {

struct ScenarioConfig {
  std::string name = "scenario";
  rln::HarnessConfig harness;
  /// Generator/adversary cadence. One tick = run_ms(tick_ms), then honest
  /// publishes, then adversary on_tick()s.
  net::TimeMs tick_ms = 1'000;
  /// Poisson intensity: expected honest publishes per honest node per
  /// epoch (the node's own 1-per-epoch limit caps the realized rate).
  double honest_rate_per_epoch = 0.8;
  /// Honest senders per phase: every honest node publishes when 0;
  /// otherwise only the first N honest slots generate traffic (large
  /// deployments sample senders to keep proof generation tractable).
  std::size_t honest_publishers = 0;
  /// Post-phase drain so in-flight traffic settles before the verdict.
  net::TimeMs drain_ms = 6'000;
};

struct PhaseSpec {
  std::string name;  ///< warmup / attack / recovery (free-form)
  net::TimeMs duration_ms = 10'000;
  bool honest_traffic = true;
  /// Borrowed; must outlive the Scenario. Ticked while this phase runs.
  std::vector<Adversary*> adversaries;
};

class Scenario {
 public:
  explicit Scenario(ScenarioConfig config);

  Scenario& add_phase(PhaseSpec phase);

  /// Registers all members (first call), runs every phase plus the drain,
  /// and computes the verdict. Callable once.
  Report run();

  [[nodiscard]] rln::RlnHarness& harness() { return campaign_.harness; }

 private:
  void run_phase(const PhaseSpec& phase);
  void scrape_fleet(std::uint64_t epoch);

  ScenarioConfig config_;
  /// Deployment, probe and the honest-traffic generator.
  Campaign campaign_;
  /// Per-epoch cross-node health rows — the fleet-health timeline that
  /// rides in the verdict JSON (see ScenarioVerdict::fleet_timeline_json).
  obs::FleetAggregator fleet_;
  /// Cross-node propagation assembler: per-epoch trace-ring harvest while
  /// tracing is enabled (harness.node.obs.trace.sample_every != 0).
  /// Ingestion is idempotent, so rings collected every epoch survive
  /// later kills/restarts of their node.
  obs::PropagationAssembler propagation_;
  std::vector<PhaseSpec> phases_;
  std::vector<Adversary*> all_adversaries_;
  bool ran_ = false;
};

// -- Eclipse campaign --------------------------------------------------------
// The light-client eclipse does not fit the node-tick shape: the attack is
// topological (a bootstrap victim parked behind lossy links, with an
// attacker-run service replaying a stale checkpoint), so it gets its own
// declarative runner.

struct EclipseConfig {
  rln::HarnessConfig harness;
  /// Loss rate applied (via per-link overrides) to the victim's links
  /// toward honest services during the eclipse.
  double eclipse_loss = 1.0;
  /// Memberships registered after the attacker captured its checkpoint —
  /// the staleness the victim must detect.
  std::uint64_t churn_members = 6;
  /// Freshness tolerance handed to the victim (see
  /// RlnLightClient::set_max_bootstrap_lag).
  std::uint64_t max_bootstrap_lag = 2;
};

struct EclipseOutcome {
  std::uint64_t stale_served = 0;       ///< attacker responses delivered
  std::uint64_t stale_rejections = 0;   ///< victim-side staleness rejects
  bool victim_detected_stale = false;   ///< refused the eclipse checkpoint
  bool honest_bootstrap_after = false;  ///< recovered once links healed
};

/// Runs the full eclipse campaign: capture → churn → eclipse bootstrap
/// (must be detected) → heal links → honest bootstrap (must succeed).
EclipseOutcome run_eclipse_campaign(const EclipseConfig& config);

// -- Shard-targeted flood campaign -------------------------------------------
// The scale-out containment claim of the sharded relay: a rate-limit flood
// aimed at ONE shard must stay confined there — honest delivery on every
// other shard is untouched, the flooder is slashed by the attacked shard's
// validators, and no spam crosses shard meshes. Nodes are partitioned
// round-robin over the shards (slot i hosts shard i mod S), honest slots
// publish on their home shard's content topics, and the flooder bursts on
// the attacked shard.

struct ShardFloodConfig {
  /// Deployment template; node.shards.num_shards picks the shard count
  /// (the runner installs the round-robin shard assignment itself).
  rln::HarnessConfig harness;
  shard::ShardId attacked_shard = 0;
  std::uint64_t flood_burst_per_epoch = 6;
  net::TimeMs tick_ms = 1'000;
  net::TimeMs warmup_ms = 10'000;
  net::TimeMs attack_ms = 30'000;
  net::TimeMs drain_ms = 6'000;
  /// Poisson intensity per honest node per epoch (the per-shard quota
  /// caps the realized rate).
  double honest_rate_per_epoch = 0.8;
};

struct ShardFloodOutcome {
  std::uint16_t num_shards = 0;
  shard::ShardId attacked_shard = 0;
  std::uint64_t spam_sent = 0;
  bool attacker_slashed = false;
  std::optional<std::uint64_t> time_to_slash_ms;
  std::vector<std::uint64_t> honest_sent_by_shard;
  std::vector<std::uint64_t> honest_delivered_by_shard;  ///< at honest nodes
  std::vector<double> honest_delivery_by_shard;  ///< vs ideal full delivery
  std::vector<std::uint64_t> spam_delivered_by_shard;  ///< at honest nodes
  /// Worst honest delivery ratio across shards other than the attacked
  /// one — the containment number (1.0 = the flood cost nothing there).
  double min_non_attacked_delivery = 0;
  /// Spam deliveries observed on any non-attacked shard (must be 0: shard
  /// meshes are disjoint).
  std::uint64_t spam_on_non_attacked_shards = 0;

  /// Cross-node propagation rollup, assembled from every node's trace
  /// rings each epoch. Populated only when the harness config enables
  /// tracing (node.obs.trace.sample_every != 0); zeros/"{}" otherwise.
  std::size_t propagation_trees = 0;
  std::size_t propagation_complete = 0;
  std::size_t propagation_incomplete = 0;
  std::size_t propagation_rejected = 0;
  /// Trees anchored at the flooder (within-quota spam accepted
  /// fleet-wide plus rootless attack fragments) — forensics material.
  std::size_t propagation_adversary = 0;
  /// complete / (trees - rejected - adversary): the honest-tree
  /// reconstruction rate the acceptance gate judges (1.0 when nothing
  /// was sampled).
  double complete_tree_fraction = 1.0;
  double propagation_p95_ms = 0.0;  ///< publish -> last delivery, virtual
  double propagation_redundancy = 0.0;
  double propagation_reachability = 1.0;
  /// obs::PropagationSummary::to_json() — compact rollup without the
  /// per-tree detail array ("{}" without tracing).
  std::string propagation_json = "{}";
  /// Chrome trace-event export for chrome://tracing / Perfetto.
  std::string chrome_trace_json = "{}";

  [[nodiscard]] std::string to_json() const;
};

ShardFloodOutcome run_shard_flood_campaign(const ShardFloodConfig& config);

// -- Live reshard campaign ---------------------------------------------------
// The generation-cutover claim of the live reshard engine: a fleet can
// move from F to T shards under sustained honest load with (a) no honest
// message loss beyond gossip noise, (b) ZERO quota doubling through the
// overlap window — an attacker publishing same-epoch pairs (one on the
// old-generation mesh, one on the new) gets them folded into one signal
// by the shared domain log and is slashed — and (c) a bounded throughput
// dip. Nodes are partitioned round-robin on both layouts (slot i hosts
// old shard i mod F and new shard i mod T; T a multiple of F, so the new
// home refines the old one per ShardMap::split), honest slots publish on
// their home shard's topics, and every node steps through
// announce/overlap/drain/drop-old in driver-timed lockstep while the
// flooder attacks the overlap.

struct LiveReshardConfig {
  /// Deployment template; node.shards.num_shards is the FROM shard count
  /// (the runner installs the round-robin assignment itself).
  rln::HarnessConfig harness;
  std::uint16_t target_shards = 8;
  net::TimeMs tick_ms = 1'000;
  /// Pre-reshard steady state (throughput baseline).
  net::TimeMs warmup_ms = 12'000;
  net::TimeMs announce_ms = 4'000;
  /// Dual-subscribe window; the flooder attacks it.
  net::TimeMs overlap_ms = 16'000;
  /// New generation authoritative, old meshes still draining.
  net::TimeMs drain_phase_ms = 8'000;
  /// Post-drop-old steady state (throughput recovery).
  net::TimeMs settle_ms = 12'000;
  /// Final quiesce before the verdict (in-flight traffic + slash txs).
  net::TimeMs quiesce_ms = 8'000;
  double honest_rate_per_epoch = 0.8;
  /// Old/new same-epoch publish pairs per epoch from the overlap
  /// attacker (0 disables the attack).
  std::uint64_t flood_pairs_per_epoch = 2;
};

struct LiveReshardOutcome {
  std::uint16_t from_shards = 0;
  std::uint16_t to_shards = 0;
  bool all_nodes_converged = false;  ///< every node on (to_shards, gen+1)

  std::uint64_t honest_sent = 0;
  std::uint64_t honest_delivered = 0;  ///< at honest nodes, local included
  std::uint64_t honest_ideal = 0;      ///< sent × hosts of the target mesh
  double honest_delivery = 1.0;        ///< delivered / ideal

  std::uint64_t spam_pairs_sent = 0;
  std::uint64_t spam_delivered = 0;
  /// (node, epoch) pairs where BOTH halves of an attacker pair were
  /// delivered — each one is a doubled quota; the engine's invariant is
  /// that this stays 0.
  std::uint64_t quota_double_deliveries = 0;
  bool attacker_slashed = false;
  std::optional<std::uint64_t> time_to_slash_ms;

  net::TimeMs cutover_duration_ms = 0;  ///< begin_reshard -> drop-old done
  double steady_msgs_per_sec = 0;   ///< honest deliveries/sec pre-reshard
  double cutover_msgs_per_sec = 0;  ///< during announce+overlap+drain
  double post_msgs_per_sec = 0;     ///< after drop-old
  double throughput_dip = 0;        ///< 1 - cutover/steady (0 = no dip)
  /// Honest deliveries that happened inside the overlap window — the
  /// traffic in flight while both generations were live.
  std::uint64_t overlap_messages_in_flight = 0;
  /// The load tracker's verdict sampled on the pre-reshard deployment
  /// (did the signal that should trigger this reshard actually fire?).
  bool rebalance_was_recommended = false;

  [[nodiscard]] std::string to_json() const;
};

LiveReshardOutcome run_live_reshard_campaign(const LiveReshardConfig& config);

// -- Operator hotspot campaign -----------------------------------------------
// The autonomous-operator claim: under a sustained single-shard hotspot,
// every node's own operator loop (ShardLoadTracker::recommend +
// AnomalyEngine pressure, consumed in upkeep) triggers begin_reshard and
// walks the staged cutover to completion WITHOUT any driver lockstep —
// the campaign only generates traffic and watches. Honest slot i
// publishes on a pre-picked topic homed on new shard i mod T, the
// optional overlap attacker (slot 1) sends cross-generation same-epoch
// pairs while its own node is in overlap/drain, and a fleet aggregator
// scrapes every node's health each epoch into the timeline the verdict
// carries.

struct OperatorHotspotConfig {
  /// Deployment template; node.shards.num_shards is the FROM count
  /// (typically 1 — the hotspot). The runner installs the round-robin
  /// assignment, enables the operator loop on every node, and gives slot
  /// i the subscribe chooser {i mod target}.
  rln::HarnessConfig harness;
  std::uint16_t target_shards = 2;
  net::TimeMs tick_ms = 1'000;
  /// Epoch budget for the whole trigger + cutover; the campaign stops
  /// early once every node converged.
  std::uint64_t max_epochs = 30;
  /// Post-convergence quiesce (in-flight traffic + the slash tx).
  net::TimeMs quiesce_ms = 10'000;
  double honest_rate_per_epoch = 0.8;
  /// Cross-generation same-epoch pairs per epoch from the overlap
  /// attacker (0 disables the attack).
  std::uint64_t flood_pairs_per_epoch = 2;
  /// Operator tuning installed on every node. The overload budget must
  /// sit inside (realized_rate / split_factor, realized_rate) so the
  /// tracker both trips AND sizes the split to `target_shards`.
  double overload_msgs_per_sec = 1.8;
  std::uint64_t cooldown_epochs = 1'000;  ///< one action per campaign
  std::size_t trip_epochs = 2;
  std::uint64_t phase_dwell_epochs = 2;

  [[nodiscard]] std::string to_json() const;
};

struct OperatorHotspotOutcome {
  std::uint16_t from_shards = 0;
  std::uint16_t to_shards = 0;  ///< target the operators actually chose

  bool operator_triggered = false;
  std::uint64_t trigger_epoch = 0;  ///< earliest begin decision, fleet-wide
  bool converged = false;  ///< every node on (target, gen+1, kStable)
  std::uint64_t converged_epoch = 0;
  std::uint64_t epochs_to_converge = 0;  ///< trigger -> converged
  /// Sum of operator decisions across the fleet (begin + advances); with
  /// one clean cutover this is exactly 4 x nodes.
  std::uint64_t operator_decisions = 0;

  std::uint64_t honest_sent = 0;
  std::uint64_t honest_delivered = 0;
  std::uint64_t honest_ideal = 0;
  double honest_delivery = 1.0;

  std::uint64_t spam_pairs_sent = 0;
  std::uint64_t spam_delivered = 0;
  std::uint64_t quota_double_deliveries = 0;
  bool attacker_slashed = false;
  std::optional<std::uint64_t> time_to_slash_ms;

  /// Fleet-side anomaly fire transitions over the campaign (the p95 and
  /// delivery rules; 0 on a healthy run).
  std::uint64_t anomalies_fired = 0;
  /// Per-epoch fleet rows (FleetAggregator::timeline_json).
  std::string fleet_timeline_json = "[]";
  /// Node 0's flight-recorder dump at campaign end — operator decisions,
  /// reshard transitions, slashes, in order.
  std::string postmortem_json;

  [[nodiscard]] std::string to_json() const;
};

OperatorHotspotOutcome run_operator_hotspot_campaign(
    const OperatorHotspotConfig& config);

}  // namespace waku::sim

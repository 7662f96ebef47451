// The parts every campaign runs on — Scenario's phase loop and the
// shard-flood, live-reshard and operator-hotspot runners: one deployment
// with its HarnessProbe and a seeded honest-traffic generator, the
// fixed-cadence tick loop, the round-robin shard layout with intra-shard
// ring stitching, trace harvest, and the verdict helpers (honest hosts,
// convergence, first slash).
//
// Every runner keys its traffic generator with its own salt and draws one
// chance() per eligible slot per tick in slot order, so each campaign
// replays event-for-event from its harness seed.
#pragma once

#include <algorithm>
#include <set>

#include "obs/propagation.hpp"
#include "sim/adversary.hpp"

namespace waku::sim {

/// Round-robin shard layout: slot i hosts exactly shard i mod `shards`.
std::function<std::vector<shard::ShardId>(std::size_t)> round_robin(
    std::uint16_t shards);

/// content_topic_for_shard(map, s) for every shard s of `map`.
std::vector<std::string> shard_topics(const shard::ShardMap& map);

/// The first "<prefix><k>/proto" (k = 0, 1, ...) homed on slot `slot`'s
/// round-robin shard under BOTH layouts (old shard slot mod F, new shard
/// slot mod T) — publishable by that node through a whole cutover.
std::string topic_homed_on(const std::string& prefix, std::size_t slot,
                           const shard::ShardMap& old_map,
                           const shard::ShardMap& new_map);

class Campaign {
 public:
  /// `rng_salt` is XORed into the harness seed to key the traffic
  /// generator; `node_hook` runs inside the probe's node hook.
  Campaign(const rln::HarnessConfig& config, std::uint64_t rng_salt,
           net::TimeMs tick_ms, double honest_rate_per_epoch,
           rln::RlnHarness::NodeHook node_hook = nullptr);

  rln::RlnHarness harness;
  HarnessProbe probe;
  Rng rng;
  /// Excluded from honest traffic, honest hosts and delivery sums.
  std::set<std::size_t> adversary_slots;
  std::uint64_t honest_sent = 0;

  [[nodiscard]] AdversaryContext context() {
    return {harness, rng, tick_ms_};
  }
  [[nodiscard]] bool honest(std::size_t i) const {
    return !adversary_slots.contains(i);
  }
  [[nodiscard]] std::uint64_t epoch_now();
  /// True on the first call in each new epoch.
  bool epoch_turned();

  /// The random degree-k graph does not know about shards, and gossipsub
  /// meshes only form between neighbors on the same topic: connect each
  /// round-robin host group of `groups` into a ring (plus one chord to
  /// its midpoint when `chord`) for intra-shard connectivity at any
  /// shard count. connect() is idempotent.
  void stitch_rings(std::uint16_t groups, bool chord = false);

  /// Advances `duration` in tick_ms steps (the last one clipped), calling
  /// on_tick() after each step; stops early once it returns false.
  template <typename OnTick>
  void run_ticks(net::TimeMs duration, OnTick on_tick) {
    const net::TimeMs end = harness.sim().now() + duration;
    while (harness.sim().now() < end) {
      harness.run_ms(std::min(tick_ms_, end - harness.sim().now()));
      if (!on_tick()) return;
    }
  }

  /// One Poisson honest-traffic round: each live honest slot (only the
  /// first `max_publishers` of them when non-zero) publishes on
  /// topic_of(i) with probability honest_rate * tick / epoch, one draw
  /// per slot in slot order; on_sent(i) follows each accepted publish.
  void honest_tick(const std::function<std::string(std::size_t)>& topic_of,
                   const std::function<void(std::size_t)>& on_sent = nullptr,
                   std::size_t max_publishers = 0);

  /// Honest hosts of round-robin group `s` of `groups` — the ideal
  /// receiver set of a message published there.
  [[nodiscard]] std::uint64_t honest_hosts(std::uint16_t groups,
                                           shard::ShardId s) const;
  /// Deliveries at honest nodes, publisher's local delivery included.
  [[nodiscard]] std::uint64_t honest_delivered() const;
  [[nodiscard]] std::uint64_t spam_delivered() const;

  /// Ingests every live node's trace and flight rings (idempotent, so a
  /// ring re-collected later only enriches its trees), anchors adversary
  /// slots' trees as attack evidence — their publishes bypass the traced
  /// path — and sets reachability denominators from the CURRENT
  /// subscriptions, so a kill shrinks the ideal receiver set with it.
  void harvest_traces(obs::PropagationAssembler& assembler);

  /// Every live node on (`shards`, `generation`) and out of any cutover.
  [[nodiscard]] bool all_converged(std::uint16_t shards,
                                   std::uint32_t generation);

  /// Fills out.attacker_slashed / out.time_to_slash_ms from the first
  /// MemberSlashed of member `index` (latency from the probe's attack
  /// start, when marked).
  template <typename Outcome>
  void record_slash(std::uint64_t index, Outcome& out) const {
    for (const HarnessProbe::SlashEvent& slash : probe.slashes()) {
      if (slash.index != index) continue;
      out.attacker_slashed = true;
      if (const auto start = probe.attack_start_ms()) {
        out.time_to_slash_ms = slash.at_ms - *start;
      }
      return;
    }
  }

 private:
  net::TimeMs tick_ms_;
  double per_tick_p_;
  std::uint64_t last_epoch_ = ~std::uint64_t{0};
};

}  // namespace waku::sim

// WakuRlnRelayNode: a complete WAKU-RLN-RELAY peer (paper §III).
//
// Composition per the paper's architecture:
//   * WAKU-RELAY transport (gossipsub meshes) for messages — one mesh per
//     subscribed relay shard (src/shard): content topics map
//     deterministically onto shard-qualified pubsub topics;
//   * membership via the on-chain contract (registration, §III-B);
//   * local identity-commitment tree synced from contract events (§III-C),
//     shared across shards — membership is global;
//   * epoch-based external nullifier (§III-D);
//   * proof-bundle generation on publish (§III-E);
//   * routing-time validation, nullifier log, and slashing with
//     commit-reveal on double-signals (§III-F) — enforced PER SHARD: each
//     subscribed shard runs its own staged ValidationPipeline (own
//     nullifier log, own rolling root cache, own batch windows), so the
//     rate-limit domain is (member, epoch, shard) and a flood on one
//     shard cannot delay validation on another;
//   * optional durable state (src/persist): WAL + snapshots so a restart
//     restores the tree, root window, per-shard nullifier logs (WAL
//     records are shard-tagged), rate-limit state, and in-flight
//     commit-reveal slashes, then resumes the contract event stream from a
//     replay cursor instead of genesis.
//
// The node is a composition of five owned parts: NodeJournal
// (node_journal.hpp: the WalTag schema, the StateStore, the
// observation-record codec), NodeShards (node_shards.hpp: the shard
// generations, i.e. the per-shard validators, the live-reshard cutover,
// the load tracker and the honest quota, reached through shards()),
// SlashingEngine (slashing.hpp: commit–reveal), OperatorLoop
// (operator_loop.hpp: the autonomous reshard operator's decide step) and
// NodeTelemetry (node_telemetry.hpp: metric registry, traces, flight
// recorder, self-monitor and exposition, reached through telemetry()).
// NodeShards, SlashingEngine and OperatorLoop hold durable state, WAL
// records and a snapshot section; the node wires the parts to the relay
// and the chain and applies their decisions.
//
// Attacker hooks (force_publish / publish_with_invalid_proof) exist so the
// spam experiments can drive misbehaving-but-registered peers through the
// exact same code paths.
#pragma once

#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "chain/blockchain.hpp"
#include "chain/rln_contract.hpp"
#include "obs/config.hpp"
#include "persist/state_store.hpp"
#include "rln/checkpoint.hpp"
#include "rln/group_manager.hpp"
#include "rln/identity.hpp"
#include "rln/node_journal.hpp"
#include "rln/node_shards.hpp"
#include "rln/node_telemetry.hpp"
#include "rln/operator_loop.hpp"
#include "rln/slashing.hpp"
#include "rln/validation_pipeline.hpp"
#include "waku/relay.hpp"

namespace waku::rln {

/// Default content topic of honest publishes.
inline const std::string kDefaultContentTopic =
    "/waku/2/default-content/proto";

struct NodeConfig {
  std::size_t tree_depth = 20;
  /// The group follows the contract one block at a time, so its root
  /// window (GroupManager::kDefaultRootWindow = W) spans the last W blocks
  /// that changed the tree, not the last W events.
  TreeMode tree_mode = TreeMode::kFullTree;
  ValidatorConfig validator;
  chain::Address account;      ///< chain account paying gas/deposit
  gossipsub::GossipSubConfig gossip;
  gossipsub::PeerScoreConfig score;

  /// Relay sharding layout plus this node's subscription subset. The
  /// default (1 shard, subscribe-all) reproduces the paper's single
  /// global mesh and rate-limit domain exactly.
  shard::ShardConfig shards;

  /// Durable-state directory; empty keeps the node fully ephemeral (the
  /// pre-persistence behaviour). With a directory set, the node opens a
  /// persist::StateStore there, restores on construction, and journals /
  /// snapshots during operation.
  std::string persist_dir;
  /// Non-empty: the identity secret key rides in snapshots sealed under
  /// this password with the ChaCha20-Poly1305 keystore (rln/keystore.hpp)
  /// instead of plaintext. Restore fails closed: a wrong password or a
  /// tampered blob aborts node construction rather than booting with a
  /// guessed identity.
  std::string keystore_password;
  /// Compaction sized for million-leaf groups: besides the record-count
  /// policy, compact whenever the WAL outgrows 64 MiB. A 1M-leaf full
  /// tree snapshots at ~67 MB, and batched registration events make WAL
  /// records arbitrarily large — a byte cap keeps restart replay bounded
  /// by roughly one snapshot's worth of bytes no matter the event mix.
  persist::StateStoreConfig persist{.snapshot_every_bytes = 64ull << 20};
  /// A journaled commit-reveal slash whose reveal never lands (lost tx,
  /// front-run loss, withdraw race) is dropped after this many epochs so
  /// the index can be re-slashed.
  std::uint64_t slash_expiry_epochs = 16;

  /// In-node telemetry (src/obs): stage-latency histograms, sampled
  /// message-lifecycle spans, Prometheus/JSON exposition. The default
  /// clock is the node's own virtual time (net::Network::local_time), so
  /// enabling telemetry never perturbs deterministic runs.
  obs::ObsConfig obs;

  /// Load-tracker thresholds feeding recommend(); defaults match the
  /// historical default-constructed tracker.
  shard::ShardLoadTracker::Config load_tracker;

  /// The autonomous reshard operator (off by default — existing
  /// deployments keep driving begin/advance_reshard themselves).
  OperatorConfig operator_loop;
};

class WakuRlnRelayNode {
 public:
  enum class PublishStatus {
    kOk,
    kNotRegistered,
    kRateLimited,
    kShardNotSubscribed,  ///< content topic maps to a shard we don't host
  };

  using MessageHandler = std::function<void(const WakuMessage&)>;

  WakuRlnRelayNode(net::Network& network, chain::Blockchain& chain,
                   chain::Address contract, NodeConfig config,
                   std::uint64_t seed);

  /// Installs the per-shard validators, subscribes to every subscribed
  /// shard's pubsub topic and the chain event feed (resuming from the
  /// persisted replay cursor when durable state was restored), and starts
  /// gossip heartbeats. Call once.
  void start();

  /// Graceful detach: cancels scheduled work, drops the chain
  /// subscription, and removes the node from the network. Durable state
  /// is NOT flushed beyond what the WAL already holds — by design, so the
  /// crash-restart suite exercises the same path a kill -9 would.
  void shutdown();

  /// Submits the registration transaction (pk + deposit, §III-B). The
  /// membership becomes usable once the block is mined and the
  /// MemberRegistered event round-trips (the §IV-A registration delay).
  void register_membership();
  [[nodiscard]] bool is_registered() const {
    return group_.own_index().has_value();
  }

  /// Honest publish: refuses to exceed one message per epoch per shard
  /// (§III-E; the shard is derived from the content topic).
  PublishStatus try_publish(Bytes payload,
                            const std::string& content_topic =
                                kDefaultContentTopic);

  /// Spammer publish: generates a *valid* proof but ignores the local rate
  /// limit — the double-signaling attack the scheme exists to punish.
  /// Attackers route like everyone else (authoritative generation first)
  /// but ignore hosting.
  PublishStatus force_publish(
      Bytes payload, const std::string& content_topic = kDefaultContentTopic) {
    return force_publish_generation(
        std::move(payload), content_topic,
        shards_.reshard().next_generation_authoritative());
  }

  /// Resource-exhaustion attacker: attaches a garbage proof.
  void publish_with_invalid_proof(
      Bytes payload, const std::string& content_topic = kDefaultContentTopic) {
    publish_garbage_proof(std::move(payload), content_topic, false);
  }

  /// Stale-root attacker: a well-formed bundle whose tree root is outside
  /// every validator's rolling root window — dies in the O(1) root stage,
  /// before the SNARK verifier can be made to spend cycles.
  void publish_with_stale_root(
      Bytes payload, const std::string& content_topic = kDefaultContentTopic) {
    publish_garbage_proof(std::move(payload), content_topic, true);
  }

  /// Split-equivocation attacker (§III-F evasion attempt): two conflicting
  /// messages for the SAME epoch, each shown to a disjoint half of the
  /// mesh neighbors, so no single first-hop peer sees both shares. Relay
  /// propagation still brings the halves together at interior peers, which
  /// recover sk and slash. Returns false when not registered or fewer than
  /// two peers are reachable.
  bool force_publish_split(Bytes payload_a, Bytes payload_b);

  /// Registers a callback for delivered (validated) messages.
  void set_message_handler(MessageHandler handler) {
    handler_ = std::move(handler);
  }

  // -- Sharding --------------------------------------------------------------

  /// The shard generations: layout, cutover phase, both generations'
  /// validators, the load tracker (node_shards.hpp).
  [[nodiscard]] NodeShards& shards() { return shards_; }
  [[nodiscard]] const NodeShards& shards() const { return shards_; }
  /// The shard-qualified pubsub topic `content_topic` routes onto.
  [[nodiscard]] std::string shard_topic_for(
      const std::string& content_topic) const {
    return shards_.topic_in(content_topic, /*next=*/false);
  }

  // -- Live reshard (shard/reshard.hpp) --------------------------------------

  /// Starts a staged generation cutover to `target_num_shards` (a
  /// multiple of the current count — the cutover runs on split layouts)
  /// with `new_subscribe` as this node's new-generation subscription
  /// (empty = all shards). Enters kAnnounce and journals the transition
  /// (WAL v3); topology is untouched until advance_reshard(). Returns
  /// false when a cutover is already running, the previous cutover's
  /// linger window has not expired, or the layout is invalid.
  bool begin_reshard(std::uint16_t target_num_shards,
                     std::vector<shard::ShardId> new_subscribe = {}) {
    return shards_.begin(target_num_shards, std::move(new_subscribe),
                         current_epoch());
  }

  /// Advances the cutover one phase: announce -> overlap (dual-subscribe
  /// both generations' meshes, dual-generation RLN enforcement on) ->
  /// drain (publishes route to the new generation) -> drop-old (old
  /// meshes unsubscribed; domain logs and the domain-keyed quota linger
  /// for Thr+1 epochs, then the per-shard quota re-keys — see
  /// NodeShards::end_linger). Each transition is journaled before it takes
  /// effect, so a crash mid-reshard restarts into the correct phase
  /// fail-closed. Returns false when no cutover is running.
  bool advance_reshard() { return shards_.advance(current_epoch()); }

  // -- Autonomous operator loop ----------------------------------------------

  /// Installs (or replaces) the per-node new-generation subscription
  /// chooser the operator loop passes to begin_reshard. Harness-driven
  /// fleets install it from the node hook so it survives kill/restart.
  void set_operator_subscribe_chooser(
      std::function<std::vector<shard::ShardId>(std::uint16_t)> chooser) {
    config_.operator_loop.subscribe_chooser = std::move(chooser);
  }
  /// The operator loop's bookkeeping: decisions taken (begin + advance,
  /// WAL-replayed ones included, so a restarted node resumes the count)
  /// and the cooldown / dwell anchors.
  [[nodiscard]] const OperatorLoop& operator_loop() const { return operator_; }

  /// Overlap-window attacker hook: a valid-proof publish forced onto a
  /// specific generation's mesh (next when `use_next_generation` and a
  /// cutover is running, current otherwise), ignoring the local rate
  /// limit. The cutover campaign uses old/new same-epoch pairs to attack
  /// the migration window; dual-generation enforcement must fold them
  /// into one quota and slash.
  PublishStatus force_publish_generation(Bytes payload,
                                         const std::string& content_topic,
                                         bool use_next_generation);

  // -- Durable state ---------------------------------------------------------

  /// Writes a snapshot now (no-op for ephemeral nodes).
  void force_snapshot();
  /// Contract events applied so far — the replay cursor persisted in
  /// snapshots and resumed from on restart.
  [[nodiscard]] std::uint64_t event_cursor() const { return event_cursor_; }
  [[nodiscard]] bool persistent() const { return journal_.store() != nullptr; }
  [[nodiscard]] const persist::StateStore* state_store() const {
    return journal_.store();
  }
  /// Pending commit-reveal slashes currently journaled (tests/operators).
  [[nodiscard]] std::size_t pending_slash_count() const {
    return slashing_.pending_count();
  }
  /// Canonical serialization of the full durable state — what snapshots
  /// hold; restart tests assert byte-identity on it.
  [[nodiscard]] Bytes serialize_state() const;

  /// Exports the unsigned light-client bootstrap checkpoint (full-tree
  /// nodes only; the lightpush service signs and serves it). `shards`
  /// filters the per-shard nullifier watermarks to the requesting client's
  /// subscription subset; empty keeps every hosted shard's watermark.
  [[nodiscard]] Checkpoint make_checkpoint(
      std::span<const shard::ShardId> shards = {}) const;

  /// Builds a delta checkpoint fast-forwarding a client from (from_cursor,
  /// from_root) to this node's current state, or nullopt when the retained
  /// root-transition history cannot prove the delta lossless — cursor
  /// older than the history floor, claimed root not matching the recorded
  /// root at that cursor, or more transitions since than kDeltaRootTailMax
  /// — in which case the caller serves a full checkpoint (fail-closed).
  [[nodiscard]] std::optional<DeltaCheckpoint> make_delta_checkpoint(
      std::uint64_t from_cursor, const Fr& from_root,
      std::span<const shard::ShardId> shards = {}) const;

  [[nodiscard]] net::NodeId node_id() const { return relay_.node_id(); }
  [[nodiscard]] const Identity& identity() const { return identity_; }
  [[nodiscard]] const chain::Address& account() const {
    return config_.account;
  }
  [[nodiscard]] std::uint64_t current_epoch() const;

  [[nodiscard]] WakuRelay& relay() { return relay_; }
  [[nodiscard]] GroupManager& group() { return group_; }
  /// The current generation's validation container: aggregate stats()
  /// and per-shard pipeline access.
  [[nodiscard]] shard::ShardedValidator& validator() {
    return shards_.current();
  }
  [[nodiscard]] const shard::ShardedValidator& validator() const {
    return shards_.current();
  }
  [[nodiscard]] const NodeStats& stats() const { return stats_; }
  [[nodiscard]] const NodeConfig& config() const { return config_; }

  // -- Observability (src/obs) -----------------------------------------------

  /// Metrics, sampled traces, the flight recorder and the exposition
  /// (node_telemetry.hpp).
  [[nodiscard]] NodeTelemetry& telemetry() { return telemetry_; }
  [[nodiscard]] const NodeTelemetry& telemetry() const { return telemetry_; }
  /// This node's health scrape for the current epoch — the generic
  /// NodeHealthSample a FleetAggregator ingests. The harness-only ground
  /// truth (honest/spam deliveries) is left 0 for the caller to fill.
  [[nodiscard]] obs::NodeHealthSample health_sample() const;

 private:
  /// Builds the §III-E message bundle: proof over (sk, path, H(m), epoch).
  WakuMessage build_message(Bytes payload, const std::string& content_topic,
                            std::uint64_t epoch);
  /// The garbage-proof attacks: a bundle with random share/nullifier and a
  /// random proof, rooted at the current root or (stale_root) at a random
  /// one no validator knows.
  void publish_garbage_proof(Bytes payload, const std::string& content_topic,
                             bool stale_root);
  /// Installs the shard-scoped batch validator + delivery handler on one
  /// subscribed shard's pubsub topic. The wiring resolves the validator
  /// container by GENERATION at call time, so the drop-old swap (next
  /// validator becomes current) never leaves a mesh validating through a
  /// dead container.
  void wire_shard(shard::ShardedValidator& validator, shard::ShardId shard);
  /// Applies one block of contract events (live or replayed): one group
  /// apply + commit, slashing reacting to each event at its position, one
  /// recorded root transition.
  void handle_chain_block(chain::Blockchain::BlockEvents events);
  /// Kicks off commit-reveal slashing for a recovered secret key (§III-F).
  void trigger_slash(const Fr& spammer_sk);
  /// One operator-loop step per upkeep tick (no-op unless enabled).
  void operator_tick();

  void restore_from_store();
  void restore_snapshot(BytesView payload);
  /// Routes one replayed WAL record to the part that owns it.
  void apply_wal_record(WalTag tag, std::uint16_t shard, BytesView payload);

  net::Network& network_;
  chain::Blockchain& chain_;
  chain::Address contract_;
  NodeConfig config_;
  Rng rng_;
  /// Salt/nonce entropy for keystore-sealed snapshots. Separate from rng_
  /// (and mutable) because sealing happens inside the const
  /// serialize_state() and must not perturb the protocol RNG stream; OS-
  /// seeded, never from the node seed, so a restarted node cannot replay
  /// its previous salt/nonce stream (AEAD nonce reuse).
  mutable Rng seal_rng_;

  Identity identity_;
  WakuRelay relay_;
  GroupManager group_;
  NodeStats stats_;
  NodeJournal journal_;
  NodeShards shards_;

  MessageHandler handler_;
  SlashingEngine slashing_;
  OperatorLoop operator_;
  std::uint64_t event_cursor_ = 0;  ///< contract events applied

  /// One recorded root transition: after applying the block that ends at
  /// `cursor` the group root became `root`.
  struct RootTransition {
    std::uint64_t cursor = 0;
    Fr root;
  };
  /// Bounded root-transition history backing make_delta_checkpoint():
  /// covers cursors in [root_history_floor_, event_cursor_], where the
  /// root at the floor itself is root_at_floor_. Deliberately not
  /// persisted — a restart resets it in start(), so delta requests fall
  /// back to full checkpoints until fresh transitions accrue.
  static constexpr std::size_t kRootHistoryCap = 64;
  std::uint64_t root_history_floor_ = 0;
  Fr root_at_floor_;
  std::deque<RootTransition> root_history_;
  /// Local time at which a block last moved the root window. A
  /// stale-root verdict on a message that arrived before it is ignored,
  /// not rejected: the root may have been current on arrival.
  net::TimeMs root_moved_at_ = 0;
  std::uint64_t chain_subscription_ = 0;
  net::Simulator::TaskId upkeep_task_ = 0;
  bool started_ = false;

  /// Declared after every part its snapshot reads.
  NodeTelemetry telemetry_;
};

}  // namespace waku::rln

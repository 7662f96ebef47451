// NodeShards: the node's shard generations. Per-shard enforcement (paper
// §III-F run once per relay shard, shard/sharded_validator.hpp) plus the
// live generation cutover (shard/reshard.hpp). It owns the current
// generation's ShardedValidator, the incoming one during a cutover, the
// ReshardCoordinator, the ShardLoadTracker and the honest per-shard quota;
// their WAL records (kNullifier, kOwnPublish, kReshardPhase,
// kNullifierNext, kCutoverObservation, kReshardLingerEnd) with replay; and
// the `reshard | shards | has_next | quota` section of the node snapshot.
//
// It holds no node reference. Relay wiring and slashing reach the node
// through the Hooks it is bound to; the node's telemetry is attached to
// every validator it builds and records each cutover transition.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <map>
#include <vector>

#include "common/serde.hpp"
#include "gossipsub/types.hpp"
#include "rln/group_manager.hpp"
#include "rln/node_journal.hpp"
#include "rln/node_telemetry.hpp"
#include "shard/reshard.hpp"
#include "shard/sharded_validator.hpp"

namespace waku::rln {

class NodeShards {
 public:
  /// What the node does for the part.
  struct Hooks {
    /// Installs relay validation + delivery on one hosted shard of a
    /// generation (start() and overlap entry).
    std::function<void(shard::ShardedValidator&, shard::ShardId)> wire;
    /// Leaves one pubsub topic's mesh (drop-old).
    std::function<void(const std::string& pubsub_topic)> unwire;
    /// Commit-reveal slashing of a recovered secret key (§III-F).
    std::function<void(const Fr& spammer_sk)> slash;
  };

  struct PublishRoute {
    std::string pubsub_topic;
    /// The rate-limit domain key for the honest quota: the current
    /// (pre-drop-old: old) generation's shard of the topic.
    shard::ShardId quota_shard;
  };

  /// Builds the current generation from `layout`. `group` and `journal`
  /// must outlive the part; `seed` is the base of the per-generation RLC
  /// seeds. The pipelines' hooks capture the part's address, so it is
  /// neither copied nor moved.
  NodeShards(std::size_t tree_depth, const ValidatorConfig& validator,
             const shard::ShardConfig& layout,
             const shard::ShardLoadTracker::Config& load,
             const GroupManager& group, NodeJournal& journal,
             std::uint64_t seed);
  NodeShards(const NodeShards&) = delete;
  NodeShards& operator=(const NodeShards&) = delete;

  /// Takes the node's hooks and hooks the current generation's pipelines
  /// up (journal mirrors, cutover log selectors, `telemetry`). Call once,
  /// before restore, after the parts the hooks reach exist.
  void bind(NodeTelemetry& telemetry, Hooks hooks);
  /// Wires every hosted shard of both live generations (start()).
  void wire_all();

  // -- Reading ---------------------------------------------------------------

  [[nodiscard]] const shard::ShardMap& map() const { return current_.map(); }
  [[nodiscard]] shard::ReshardPhase phase() const { return reshard_.phase(); }
  [[nodiscard]] const shard::ReshardCoordinator& reshard() const {
    return reshard_;
  }
  /// The current generation's validator container. The drop-old swap
  /// move-assigns into it, so references stay valid across a cutover.
  [[nodiscard]] shard::ShardedValidator& current() { return current_; }
  [[nodiscard]] const shard::ShardedValidator& current() const {
    return current_;
  }
  /// The incoming generation's validator during overlap/drain.
  [[nodiscard]] shard::ShardedValidator* next() { return next_.get(); }
  [[nodiscard]] const shard::ShardLoadTracker& load_tracker() const {
    return load_tracker_;
  }
  /// The validator container owning generation `generation`'s meshes
  /// right now; nullptr for a generation this node no longer runs.
  [[nodiscard]] shard::ShardedValidator* generation(std::uint32_t generation);

  // -- Publishing ------------------------------------------------------------

  /// The pubsub topic `content_topic` maps onto in the incoming generation
  /// (`next`, while a cutover runs one) or the current one.
  [[nodiscard]] std::string topic_in(const std::string& content_topic,
                                     bool next) const;
  /// Publish routing across the cutover: the authoritative generation's
  /// mesh if this node hosts the topic's shard there, the other live
  /// generation's as fallback; nullopt when neither is hosted.
  [[nodiscard]] std::optional<PublishRoute> route(
      const std::string& content_topic) const;
  /// Debits the honest quota (one message per epoch per rate-limit
  /// domain), journaling kOwnPublish first; false when already spent.
  bool claim_quota(shard::ShardId quota_shard, std::uint64_t epoch);
  /// Fraction of hosted shards whose quota is spent in `epoch`.
  [[nodiscard]] double quota_saturation(std::uint64_t epoch) const;

  /// The relay result of each outcome of one validated window: accept,
  /// ignore (epoch gap, duplicate, or a root that went stale while the
  /// message sat in its window, i.e. `root_moved_at` is after its
  /// arrival), or reject. A double-signal's recovered key goes to the
  /// slash hook.
  [[nodiscard]] std::vector<gossipsub::ValidationResult> relay_results(
      std::span<const ValidationOutcome> outcomes,
      std::span<const std::uint64_t> received_at,
      std::uint64_t root_moved_at) const;

  // -- Cutover ---------------------------------------------------------------

  // Each transition is journaled, then recorded in the flight recorder at
  // `epoch`, then applied.

  /// kStable -> kAnnounce; see WakuRlnRelayNode::begin_reshard.
  bool begin(std::uint16_t target_num_shards,
             std::vector<shard::ShardId> subscribe, std::uint64_t epoch);
  /// The next phase transition, with its relay (un)wiring; false when no
  /// cutover runs.
  bool advance(std::uint64_t epoch);
  /// Epoch upkeep: nullifier-log GC of both generations and the domain
  /// logs, linger expiry (journaled kReshardLingerEnd) and load samples.
  void upkeep(std::uint64_t now_ms, std::uint64_t epoch);

  // -- Durable state ---------------------------------------------------------

  /// WAL replay of the part's tags; other tags are ignored.
  void replay(WalTag tag, std::uint16_t shard, BytesView payload);
  /// Snapshot section: reshard bytes | shards bytes | has_next u8 [| next
  /// bytes] | quota (u16 count + sorted (shard u16, epoch u64) pairs).
  void serialize(ByteWriter& w) const;
  /// Inverse of serialize(). Throws std::out_of_range, before replacing
  /// anything, on a coordinator blob restore() rejects, next-generation
  /// bytes while the coordinator is stable or announcing, or truncation.
  void restore(ByteReader& r);

 private:
  /// A validator container over `map` with `layout`'s subscription and
  /// generation seed (hooks are installed by the caller, at the
  /// container's final address).
  [[nodiscard]] shard::ShardedValidator make_validator(
      shard::ShardMap map, const shard::ShardConfig& layout) const;
  /// (Re-)installs telemetry, observe hooks and cutover log selectors on
  /// every pipeline of `validator`; `next` picks the WAL tag its own-log
  /// mirrors journal under.
  void install_hooks(shard::ShardedValidator& validator, bool next);
  /// Creates the incoming generation's validator (overlap entry).
  void create_next();
  /// The structural mechanics of one phase transition, shared by the live
  /// path (advance) and WAL replay; `live` also (un)wires the relay,
  /// which replay leaves to start().
  void apply(shard::ReshardPhase to, std::uint64_t linger_until_epoch,
             bool live);
  /// Linger expiry: drops the coordinator's domain state and re-keys the
  /// quota from old-generation (domain) to new-generation shard ids. The
  /// quota stays DOMAIN-keyed for as long as validators enforce the shared
  /// domain log: switching earlier (e.g. at drop-old) would let a node
  /// publish on two sibling new shards of one old family in the same
  /// epoch and double-signal against itself. The re-key is a conservative
  /// max-merge: every hosted shard inherits the newest epoch any domain
  /// saw, so it never under-blocks (at most one skipped publish per shard
  /// for one epoch). Applied live from upkeep (journaled first) and
  /// replayed at the same WAL position, so a later cutover's records land
  /// on a non-lingering coordinator either way.
  void end_linger();

  std::size_t tree_depth_;
  ValidatorConfig config_;
  const GroupManager& group_;
  NodeJournal& journal_;
  std::uint64_t seed_;
  NodeTelemetry* telemetry_ = nullptr;
  Hooks hooks_;
  shard::ShardedValidator current_;
  /// Becomes current_ at drop-old.
  std::unique_ptr<shard::ShardedValidator> next_;
  shard::ReshardCoordinator reshard_;
  shard::ShardLoadTracker load_tracker_;
  /// Honest rate-limit state: the epoch of this node's last publish per
  /// rate-limit domain (each shard is its own domain; a cutover's domain
  /// is the old-generation shard until its linger ends).
  std::map<shard::ShardId, std::uint64_t> quota_;
};

}  // namespace waku::rln

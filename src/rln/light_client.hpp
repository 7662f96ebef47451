// Light-client publishing and bootstrap: the §IV-A hybrid architecture
// plus 19/WAKU2-LIGHTPUSH.
//
// A resource-restricted member holds only its 32-byte identity key. To
// publish it needs (a) a fresh auth path + root — served on demand by a
// storage-rich full node ("peers with adequate storage capacity retain the
// tree and supply the necessary information to the resource-limited peers
// upon request", §IV-A) — and (b) a relay — the lightpush service publishes
// the finished, proof-carrying message on the client's behalf. The client
// never joins the mesh and never stores the tree; proof generation stays
// client-side so the sk never leaves the device.
//
// Checkpoint bootstrap (rln/checkpoint.hpp): instead of replaying the
// contract event stream from genesis, a joining client fetches a
// Schnorr-signed O(log N) checkpoint (root window + root-tracker view +
// event cursor + per-shard nullifier watermarks) from a full peer,
// verifies it against the service's *public* key, and becomes a
// *validating* light peer immediately — it follows the event stream from
// the checkpoint's cursor and runs the full per-shard RLN pipeline on live
// traffic. The bootstrap is shard-scoped: the request names the client's
// subscribed shards and the served checkpoint carries only those shards'
// nullifier watermarks; a checkpoint missing a subscribed shard's
// watermark is rejected fail-closed (the client cannot know which old
// epochs that shard's serving log already expired).
#pragma once

#include <functional>
#include <optional>

#include "net/network.hpp"
#include "rln/epoch.hpp"
#include "rln/node.hpp"

namespace waku::rln {

/// Light-protocol frame tags (first byte of every service/client message).
/// Public so the adversarial scenario engine can impersonate a service —
/// the eclipse campaign's stale-checkpoint server speaks this protocol.
enum class LightFrame : std::uint8_t {
  kTreeReq = 1,        // u64 member index
  kTreeResp = 2,       // root(32) u64 count, path
  kPushReq = 3,        // serialized WakuMessage
  kPushResp = 4,       // u8 accepted
  kCheckpointReq = 5,  // u16 shard count, u16 shard ids (empty = all)
  kCheckpointResp = 6, // serialized signed Checkpoint
  kDeltaReq = 7,       // u64 from_cursor, from_root(32), u16 shard count+ids
  kDeltaResp = 8,      // u8 kind (0 = delta, 1 = full fallback), payload
};

/// Service half: answers tree-sync queries from the node's full
/// GroupManager and lightpush requests via the node's relay (after running
/// the pushed message through the node's own shard-scoped RLN validation).
class RlnFullServiceNode : public net::NetNode {
 public:
  /// `node` must run a kFullTree group manager and outlive the service.
  RlnFullServiceNode(net::Network& network, WakuRlnRelayNode& node);

  void on_message(net::NodeId from, BytesView payload) override;

  /// Key whose secret half signs served checkpoints; clients verify with
  /// the public half (distributed out of band — the PKI stand-in is the
  /// distribution, not the signature, which is a real Schnorr scheme).
  /// Unset, checkpoints are signed under the well-known development key
  /// (hash::schnorr::keygen_from_seed(0)).
  void set_checkpoint_signer(hash::schnorr::KeyPair key) {
    checkpoint_key_ = std::move(key);
  }

  [[nodiscard]] net::NodeId node_id() const { return id_; }
  [[nodiscard]] std::uint64_t tree_requests() const { return tree_requests_; }
  [[nodiscard]] std::uint64_t deltas_served() const { return deltas_served_; }
  /// Delta requests answered with a full checkpoint because the node's
  /// root-transition history could not prove the delta lossless.
  [[nodiscard]] std::uint64_t delta_fallbacks_served() const {
    return delta_fallbacks_served_;
  }
  [[nodiscard]] std::uint64_t pushes_accepted() const {
    return pushes_accepted_;
  }
  [[nodiscard]] std::uint64_t pushes_rejected() const {
    return pushes_rejected_;
  }
  /// Peer frames dropped because they did not parse (empty, truncated).
  [[nodiscard]] std::uint64_t malformed_frames() const {
    return malformed_frames_;
  }

 private:
  /// The signed checkpoint body for `shards`; empty when this node no
  /// longer holds the full tree.
  void write_checkpoint(ByteWriter& w,
                        const std::vector<shard::ShardId>& shards);

  net::Network& network_;
  WakuRlnRelayNode& node_;
  net::NodeId id_;
  hash::schnorr::KeyPair checkpoint_key_;
  std::uint64_t tree_requests_ = 0;
  std::uint64_t deltas_served_ = 0;
  std::uint64_t delta_fallbacks_served_ = 0;
  std::uint64_t pushes_accepted_ = 0;
  std::uint64_t pushes_rejected_ = 0;
  std::uint64_t malformed_frames_ = 0;
};

/// Client half: a registered member (identity + member index known, e.g.
/// registration performed out of band) that publishes via a service node.
class RlnLightClient : public net::NetNode {
 public:
  /// Called when the service acknowledges (or refuses) a push.
  using PushResult = std::function<void(bool accepted)>;

  /// `shards` scopes the client to a shard subset (validators and
  /// checkpoint watermarks are built only for its subscription set); the
  /// default single-shard config reproduces the unsharded behaviour.
  RlnLightClient(net::Network& network, Identity identity,
                 std::uint64_t member_index, EpochConfig epoch,
                 std::uint64_t seed, shard::ShardConfig shards = {});
  ~RlnLightClient() override;

  /// Fetches a fresh path from `service`, builds the proof bundle locally,
  /// and lightpushes the message. Asynchronous; `done` fires on the ack.
  void publish(net::NodeId service, Bytes payload,
               const std::string& content_topic, PushResult done = nullptr);

  // -- Checkpoint bootstrap --------------------------------------------------

  using BootstrapResult = std::function<void(bool ok)>;

  /// Attaches the chain the checkpoint is cross-checked against and the
  /// service public key its Schnorr attestation must verify under. Call
  /// before bootstrap().
  void attach_chain(chain::Blockchain& chain, chain::Address contract,
                    const Fr& service_pk);

  /// Requests a signed checkpoint (scoped to this client's subscribed
  /// shards) from `service`. On a verified response the client builds an
  /// O(log N) root-tracking group view, subscribes to the contract event
  /// stream from the checkpoint's cursor, and becomes able to validate()
  /// live traffic on its shards. `done` fires with the outcome; a response
  /// failing verification leaves the client un-bootstrapped.
  void bootstrap(net::NodeId service, BootstrapResult done = nullptr);

  [[nodiscard]] bool bootstrapped() const { return validator_.has_value(); }

  // -- Delta sync (poll-mode window tracking) --------------------------------

  using DeltaSyncResult = std::function<void(bool ok)>;

  /// Detaches from the live contract event stream: the client stops
  /// folding per-event root transitions and instead advances its window
  /// by periodic delta_sync() polls — the cheap way to track a churning
  /// million-member window. Idempotent; bootstrap()/full fallback
  /// re-attach.
  void go_offline();

  /// Requests a delta checkpoint bound to this client's current (cursor,
  /// newest-root) state. A verified delta fast-forwards the root window,
  /// member counters, nullifier watermarks, and cursor in one ~200-byte
  /// exchange. A server that cannot prove a lossless delta (gap, root
  /// mismatch, restarted history) answers with a full checkpoint, adopted
  /// through the normal full-verification bootstrap path — the fail-closed
  /// fallback; that path re-subscribes to the event stream, so a client
  /// staying in poll mode calls go_offline() again. Requires
  /// bootstrapped().
  void delta_sync(net::NodeId service, DeltaSyncResult done = nullptr);

  /// Chain cursor the client's group state currently reflects.
  [[nodiscard]] std::uint64_t sync_cursor() const {
    return bootstrap_cursor_ + events_applied_;
  }
  [[nodiscard]] std::uint64_t delta_syncs_applied() const {
    return delta_syncs_applied_;
  }
  /// Delta requests that came back as (and were adopted via) full
  /// checkpoints.
  [[nodiscard]] std::uint64_t delta_full_fallbacks() const {
    return delta_full_fallbacks_;
  }

  /// Freshness tolerance for served checkpoints: a checkpoint whose member
  /// count lags the contract's by more than this many registrations is
  /// rejected as stale (eclipse defence — a victim fed an old-but-signed
  /// checkpoint detects it instead of validating against a dead root).
  /// The small default absorbs registrations mined between the serve and
  /// the adopt.
  void set_max_bootstrap_lag(std::uint64_t members) {
    max_bootstrap_lag_ = members;
  }
  [[nodiscard]] std::uint64_t stale_checkpoints_rejected() const {
    return stale_checkpoints_rejected_;
  }

  /// Runs the full RLN validation pipeline of the message's shard on a
  /// live message (requires bootstrapped() and a subscribed shard).
  ValidationOutcome validate(const WakuMessage& message,
                             std::uint64_t local_now_ms);

  /// The bootstrapped group view (requires bootstrapped()).
  [[nodiscard]] const GroupManager& light_group() const { return *group_; }
  /// The bootstrapped per-shard validator (requires bootstrapped()).
  [[nodiscard]] const shard::ShardedValidator& light_validator() const {
    return *validator_;
  }
  /// Event cursor the bootstrap started from (0 before bootstrap).
  [[nodiscard]] std::uint64_t bootstrap_cursor() const {
    return bootstrap_cursor_;
  }
  [[nodiscard]] std::uint64_t events_applied() const {
    return events_applied_;
  }

  void on_message(net::NodeId from, BytesView payload) override;

  [[nodiscard]] net::NodeId node_id() const { return id_; }
  [[nodiscard]] const Identity& identity() const { return identity_; }
  [[nodiscard]] std::uint64_t published() const { return published_; }
  [[nodiscard]] std::uint64_t acked() const { return acked_; }
  /// Peer frames dropped because they did not parse (empty, truncated).
  [[nodiscard]] std::uint64_t malformed_frames() const {
    return malformed_frames_;
  }

 private:
  struct PendingPublish {
    Bytes payload;
    std::string content_topic;
    net::NodeId service;
    PushResult done;
  };

  /// Verifies and installs a served checkpoint; false leaves state as-is.
  bool adopt_checkpoint(const Checkpoint& checkpoint);
  /// Verifies and applies a served delta; false leaves state as-is.
  bool adopt_delta(const DeltaCheckpoint& delta);
  /// Contract cross-check of a served member count, both directions: at
  /// most what the contract has registered (a forged future tree), at
  /// least that minus the lag tolerance (a signed but stale one, counted
  /// in stale_checkpoints_rejected). Throws when the call fails.
  bool member_count_current(std::uint64_t claimed);

  net::Network& network_;
  Identity identity_;
  std::uint64_t member_index_;
  EpochConfig epoch_;
  shard::ShardConfig shards_config_;
  Rng rng_;
  net::NodeId id_;
  std::vector<PendingPublish> pending_;
  std::vector<PushResult> pending_acks_;
  std::uint64_t published_ = 0;
  std::uint64_t acked_ = 0;
  std::uint64_t malformed_frames_ = 0;

  // Checkpoint bootstrap state. `group_` must outlive `validator_` (the
  // per-shard pipelines hold references); both are torn down together.
  chain::Blockchain* chain_ = nullptr;
  chain::Address contract_;
  Fr service_pk_;
  std::vector<BootstrapResult> pending_bootstraps_;
  std::optional<GroupManager> group_;
  std::optional<shard::ShardedValidator> validator_;
  std::optional<std::uint64_t> chain_subscription_;
  std::uint64_t bootstrap_cursor_ = 0;
  std::uint64_t events_applied_ = 0;
  std::uint64_t max_bootstrap_lag_ = 2;
  std::uint64_t stale_checkpoints_rejected_ = 0;
  std::vector<DeltaSyncResult> pending_delta_syncs_;
  std::uint64_t delta_syncs_applied_ = 0;
  std::uint64_t delta_full_fallbacks_ = 0;
};

}  // namespace waku::rln

// Signed membership checkpoints: the O(log N) bootstrap artifact a
// storage-rich full peer serves so a joining light client can validate
// live traffic immediately instead of replaying the contract event stream
// from genesis (the fast-join counterpart of the paper's §IV-A hybrid
// architecture; cf. the membership-snapshot shipping of zk-SNARK-gated
// spam-prevention systems).
//
// Contents: the group state (root window + root-tracker partial view +
// member counters), the chain event cursor the state corresponds to, and
// the serving peer's per-shard nullifier-log GC watermarks (the sharded
// relay keeps one log per shard; a shard-scoped bootstrap carries only the
// subscribed shards' watermarks). The attestation is a real Schnorr
// signature (hash/schnorr.hpp) under the service node's key: clients hold
// only the service's *public* key, verification fails closed on any
// payload or signature tampering, and — unlike the keyed-MAC stand-in this
// replaced — a client can never forge an attestation itself. Independent
// of the signature, the client cross-checks the checkpoint against the
// contract (member count) and against itself (view root must close the
// root window) before trusting it.
#pragma once

#include <cstdint>

#include "hash/schnorr.hpp"
#include "rln/group_manager.hpp"
#include "shard/shard_map.hpp"

namespace waku::rln {

struct Checkpoint {
  /// Chain event sequence the group state reflects; the client resumes the
  /// event stream here.
  std::uint64_t event_cursor = 0;
  std::uint64_t member_count = 0;
  std::uint64_t removed_count = 0;
  /// Serving peer's per-shard nullifier GC watermarks, ordered by shard:
  /// epochs below a shard's watermark were already expired server-side, so
  /// the client must not treat them as fresh on that shard.
  std::vector<shard::ShardWatermark> nullifier_watermarks;
  std::vector<Fr> recent_roots;  ///< oldest → newest root window
  Bytes view;                    ///< serialized root-tracker partial view
  hash::schnorr::Signature signature;  ///< Schnorr over the payload

  [[nodiscard]] Bytes serialize() const;
  static Checkpoint deserialize(BytesView bytes);

  /// Signs the payload under the service node's key.
  void sign(const hash::schnorr::KeyPair& key);
  /// True iff the signature verifies under `service_pk` over the current
  /// payload. Any payload or signature tampering fails.
  [[nodiscard]] bool verify(const Fr& service_pk) const;

  [[nodiscard]] GroupCheckpoint group_checkpoint() const {
    return GroupCheckpoint{member_count, removed_count, recent_roots, view};
  }
};

/// Watermark for one shard in a (full or delta) checkpoint's list, if it
/// carries that shard.
[[nodiscard]] std::optional<std::uint64_t> watermark_for(
    const std::vector<shard::ShardWatermark>& watermarks,
    shard::ShardId shard);

/// Builds the unsigned checkpoint for a full peer's group state.
/// `watermarks` is the serving peer's per-shard nullifier GC state,
/// optionally pre-filtered to the requesting client's shard subset.
Checkpoint make_group_checkpoint(
    const GroupManager& group, std::uint64_t event_cursor,
    std::vector<shard::ShardWatermark> watermarks);

// -- Delta checkpoints -------------------------------------------------------
//
// A light client that already holds a verified checkpoint does not need the
// O(log N) view and the full root window again to stay current — for a
// churning group it only needs the window to keep advancing. The delta
// checkpoint is the poll-mode artifact: bound to the client's (cursor,
// newest-root) state, it carries the *absolute* destination (cursor, member
// counters, watermarks) plus the tail of root transitions since the
// binding, all Schnorr-signed. A 1k-member churn window syncs in ~200
// bytes where a full checkpoint re-ships kilobytes of window + view.
//
// Fail-closed by construction: the serving node only builds a delta when
// its retained root-transition history still covers the client's cursor,
// the client's claimed root matches the history at that cursor, and the
// number of transitions since fits the tail cap. Any gap, mismatch, or
// restart-evicted history makes the server fall back to a full checkpoint
// (and the client adopts it through the normal full-verification path).

/// Upper bound on the served root tail. Transitions beyond this mean the
/// client's window would silently miss intermediate roots — the server
/// falls back to a full checkpoint instead of serving a lossy delta.
inline constexpr std::size_t kDeltaRootTailMax = 8;

struct DeltaCheckpoint {
  /// Binding to the client's prior state: apply only if the client sits
  /// exactly at `from_cursor` with `from_root` as its newest window root.
  std::uint64_t from_cursor = 0;
  Fr from_root;

  /// Absolute destination state (not increments): the chain cursor the
  /// delta fast-forwards to and the member counters there.
  std::uint64_t to_cursor = 0;
  std::uint64_t member_count = 0;
  std::uint64_t removed_count = 0;
  /// Per-shard watermark values at to_cursor (absolute, same shape as the
  /// full checkpoint's).
  std::vector<shard::ShardWatermark> nullifier_watermarks;
  /// Every root transition in (from_cursor, to_cursor], oldest → newest;
  /// size <= kDeltaRootTailMax. The client unions these into its window.
  std::vector<Fr> root_tail;
  hash::schnorr::Signature signature;

  [[nodiscard]] Bytes serialize() const;
  static DeltaCheckpoint deserialize(BytesView bytes);

  void sign(const hash::schnorr::KeyPair& key);
  [[nodiscard]] bool verify(const Fr& service_pk) const;
};

}  // namespace waku::rln

// Off-chain identity-commitment tree maintenance (paper §III-C): every
// peer follows the membership contract's event stream and mirrors the tree
// locally. Two storage profiles:
//
//   kFullTree    — the whole tree (the 67 MB-at-depth-20 configuration);
//   kPartialView — O(log N) via the [18] partial view; removal events carry
//                  the affected leaf's auth path so light peers can apply
//                  them (the paper's §IV-A availability assumption).
//
// Publishing peers must stay in sync with the latest root or risk exposing
// their leaf position by proving against a stale root (§III-C); validators
// therefore accept proofs only against a short window of recent roots.
// The window holds one root per block: a block's events are applied
// together and publish a single root, so W roots span the last W blocks
// that changed the tree however many registrations each block carried.
#pragma once

#include <atomic>
#include <functional>
#include <optional>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <variant>
#include <vector>

#include "chain/types.hpp"
#include "merkle/merkle_tree.hpp"
#include "merkle/partial_view.hpp"
#include "rln/identity.hpp"

namespace waku::rln {

enum class TreeMode {
  kFullTree,
  kPartialView,
};

/// O(log N) membership checkpoint a storage-rich full peer exports so a
/// joining light peer can skip the contract-event replay from genesis: the
/// current root window, member counters, and a root-tracker partial view
/// (append frontier + root) that can follow the event stream from here on.
struct GroupCheckpoint {
  std::uint64_t member_count = 0;
  std::uint64_t removed_count = 0;
  std::vector<Fr> recent_roots;  ///< oldest → newest; back() is current
  Bytes view;                    ///< serialized root-tracker PartialMerkleView
};

class GroupManager {
 public:
  /// Default root-window size W, in blocks.
  static constexpr std::size_t kDefaultRootWindow = 10;

  /// `root_window` is W: the window keeps the roots of the last W blocks
  /// (or on_event calls) that changed the tree.
  GroupManager(std::size_t depth, TreeMode mode,
               std::size_t root_window = kDefaultRootWindow);

  /// Movable for bootstrap-time hand-offs (from_checkpoint returns by
  /// value; the light client emplaces the result). Moves are NOT
  /// thread-safe — they happen strictly before any concurrent reader
  /// exists, never while validation workers are live.
  GroupManager(GroupManager&& other) noexcept;
  GroupManager& operator=(GroupManager&& other) noexcept;

  /// Sets the identity whose registration this peer is waiting for; when
  /// the matching MemberRegistered event arrives, own_index() is set and
  /// (in partial mode) the view switches to O(log N) tracking.
  void set_own_identity(const Identity& identity);

  /// Applies contract events (MemberRegistered / MembersRegistered /
  /// MemberSlashed / MemberWithdrawn / MembersWithdrawn) to the tree and
  /// counters without touching the root window; commit_block() publishes
  /// the result. Events must arrive in emission order. Each maximal run of
  /// registrations becomes one batched tree insert; every other event is
  /// applied at its position, and `after_each` (if set) then sees it with
  /// the tree in exactly the state that event left (for a registration:
  /// once its whole run is in).
  void apply(std::span<const chain::Event> events,
             const std::function<void(const chain::Event&)>& after_each = {});
  /// Ends a block: pushes the current root into the window (nothing when
  /// the block left the root unchanged).
  void commit_block();
  /// One event as a block of its own: apply, then commit_block().
  void on_event(const chain::Event& event);

  [[nodiscard]] Fr root() const;
  /// True if `root` is the current root or one of the last `root_window`
  /// block roots (tolerates proof/event races). O(1): backed by the rolling
  /// root cache, not a scan. Validation pipelines read their own mirror of
  /// the window instead (see root_version()).
  [[nodiscard]] bool is_recent_root(const Fr& root) const;
  /// Number of distinct roots currently held by the rolling cache.
  [[nodiscard]] std::size_t recent_root_count() const;
  /// Monotone counter bumped whenever the root window changes. Each
  /// ValidationPipeline's root-window mirror compares it to decide when
  /// its window copy is stale — a version match makes the hot-path root
  /// check O(1) with zero shared-state reads beyond this counter.
  /// Seqlock-style read path: the counter is atomic, so concurrent
  /// validation workers poll it lock-free and take the shared root_mu_
  /// only on the (rare) version mismatch that forces a window re-read.
  [[nodiscard]] std::uint64_t root_version() const {
    return root_version_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::optional<std::uint64_t> own_index() const {
    return own_index_;
  }
  [[nodiscard]] merkle::MerklePath own_path() const;

  /// Index lookup for slashing (full mode only; light peers ask a full
  /// peer). nullopt if unknown or removed.
  [[nodiscard]] std::optional<std::uint64_t> index_of(const Fr& pk) const;

  /// Auth-path service for other peers (the §IV-A "hybrid architecture":
  /// storage-rich peers serve paths to light ones). Full mode only.
  [[nodiscard]] merkle::MerklePath path_of(std::uint64_t index) const;

  [[nodiscard]] std::uint64_t member_count() const { return member_count_; }
  [[nodiscard]] std::uint64_t removed_count() const { return removed_count_; }
  [[nodiscard]] TreeMode mode() const { return mode_; }
  [[nodiscard]] std::size_t depth() const { return depth_; }

  /// Merkle state bytes held by this peer — the E4 measurement.
  [[nodiscard]] std::size_t storage_bytes() const;

  /// The rolling root window, oldest → newest (checkpoint export and
  /// restart equality assertions).
  [[nodiscard]] std::vector<Fr> recent_roots() const;

  /// Full-state serialization for the durable-state subsystem: tree or
  /// view, counters, own identity/index, and the exact root window.
  /// restore(serialize()) reproduces serialize() byte-identically. With
  /// include_identity false the own sk is omitted (keystore-sealed
  /// snapshots carry it separately, encrypted); the restoring owner then
  /// re-injects it via set_own_identity().
  [[nodiscard]] Bytes serialize(bool include_identity = true) const;
  void restore(BytesView bytes);

  /// Exports the O(log N) bootstrap checkpoint (full-tree mode only).
  [[nodiscard]] GroupCheckpoint export_checkpoint() const;
  /// Builds a relay-only (root-tracking) partial-view manager from a
  /// checkpoint; it can follow the contract event stream from the
  /// checkpoint's position onward.
  static GroupManager from_checkpoint(
      const GroupCheckpoint& checkpoint,
      std::size_t root_window = kDefaultRootWindow);

  /// Poll-mode window advance (delta checkpoints, rln/checkpoint.hpp):
  /// unions served root transitions into the recent-root window and
  /// fast-forwards the member counters, without replaying the underlying
  /// events. Only meaningful for a root-tracking manager that syncs by
  /// polling instead of following the event stream; counters must be
  /// monotone (a delta never rewinds).
  void advance_window(std::span<const Fr> roots, std::uint64_t member_count,
                      std::uint64_t removed_count);

 private:
  /// Appends a run of registrations at the next free index: finds our own
  /// pk in the run, then one insert_batch (split at our index only when a
  /// partial-view peer converts to its O(log N) view there).
  void apply_registrations(std::span<const Fr> pks);
  void append_leaves(std::span<const Fr> pks);
  /// Applies one non-registration event (removals; others are no-ops).
  void apply_other(const chain::Event& event);
  void apply_removed(std::uint64_t index, const Fr& pk,
                     const merkle::MerklePath& path);
  /// Appends one root to the ring + index (commit_block minus the dedup
  /// check; also used when rebuilding the window on restore).
  void ring_push(const Fr& r);
  void ring_clear();
  /// Rebuilds pk -> index from the tree's live leaves (full mode).
  void rebuild_pk_index();

  std::size_t depth_;
  TreeMode mode_;
  std::size_t root_window_;

  // Full tree (always present in full mode; present in partial mode only
  // until our own registration lets us snapshot a view).
  std::optional<merkle::IncrementalMerkleTree> tree_;
  std::optional<merkle::PartialMerkleView> view_;

  std::optional<Identity> own_identity_;
  std::optional<std::uint64_t> own_index_;
  std::uint64_t member_count_ = 0;
  std::uint64_t removed_count_ = 0;

  // pk -> index (full mode only; used to locate spammers for slashing).
  std::unordered_map<ff::U256, std::uint64_t, ff::U256Hash> pk_index_;

  // Rolling root cache: ring buffer of the last `root_window_` distinct
  // roots plus a refcounted hash index for O(1) membership tests. The
  // refcount matters because a root can legitimately re-enter the window
  // (a removal can restore an earlier tree state); evicting one ring slot
  // must not forget the other occurrence.
  //
  // Concurrency: the window is single-writer (the event-stream owner) /
  // many-reader (validation workers). root_mu_ guards the ring, index,
  // head and size; the version counter is atomic so the common-case read
  // — "has the window changed since my mirror copy?" — takes no lock at
  // all (the seqlock shape: version check first, locked re-read only on
  // mismatch). The tree/view and member counters stay unsynchronized:
  // workers never touch them, only the root window.
  mutable std::shared_mutex root_mu_;
  std::vector<Fr> root_ring_;
  std::size_t ring_head_ = 0;  ///< next slot to overwrite
  std::size_t ring_size_ = 0;
  /// Bumped (release) on every window change, after the window mutation
  /// completes under root_mu_.
  std::atomic<std::uint64_t> root_version_{0};
  std::unordered_map<Fr, std::uint32_t, ff::FrHash> root_index_;
};

}  // namespace waku::rln

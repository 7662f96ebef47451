// Identity-commitment Merkle tree (paper §II-B, §III-C).
//
// Fixed-depth binary tree over Poseidon2 with zero-subtree padding: an
// empty leaf is Fr(0) and the empty subtree hash at level l+1 is
// H(z_l, z_l). Deletion (slashing) writes the zero leaf back, exactly as
// the contract's "delete" semantics in the paper.
//
// IncrementalMerkleTree stores every computed node — O(N) per peer, the
// configuration whose cost §IV quotes as 67 MB at depth 20. Nodes live in a
// PagedNodeArena (node_arena.hpp): level-major pages of contiguous Fr that
// store only their written prefix against the empty-subtree ladder, so a
// 2^20-leaf tree is ~33k full 2 KB pages, a 32-leaf one 2,496 B, and
// appends never pay whole-level reallocation copies. The O(log N) alternative
// lives in partial_view.hpp.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ff/fr.hpp"
#include "merkle/node_arena.hpp"

namespace waku::merkle {

using ff::Fr;

/// Authentication path: the sibling node at every level from leaf to root.
/// Bit i of `index` gives the direction at level i (0 = current node is a
/// left child, sibling on the right).
struct MerklePath {
  std::uint64_t index = 0;
  std::vector<Fr> siblings;

  [[nodiscard]] std::size_t depth() const { return siblings.size(); }
  friend bool operator==(const MerklePath&, const MerklePath&) = default;
};

/// Hash of an empty subtree whose root sits at `level` (level 0 = leaf).
const Fr& zero_at(std::size_t level);

/// Wire encoding of an auth path (used in slashing-event payloads so light
/// peers can apply removals to their partial views, cf. [18]).
Bytes serialize_path(const MerklePath& path);
MerklePath deserialize_path(BytesView bytes);

/// Recomputes the root implied by `leaf` and `path`.
Fr compute_root(const Fr& leaf, const MerklePath& path);

/// Verifies that (leaf, path) hashes to `root`.
bool verify_path(const Fr& root, const Fr& leaf, const MerklePath& path);

/// Append-friendly Merkle tree holding all computed nodes.
class IncrementalMerkleTree {
 public:
  /// Depth in [1, 40]; capacity is 2^depth leaves.
  explicit IncrementalMerkleTree(std::size_t depth);

  /// Appends a leaf; returns its index. Throws if the tree is full.
  std::uint64_t insert(const Fr& leaf);

  /// Appends `leaves` as one transition and returns the index of the first.
  /// Instead of recomputing a root-to-leaf path per append (n·depth
  /// hashes), each level is rehashed once over the affected index range —
  /// ~2n + depth hashes total, which is what makes batched registration
  /// amortize. Equivalent to insert() in a loop, observed at the end.
  std::uint64_t insert_batch(std::span<const Fr> leaves);

  /// Overwrites the leaf at `index` (must be < size()).
  void update(std::uint64_t index, const Fr& leaf);

  /// Deletion per the paper: reset the leaf to the zero value.
  void remove(std::uint64_t index) { update(index, Fr::zero()); }

  [[nodiscard]] Fr root() const;
  [[nodiscard]] MerklePath auth_path(std::uint64_t index) const;
  [[nodiscard]] const Fr& leaf(std::uint64_t index) const;

  /// Value of the node at (level, idx), zero-subtree hash if not stored.
  [[nodiscard]] Fr node_at(std::size_t level, std::uint64_t idx) const;

  /// Number of appended leaves (zeroed leaves still count; indices are
  /// never reused, matching the contract's append-only member list).
  [[nodiscard]] std::uint64_t size() const { return leaf_count_; }
  [[nodiscard]] std::size_t depth() const { return depth_; }
  [[nodiscard]] std::uint64_t capacity() const {
    return std::uint64_t{1} << depth_;
  }

  /// Bytes of node storage currently held — the quantity E4 measures.
  /// Counts the stored prefix of each arena page, so it includes rounding
  /// slack (a partly written page holds under twice what was written into
  /// it) but not lazily-zero regions.
  [[nodiscard]] std::size_t storage_bytes() const;

  /// Full-state serialization (every stored node), so a restart restores
  /// the tree by memcpy-speed deserialization instead of re-hashing the
  /// whole insert history. serialize(deserialize(b)) == b.
  [[nodiscard]] Bytes serialize() const;
  static IncrementalMerkleTree deserialize(BytesView bytes);

 private:
  void recompute_path(std::uint64_t leaf_index);

  std::size_t depth_;
  std::uint64_t leaf_count_ = 0;
  // Level-major paged node storage; pages grow as leaves are appended, so
  // allocation is O(inserted leaves) plus one node per level above them.
  PagedNodeArena arena_;
};

}  // namespace waku::merkle

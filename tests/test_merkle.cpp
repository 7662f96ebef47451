// Tests for the identity-commitment Merkle tree and the O(log N) partial
// view: auth paths, deletion semantics, event-stream synchronization, and
// the storage claims behind experiment E4.
#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "common/expect.hpp"
#include "common/rng.hpp"
#include "hash/poseidon.hpp"
#include "merkle/merkle_tree.hpp"
#include "merkle/partial_view.hpp"

namespace waku::merkle {
namespace {

using ff::Fr;

Fr leaf_of(std::uint64_t i) { return Fr::from_u64(1000 + i); }

TEST(MerkleTree, EmptyTreeRootIsZeroSubtree) {
  const IncrementalMerkleTree tree(10);
  EXPECT_EQ(tree.root(), zero_at(10));
  EXPECT_EQ(tree.size(), 0u);
}

TEST(MerkleTree, ZeroHashChainIsConsistent) {
  // z_{l+1} = H(z_l, z_l) by definition.
  for (std::size_t l = 0; l + 1 <= 20; ++l) {
    const MerklePath path{0, {zero_at(l)}};
    EXPECT_EQ(compute_root(zero_at(l), path), zero_at(l + 1));
  }
}

TEST(MerkleTree, InsertReturnsSequentialIndices) {
  IncrementalMerkleTree tree(8);
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(tree.insert(leaf_of(i)), i);
  }
  EXPECT_EQ(tree.size(), 10u);
}

TEST(MerkleTree, RootChangesOnInsert) {
  IncrementalMerkleTree tree(8);
  const Fr r0 = tree.root();
  tree.insert(leaf_of(1));
  const Fr r1 = tree.root();
  tree.insert(leaf_of(2));
  EXPECT_NE(r0, r1);
  EXPECT_NE(r1, tree.root());
}

TEST(MerkleTree, AuthPathVerifies) {
  IncrementalMerkleTree tree(8);
  for (std::uint64_t i = 0; i < 30; ++i) tree.insert(leaf_of(i));
  for (std::uint64_t i = 0; i < 30; ++i) {
    const MerklePath path = tree.auth_path(i);
    EXPECT_TRUE(verify_path(tree.root(), leaf_of(i), path)) << "leaf " << i;
  }
}

TEST(MerkleTree, WrongLeafFailsVerification) {
  IncrementalMerkleTree tree(8);
  tree.insert(leaf_of(0));
  tree.insert(leaf_of(1));
  const MerklePath path = tree.auth_path(0);
  EXPECT_FALSE(verify_path(tree.root(), leaf_of(1), path));
}

TEST(MerkleTree, WrongRootFailsVerification) {
  IncrementalMerkleTree tree(8);
  tree.insert(leaf_of(0));
  const MerklePath path = tree.auth_path(0);
  EXPECT_FALSE(verify_path(Fr::from_u64(123), leaf_of(0), path));
}

TEST(MerkleTree, TamperedPathFailsVerification) {
  IncrementalMerkleTree tree(8);
  for (std::uint64_t i = 0; i < 5; ++i) tree.insert(leaf_of(i));
  MerklePath path = tree.auth_path(2);
  path.siblings[3] += Fr::one();
  EXPECT_FALSE(verify_path(tree.root(), leaf_of(2), path));
}

TEST(MerkleTree, UpdateChangesRootAndPathsStayValid) {
  IncrementalMerkleTree tree(8);
  for (std::uint64_t i = 0; i < 16; ++i) tree.insert(leaf_of(i));
  const Fr before = tree.root();
  tree.update(7, Fr::from_u64(9999));
  EXPECT_NE(tree.root(), before);
  EXPECT_TRUE(verify_path(tree.root(), Fr::from_u64(9999), tree.auth_path(7)));
  EXPECT_TRUE(verify_path(tree.root(), leaf_of(3), tree.auth_path(3)));
}

TEST(MerkleTree, RemoveRestoresZeroLeaf) {
  IncrementalMerkleTree tree(8);
  tree.insert(leaf_of(0));
  tree.insert(leaf_of(1));
  tree.remove(1);
  EXPECT_EQ(tree.leaf(1), Fr::zero());
  EXPECT_TRUE(verify_path(tree.root(), Fr::zero(), tree.auth_path(1)));
}

TEST(MerkleTree, RemoveAllReturnsToEmptyRoot) {
  // Deleting every member restores the all-zero tree root: deletion is
  // exactly "write the zero leaf" (paper §III-A).
  IncrementalMerkleTree tree(6);
  const Fr empty_root = tree.root();
  for (std::uint64_t i = 0; i < 8; ++i) tree.insert(leaf_of(i));
  for (std::uint64_t i = 0; i < 8; ++i) tree.remove(i);
  EXPECT_EQ(tree.root(), empty_root);
}

TEST(MerkleTree, IndicesNeverReused) {
  IncrementalMerkleTree tree(6);
  tree.insert(leaf_of(0));
  tree.remove(0);
  EXPECT_EQ(tree.insert(leaf_of(1)), 1u);  // slot 0 is not recycled
}

TEST(MerkleTree, CapacityEnforced) {
  IncrementalMerkleTree tree(2);
  for (int i = 0; i < 4; ++i) tree.insert(leaf_of(static_cast<unsigned>(i)));
  EXPECT_THROW(tree.insert(leaf_of(4)), ContractViolation);
}

TEST(MerkleTree, OutOfRangeAccessThrows) {
  IncrementalMerkleTree tree(4);
  tree.insert(leaf_of(0));
  EXPECT_THROW(tree.auth_path(1), ContractViolation);
  EXPECT_THROW(tree.update(1, Fr::one()), ContractViolation);
  EXPECT_THROW((void)tree.leaf(1), ContractViolation);
}

TEST(MerkleTree, RejectsBadDepth) {
  EXPECT_THROW(IncrementalMerkleTree(0), ContractViolation);
  EXPECT_THROW(IncrementalMerkleTree(41), ContractViolation);
}

TEST(MerkleTree, StorageGrowsLinearly) {
  // A tree with N leaves stores ~2N nodes (leaves + internal levels), so
  // storage is linear in membership: ~64 bytes per member amortized. The
  // paged arena rounds each page's stored prefix up to a power of two,
  // which adds under one page per level of slack on top of the dense
  // ~2N·32 bytes.
  IncrementalMerkleTree tree(20);
  for (std::uint64_t i = 0; i < 1000; ++i) tree.insert(leaf_of(i));
  const std::size_t s1000 = tree.storage_bytes();
  const std::size_t page_slack = 21 * PagedNodeArena::kPageNodes * 32;
  EXPECT_GT(s1000, 1000u * 2 * 32 * 9 / 10);
  EXPECT_LT(s1000, 1000u * 2 * 32 + page_slack);
}

TEST(MerkleTree, SmallGroupTreeStaysSmall) {
  // A relay in a 32-member group holds the paper's depth-20 tree, which
  // touches one page per level, and 15 of those levels hold one node:
  // each page must cost what it holds for the tree to be small.
  IncrementalMerkleTree tree(20);
  for (std::uint64_t i = 0; i < 32; ++i) tree.insert(leaf_of(i));
  EXPECT_LE(tree.storage_bytes(), 4096u);
  EXPECT_GE(tree.storage_bytes(), 32u * 2 * 32);
}

// --- Page growth inside the arena ---

Fr arena_value(std::uint64_t i) { return Fr::from_u64(5000 + i); }

TEST(PagedNodeArena, ValuesSurviveEachPageGrowth) {
  // Writing offsets 0..kPageNodes-1 grows the first page 1, 2, 4, ..., 64
  // nodes wide; every growth must carry the nodes already written.
  PagedNodeArena arena(12);
  std::size_t grown = 0;
  for (std::uint64_t i = 0; i < PagedNodeArena::kPageNodes; ++i) {
    const std::size_t before = arena.storage_bytes();
    arena.set(0, i, arena_value(i));
    if (arena.storage_bytes() != before) {
      ++grown;
      // The next power of two that holds offset i.
      EXPECT_EQ(arena.storage_bytes(), std::bit_ceil(i + 1) * 32) << i;
    }
    for (std::uint64_t j = 0; j <= i; ++j) {
      ASSERT_EQ(arena.get(0, j), arena_value(j)) << "wrote " << i;
    }
  }
  EXPECT_EQ(grown, 7u);  // 1, 2, 4, 8, 16, 32, 64
  // A write far into the page grows it in one step, past the copies.
  PagedNodeArena jump(12);
  jump.set(1, 1, arena_value(1));
  jump.set(1, 40, arena_value(40));
  EXPECT_EQ(jump.storage_bytes(), PagedNodeArena::kPageNodes * 32);
  EXPECT_EQ(jump.get(1, 1), arena_value(1));
  EXPECT_EQ(jump.get(1, 40), arena_value(40));
  EXPECT_EQ(jump.get(1, 0), zero_at(1));
}

TEST(PagedNodeArena, ReadsPastTheWrittenPartAreTheZeroLadder) {
  PagedNodeArena arena(20);
  for (std::size_t level = 0; level <= 20; ++level) {
    arena.set(level, 0, arena_value(level));
  }
  for (std::size_t level = 0; level <= 20; ++level) {
    EXPECT_EQ(arena.get(level, 0), arena_value(level));
    const std::uint64_t last = (std::uint64_t{1} << (20 - level)) - 1;
    if (last == 0) continue;  // the root level holds one node
    // Next to the stored node inside its page, and the level's far end.
    EXPECT_EQ(arena.get(level, 1), zero_at(level)) << "level " << level;
    EXPECT_EQ(arena.get(level, last), zero_at(level)) << "level " << level;
  }
  // 21 levels, one node each.
  EXPECT_EQ(arena.storage_bytes(), 21u * 32);
}

TEST(PagedNodeArena, ZeroWritesPastTheWrittenPartAllocateNothing) {
  PagedNodeArena arena(12);
  arena.set(0, 0, arena_value(0));
  arena.set(0, 2, arena_value(2));  // page holds 4
  const std::size_t held = arena.storage_bytes();
  ASSERT_EQ(held, 4u * 32);
  arena.set(0, 40, zero_at(0));    // past the stored prefix of page 0
  arena.set(0, 100, zero_at(0));   // inside a page never written
  arena.set(0, 4095, zero_at(0));  // the level's last node
  EXPECT_EQ(arena.storage_bytes(), held);
  // The high-water mark still counts them: it is the serialized prefix.
  EXPECT_EQ(arena.used(0), 4096u);
  // A zero write inside the stored prefix is an ordinary overwrite.
  arena.set(0, 2, zero_at(0));
  EXPECT_EQ(arena.get(0, 2), zero_at(0));
  EXPECT_EQ(arena.storage_bytes(), held);
}

TEST(MerkleTree, UpdateAcrossAGrownPageBoundaryKeepsPathsValid) {
  // Five leaves grow the first leaf page 4 -> 8; leaf 4 is the first node
  // past the old boundary, leaf 3 the last before it. Updating either
  // one, and appending across the next growth, must keep every path valid.
  IncrementalMerkleTree tree(12);
  for (std::uint64_t i = 0; i < 5; ++i) tree.insert(leaf_of(i));
  std::vector<Fr> leaves;
  for (std::uint64_t i = 0; i < 5; ++i) leaves.push_back(leaf_of(i));
  const auto all_paths_valid = [&] {
    for (std::uint64_t i = 0; i < leaves.size(); ++i) {
      if (!verify_path(tree.root(), leaves[i], tree.auth_path(i))) {
        return false;
      }
    }
    return true;
  };
  tree.update(4, leaf_of(4004));
  leaves[4] = leaf_of(4004);
  EXPECT_TRUE(all_paths_valid());
  tree.update(3, leaf_of(3003));
  leaves[3] = leaf_of(3003);
  EXPECT_TRUE(all_paths_valid());
  for (std::uint64_t i = 5; i < 9; ++i) {  // grows 8 -> 16
    tree.insert(leaf_of(i));
    leaves.push_back(leaf_of(i));
  }
  tree.update(8, leaf_of(8008));
  leaves[8] = leaf_of(8008);
  tree.remove(7);
  leaves[7] = Fr::zero();
  EXPECT_TRUE(all_paths_valid());
  // Same root as a tree that never grew a page: inserted in one batch.
  IncrementalMerkleTree batch(12);
  batch.insert_batch(leaves);
  EXPECT_EQ(tree.root(), batch.root());
}

// --- Paged arena backend ---

// Reference implementation: the pre-arena dense-vector tree, kept here so
// the paged backend is checked against an independent computation of the
// same zero-padded geometry rather than against itself.
class DenseReferenceTree {
 public:
  explicit DenseReferenceTree(std::size_t depth)
      : depth_(depth), levels_(depth + 1) {}

  void insert(const Fr& leaf) {
    std::uint64_t idx = count_++;
    store(0, idx, leaf);
    for (std::size_t l = 0; l < depth_; ++l) {
      const std::uint64_t parent = idx >> 1;
      store(l + 1, parent,
            hash::poseidon2(node(l, parent * 2), node(l, parent * 2 + 1)));
      idx = parent;
    }
  }

  [[nodiscard]] Fr root() const { return node(depth_, 0); }
  [[nodiscard]] Fr node(std::size_t l, std::uint64_t i) const {
    return i < levels_[l].size() ? levels_[l][i] : zero_at(l);
  }

 private:
  void store(std::size_t l, std::uint64_t i, const Fr& v) {
    if (i >= levels_[l].size()) levels_[l].resize(i + 1, zero_at(l));
    levels_[l][i] = v;
  }
  std::size_t depth_;
  std::uint64_t count_ = 0;
  std::vector<std::vector<Fr>> levels_;
};

TEST(MerkleTree, PagedArenaMatchesDenseReferenceAtDepth20) {
  // Same roots, auth paths, and interior nodes as the scattered-vector
  // implementation at the paper's depth, including the lazily-zero region
  // beyond the appended prefix (empty-subtree ladder equivalence).
  IncrementalMerkleTree paged(20);
  DenseReferenceTree dense(20);
  for (std::uint64_t i = 0; i < 300; ++i) {
    paged.insert(leaf_of(i));
    dense.insert(leaf_of(i));
    ASSERT_EQ(paged.root(), dense.root()) << "after insert " << i;
  }
  for (std::size_t l = 0; l <= 20; ++l) {
    EXPECT_EQ(paged.node_at(l, 0), dense.node(l, 0)) << "level " << l;
    // Probe beyond the materialized prefix: must read the zero ladder.
    const std::uint64_t far = (std::uint64_t{1} << (20 - l)) - 1;
    EXPECT_EQ(paged.node_at(l, far), dense.node(l, far)) << "level " << l;
  }
}

TEST(MerkleTree, PageBoundaryInsertionsKeepPathsValid) {
  // Straddle the first page seam at level 0 (leaves kPageNodes - 1 and
  // kPageNodes live in different slabs) and at level 1 (their parents
  // cross it at leaf 2 * kPageNodes).
  constexpr std::uint64_t kSeam = PagedNodeArena::kPageNodes;
  IncrementalMerkleTree tree(12);  // capacity 4096 > 2 pages of parents
  for (std::uint64_t i = 0; i < 2 * kSeam + 5; ++i) tree.insert(leaf_of(i));
  for (std::uint64_t i : {kSeam - 2, kSeam - 1, kSeam, kSeam + 1,
                          2 * kSeam - 1, 2 * kSeam, 2 * kSeam + 1}) {
    EXPECT_TRUE(verify_path(tree.root(), leaf_of(i), tree.auth_path(i)))
        << "leaf " << i;
  }
  // Update across the seam and re-verify both slabs see the new root.
  tree.update(kSeam, leaf_of(9999));
  EXPECT_TRUE(verify_path(tree.root(), leaf_of(9999), tree.auth_path(kSeam)));
  EXPECT_TRUE(
      verify_path(tree.root(), leaf_of(kSeam - 1), tree.auth_path(kSeam - 1)));
}

TEST(MerkleTree, InsertBatchMatchesLoopedInserts) {
  IncrementalMerkleTree batched(12);
  IncrementalMerkleTree looped(12);
  // Two batches with an odd straddle so the second batch starts mid-pair.
  std::vector<Fr> first;
  std::vector<Fr> second;
  for (std::uint64_t i = 0; i < 37; ++i) first.push_back(leaf_of(i));
  for (std::uint64_t i = 37; i < 1200; ++i) second.push_back(leaf_of(i));
  EXPECT_EQ(batched.insert_batch(first), 0u);
  EXPECT_EQ(batched.insert_batch(second), 37u);
  for (std::uint64_t i = 0; i < 1200; ++i) looped.insert(leaf_of(i));
  EXPECT_EQ(batched.size(), looped.size());
  ASSERT_EQ(batched.root(), looped.root());
  for (std::uint64_t i : {0u, 36u, 37u, 1023u, 1024u, 1199u}) {
    EXPECT_EQ(batched.auth_path(i), looped.auth_path(i)) << "leaf " << i;
  }
  EXPECT_EQ(batched.serialize(), looped.serialize());
}

// The root of a depth-20 tree after 33 inserts of Poseidon(i), pinned:
// a regression vector for the native Poseidon and the insert path.
TEST(MerkleTree, Depth20RootIsPinned) {
  IncrementalMerkleTree tree(20);
  for (std::uint64_t i = 0; i < 33; ++i) {
    tree.insert(hash::poseidon1(Fr::from_u64(i)));
  }
  EXPECT_EQ(ff::fr_to_hex(tree.root()),
            "0x2bb094b944eb2c381844c444fd5846261e"
            "3329572c6ad5a13b0a683c579dcb7f");
}

TEST(MerkleTree, InsertBatchEnforcesCapacity) {
  IncrementalMerkleTree tree(3);
  std::vector<Fr> nine(9, leaf_of(1));
  EXPECT_THROW(tree.insert_batch(nine), ContractViolation);
  std::vector<Fr> eight(8, leaf_of(1));
  tree.insert_batch(eight);
  EXPECT_EQ(tree.size(), 8u);
  EXPECT_THROW(tree.insert(leaf_of(2)), ContractViolation);
}

TEST(MerkleTree, SerializeRoundTripPreservesPagedState) {
  IncrementalMerkleTree tree(12);
  for (std::uint64_t i = 0; i < PagedNodeArena::kPageNodes + 17; ++i) {
    tree.insert(leaf_of(i));
  }
  tree.remove(5);  // a zero leaf inside the dense prefix must round-trip
  const Bytes blob = tree.serialize();
  IncrementalMerkleTree back = IncrementalMerkleTree::deserialize(blob);
  EXPECT_EQ(back.root(), tree.root());
  EXPECT_EQ(back.size(), tree.size());
  EXPECT_EQ(back.leaf(5), Fr::zero());
  EXPECT_EQ(back.serialize(), blob);  // byte-identical re-serialization
  EXPECT_EQ(back.storage_bytes(), tree.storage_bytes());
  // Restored tree keeps appending correctly across the page seam.
  back.insert(leaf_of(7777));
  tree.insert(leaf_of(7777));
  EXPECT_EQ(back.root(), tree.root());
}

TEST(MerkleTree, DifferentInsertionOrdersGiveDifferentRoots) {
  IncrementalMerkleTree a(6);
  IncrementalMerkleTree b(6);
  a.insert(leaf_of(1));
  a.insert(leaf_of(2));
  b.insert(leaf_of(2));
  b.insert(leaf_of(1));
  EXPECT_NE(a.root(), b.root());
}

// --- Partial (O(log N)) view ---

TEST(PartialView, SnapshotMatchesTree) {
  IncrementalMerkleTree tree(10);
  for (std::uint64_t i = 0; i < 20; ++i) tree.insert(leaf_of(i));
  const auto view = PartialMerkleView::from_tree(tree, 5);
  EXPECT_EQ(view.root(), tree.root());
  EXPECT_EQ(view.auth_path(), tree.auth_path(5));
  EXPECT_EQ(view.size(), tree.size());
}

TEST(PartialView, TracksAppends) {
  IncrementalMerkleTree tree(10);
  for (std::uint64_t i = 0; i < 3; ++i) tree.insert(leaf_of(i));
  auto view = PartialMerkleView::from_tree(tree, 1);

  for (std::uint64_t i = 3; i < 50; ++i) {
    tree.insert(leaf_of(i));
    view.on_insert(leaf_of(i));
    ASSERT_EQ(view.root(), tree.root()) << "after insert " << i;
    ASSERT_EQ(view.auth_path(), tree.auth_path(1)) << "after insert " << i;
  }
}

TEST(PartialView, TracksUpdatesAtOtherIndices) {
  IncrementalMerkleTree tree(8);
  for (std::uint64_t i = 0; i < 12; ++i) tree.insert(leaf_of(i));
  auto view = PartialMerkleView::from_tree(tree, 4);

  Rng rng(173);
  for (int step = 0; step < 30; ++step) {
    const std::uint64_t target = rng.next_below(12);
    if (target == 4) continue;
    const Fr old_leaf = tree.leaf(target);
    const Fr new_leaf = Fr::random(rng);
    const MerklePath path = tree.auth_path(target);
    tree.update(target, new_leaf);
    view.on_update(target, old_leaf, new_leaf, path);
    ASSERT_EQ(view.root(), tree.root()) << "step " << step;
    ASSERT_EQ(view.auth_path(), tree.auth_path(4)) << "step " << step;
  }
}

TEST(PartialView, TracksOwnUpdate) {
  IncrementalMerkleTree tree(8);
  for (std::uint64_t i = 0; i < 6; ++i) tree.insert(leaf_of(i));
  auto view = PartialMerkleView::from_tree(tree, 2);

  const Fr new_leaf = Fr::from_u64(777);
  const MerklePath path = tree.auth_path(2);
  const Fr old_leaf = tree.leaf(2);
  tree.update(2, new_leaf);
  view.on_update(2, old_leaf, new_leaf, path);
  EXPECT_EQ(view.root(), tree.root());
  EXPECT_EQ(view.my_leaf(), new_leaf);
}

TEST(PartialView, InterleavedInsertsAndDeletes) {
  // The real event stream: registrations interleaved with slashings.
  IncrementalMerkleTree tree(10);
  for (std::uint64_t i = 0; i < 4; ++i) tree.insert(leaf_of(i));
  auto view = PartialMerkleView::from_tree(tree, 0);

  Rng rng(179);
  for (int step = 0; step < 100; ++step) {
    if (rng.chance(0.6) && tree.size() < 1000) {
      const Fr leaf = Fr::random(rng);
      tree.insert(leaf);
      view.on_insert(leaf);
    } else {
      const std::uint64_t target = 1 + rng.next_below(tree.size() - 1);
      const Fr old_leaf = tree.leaf(target);
      const MerklePath path = tree.auth_path(target);
      tree.remove(target);
      view.on_update(target, old_leaf, Fr::zero(), path);
    }
    ASSERT_EQ(view.root(), tree.root()) << "step " << step;
    ASSERT_EQ(view.auth_path(), tree.auth_path(0)) << "step " << step;
  }
}

TEST(PartialView, StalePathRejected) {
  IncrementalMerkleTree tree(8);
  for (std::uint64_t i = 0; i < 8; ++i) tree.insert(leaf_of(i));
  auto view = PartialMerkleView::from_tree(tree, 0);

  // Capture index 3's path, then let another update land (which the view
  // processes correctly). Indices 3 and 5 share ancestry at level 2, so
  // the captured path is now stale and must be rejected.
  const MerklePath stale = tree.auth_path(3);
  const Fr old3 = tree.leaf(3);
  const Fr old5 = tree.leaf(5);
  const MerklePath path5 = tree.auth_path(5);
  tree.update(5, Fr::from_u64(555));
  view.on_update(5, old5, Fr::from_u64(555), path5);
  ASSERT_EQ(view.root(), tree.root());

  EXPECT_THROW(view.on_update(3, old3, Fr::zero(), stale), ContractViolation);
}

TEST(PartialView, WrongOldLeafRejected) {
  IncrementalMerkleTree tree(8);
  for (std::uint64_t i = 0; i < 8; ++i) tree.insert(leaf_of(i));
  auto view = PartialMerkleView::from_tree(tree, 0);
  const MerklePath path = tree.auth_path(3);
  EXPECT_THROW(view.on_update(3, Fr::from_u64(424242), Fr::zero(), path),
               ContractViolation);
}

TEST(PartialView, StorageIsLogarithmic) {
  IncrementalMerkleTree tree(20);
  for (std::uint64_t i = 0; i < 4096; ++i) tree.insert(leaf_of(i));
  const auto view = PartialMerkleView::from_tree(tree, 100);

  // Full tree: megabytes at scale. Partial view: ~(2*depth+2)*32 bytes.
  EXPECT_LT(view.storage_bytes(), 2048u);
  EXPECT_GT(tree.storage_bytes(), 100'000u);
}

// Parameterized: views at several member positions all stay in sync.
class PartialViewPositions : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PartialViewPositions, StaysInSyncThroughMixedEvents) {
  const std::uint64_t pos = GetParam();
  IncrementalMerkleTree tree(9);
  for (std::uint64_t i = 0; i <= pos; ++i) tree.insert(leaf_of(i));
  auto view = PartialMerkleView::from_tree(tree, pos);

  Rng rng(181 + pos);
  for (int step = 0; step < 40; ++step) {
    if (rng.chance(0.5)) {
      const Fr leaf = Fr::random(rng);
      tree.insert(leaf);
      view.on_insert(leaf);
    } else {
      const std::uint64_t target = rng.next_below(tree.size());
      if (target == pos) continue;
      const Fr old_leaf = tree.leaf(target);
      const MerklePath path = tree.auth_path(target);
      const Fr new_leaf = rng.chance(0.5) ? Fr::zero() : Fr::random(rng);
      tree.update(target, new_leaf);
      view.on_update(target, old_leaf, new_leaf, path);
    }
    ASSERT_EQ(view.root(), tree.root());
    ASSERT_EQ(view.auth_path(), tree.auth_path(pos));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PartialViewPositions,
                         ::testing::Values(0u, 1u, 2u, 3u, 7u, 8u, 15u));

}  // namespace
}  // namespace waku::merkle

// Paged node arena: the dense storage backend for IncrementalMerkleTree.
//
// A depth-20 tree has ~2^21 nodes; held as per-level std::vectors the
// append path pays reallocation copies (a 1M-leaf level-0 vector is 32 MB
// moved several times over) and a sparse tree still materializes every
// prefix slot. The arena instead slices each level into fixed-width pages
// of contiguous Fr slabs, level-major. A page stores only the prefix of its
// range up to the highest offset written, rounded up to a power of two and
// grown geometrically to at most kPageNodes; everything past that prefix,
// and every page never written, reads back as the precomputed empty-subtree
// ladder (zero_at), so empty regions cost nothing. A full 2^20-leaf tree is
// ~33k full 2 KB pages (~67 MB, the figure §IV quotes), a 1k-leaf tree in
// the same depth-20 geometry stores ~64 KB, and a 32-member group 2.5 KB.
//
// Page width is clamped to the level's capacity (level d-1 has two nodes),
// and a page holds no more than the next power of two over what was
// written into it, so slack from page rounding is under half of each
// partly written page. Most trees are small: a 32-member group touches
// one page on each of the 21 levels, and 15 of those pages hold one node.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ff/fr.hpp"

namespace waku::merkle {

using ff::Fr;

/// Hash of an empty subtree whose root sits at `level` (level 0 = leaf).
/// Defined in merkle_tree.cpp; the arena uses it as the backing value for
/// unmaterialized pages.
const Fr& zero_at(std::size_t level);

class PagedNodeArena {
 public:
  /// Nodes per page at full-width levels (2 KB of Fr per page).
  static constexpr std::size_t kPageNodes = 64;

  /// `depth` in [1, 40]; the arena stores levels 0..depth inclusive.
  explicit PagedNodeArena(std::size_t depth);

  /// Page width at `level`: kPageNodes clamped to the level's capacity.
  [[nodiscard]] std::uint64_t page_nodes(std::size_t level) const {
    const std::uint64_t cap = level_capacity(level);
    return cap < kPageNodes ? cap : kPageNodes;
  }

  /// Node value at (level, idx); the zero-subtree hash when it lies past
  /// the written prefix of its page.
  [[nodiscard]] const Fr& get(std::size_t level, std::uint64_t idx) const;

  /// Stores a node, growing its page's prefix to hold it. Writing the
  /// level's zero value past that prefix only advances the high-water
  /// mark — the page stays as it is, so deletions and restores of
  /// mostly-empty regions allocate nothing.
  void set(std::size_t level, std::uint64_t idx, const Fr& value);

  /// High-water mark: one past the highest index ever set() at `level`.
  /// Matches the dense prefix length the serialized form carries.
  [[nodiscard]] std::uint64_t used(std::size_t level) const {
    return levels_[level].used;
  }

  [[nodiscard]] std::size_t depth() const { return depth_; }

  /// Bytes of node storage actually allocated (the stored page prefixes).
  [[nodiscard]] std::size_t storage_bytes() const;

 private:
  struct Page {
    // nodes[0, capacity) covers the first `capacity` indices of the page's
    // range; the rest of the range (all of it when capacity is 0) is the
    // zero-subtree hash. capacity is a power of two <= page_nodes, or 0.
    std::unique_ptr<Fr[]> nodes;
    std::uint32_t capacity = 0;
  };

  struct Level {
    // pages[p] covers node indices [p*page_nodes, (p+1)*page_nodes).
    std::vector<Page> pages;
    std::uint64_t used = 0;
  };

  [[nodiscard]] std::uint64_t level_capacity(std::size_t level) const {
    return std::uint64_t{1} << (depth_ - level);
  }

  std::size_t depth_;
  std::vector<Level> levels_;
};

}  // namespace waku::merkle

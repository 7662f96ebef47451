#include "merkle/node_arena.hpp"

#include <algorithm>
#include <bit>

#include "common/expect.hpp"

namespace waku::merkle {

PagedNodeArena::PagedNodeArena(std::size_t depth)
    : depth_(depth), levels_(depth + 1) {
  WAKU_EXPECTS(depth >= 1 && depth <= 40);
}

const Fr& PagedNodeArena::get(std::size_t level, std::uint64_t idx) const {
  WAKU_EXPECTS(level <= depth_ && idx < level_capacity(level));
  const Level& lvl = levels_[level];
  const std::uint64_t per_page = page_nodes(level);
  const std::uint64_t page = idx / per_page;
  const std::uint64_t offset = idx % per_page;
  if (page >= lvl.pages.size() || offset >= lvl.pages[page].capacity) {
    return zero_at(level);
  }
  return lvl.pages[page].nodes[offset];
}

void PagedNodeArena::set(std::size_t level, std::uint64_t idx,
                         const Fr& value) {
  WAKU_EXPECTS(level <= depth_ && idx < level_capacity(level));
  Level& lvl = levels_[level];
  if (idx >= lvl.used) lvl.used = idx + 1;
  const std::uint64_t per_page = page_nodes(level);
  const std::uint64_t page = idx / per_page;
  const std::uint64_t offset = idx % per_page;
  if (page >= lvl.pages.size() || offset >= lvl.pages[page].capacity) {
    const Fr& z = zero_at(level);
    if (value == z) return;  // keep the unwritten part lazy
    if (page >= lvl.pages.size()) lvl.pages.resize(page + 1);
    Page& p = lvl.pages[page];
    // Grow to the next power of two that holds `offset`: appends pay
    // log2(kPageNodes) copies per page, and a one-node level stays one node.
    const auto capacity = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(per_page, std::bit_ceil(offset + 1)));
    auto nodes = std::make_unique<Fr[]>(capacity);
    std::copy_n(p.nodes.get(), p.capacity, nodes.get());
    std::fill(nodes.get() + p.capacity, nodes.get() + capacity, z);
    p.nodes = std::move(nodes);
    p.capacity = capacity;
  }
  lvl.pages[page].nodes[offset] = value;
}

std::size_t PagedNodeArena::storage_bytes() const {
  std::size_t nodes = 0;
  for (const Level& lvl : levels_) {
    for (const Page& p : lvl.pages) nodes += p.capacity;
  }
  return nodes * 32;  // canonical Fr is 32 bytes
}

}  // namespace waku::merkle

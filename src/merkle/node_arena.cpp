#include "merkle/node_arena.hpp"

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
  if (page >= lvl.pages.size() || !lvl.pages[page]) return zero_at(level);
  return lvl.pages[page][idx % per_page];
}

void PagedNodeArena::set(std::size_t level, std::uint64_t idx,
                         const Fr& value) {
  WAKU_EXPECTS(level <= depth_ && idx < level_capacity(level));
  Level& lvl = levels_[level];
  if (idx >= lvl.used) lvl.used = idx + 1;
  const std::uint64_t per_page = page_nodes(level);
  const std::uint64_t page = idx / per_page;
  if (page >= lvl.pages.size()) {
    if (value == zero_at(level)) return;  // keep the tail lazy
    lvl.pages.resize(page + 1);
  }
  if (!lvl.pages[page]) {
    if (value == zero_at(level)) return;
    auto slab = std::make_unique<Fr[]>(per_page);
    const Fr& z = zero_at(level);
    for (std::uint64_t i = 0; i < per_page; ++i) slab[i] = z;
    lvl.pages[page] = std::move(slab);
  }
  lvl.pages[page][idx % per_page] = value;
}

std::size_t PagedNodeArena::storage_bytes() const {
  std::size_t bytes = 0;
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    std::size_t pages = 0;
    for (const auto& p : levels_[l].pages) pages += p ? 1 : 0;
    bytes += pages * page_nodes(l) * 32;  // canonical Fr is 32 bytes
  }
  return bytes;
}

}  // namespace waku::merkle

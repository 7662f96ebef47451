#include "rln/group_manager.hpp"

#include <algorithm>
#include <mutex>

#include "common/expect.hpp"
#include "common/serde.hpp"

namespace waku::rln {

using merkle::IncrementalMerkleTree;
using merkle::MerklePath;
using merkle::PartialMerkleView;

GroupManager::GroupManager(std::size_t depth, TreeMode mode,
                           std::size_t root_window)
    : depth_(depth), mode_(mode), root_window_(root_window) {
  WAKU_EXPECTS(root_window >= 1);
  root_ring_.resize(root_window_);
  tree_.emplace(depth);
  commit_block();
}

GroupManager::GroupManager(GroupManager&& other) noexcept
    : depth_(other.depth_),
      mode_(other.mode_),
      root_window_(other.root_window_),
      tree_(std::move(other.tree_)),
      view_(std::move(other.view_)),
      own_identity_(std::move(other.own_identity_)),
      own_index_(other.own_index_),
      member_count_(other.member_count_),
      removed_count_(other.removed_count_),
      pk_index_(std::move(other.pk_index_)),
      root_ring_(std::move(other.root_ring_)),
      ring_head_(other.ring_head_),
      ring_size_(other.ring_size_),
      root_version_(other.root_version_.load(std::memory_order_relaxed)),
      root_index_(std::move(other.root_index_)) {}

GroupManager& GroupManager::operator=(GroupManager&& other) noexcept {
  if (this == &other) return *this;
  depth_ = other.depth_;
  mode_ = other.mode_;
  root_window_ = other.root_window_;
  tree_ = std::move(other.tree_);
  view_ = std::move(other.view_);
  own_identity_ = std::move(other.own_identity_);
  own_index_ = other.own_index_;
  member_count_ = other.member_count_;
  removed_count_ = other.removed_count_;
  pk_index_ = std::move(other.pk_index_);
  root_ring_ = std::move(other.root_ring_);
  ring_head_ = other.ring_head_;
  ring_size_ = other.ring_size_;
  root_version_.store(other.root_version_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  root_index_ = std::move(other.root_index_);
  return *this;
}

void GroupManager::set_own_identity(const Identity& identity) {
  WAKU_EXPECTS(!own_identity_.has_value());
  own_identity_ = identity;
}

void GroupManager::commit_block() {
  const Fr r = root();
  // Single-writer: only the event-stream owner mutates the window, so the
  // unlocked newest-slot peek cannot race another writer; the lock below
  // only fences out concurrent readers.
  if (ring_size_ > 0) {
    const std::size_t newest =
        (ring_head_ + root_window_ - 1) % root_window_;
    if (root_ring_[newest] == r) return;  // root unchanged: nothing to add
  }
  ring_push(r);
}

void GroupManager::ring_push(const Fr& r) {
  {
    std::unique_lock lk(root_mu_);
    if (ring_size_ == root_window_) {
      // Evict the oldest slot (the one the head is about to overwrite).
      const Fr& old = root_ring_[ring_head_];
      const auto it = root_index_.find(old);
      if (--it->second == 0) root_index_.erase(it);
    } else {
      ++ring_size_;
    }
    root_ring_[ring_head_] = r;
    ++root_index_[r];
    ring_head_ = (ring_head_ + 1) % root_window_;
  }
  // Version bumps after the mutation is published; a reader seeing the
  // new version therefore re-reads (under the lock) at least this state.
  root_version_.fetch_add(1, std::memory_order_release);
}

void GroupManager::ring_clear() {
  {
    std::unique_lock lk(root_mu_);
    ring_head_ = 0;
    ring_size_ = 0;
    root_index_.clear();
  }
  root_version_.fetch_add(1, std::memory_order_release);
}

namespace {

bool is_registration(const chain::Event& event) {
  return event.name == "MemberRegistered" || event.name == "MembersRegistered";
}

/// Appends the pks a registration event carries to `pks`; its first leaf
/// must land at index `next` (events arrive in emission order).
void read_registration(const chain::Event& event, std::uint64_t next,
                       std::vector<Fr>& pks) {
  WAKU_EXPECTS(event.topics.size() >= 2 && event.topics[0].limb[0] == next);
  if (event.name == "MemberRegistered") {
    pks.push_back(Fr::from_u256_reduce(event.topics[1]));
    return;
  }
  // Batched registration: topics {base, n}, data = n packed 32-byte pks.
  // n is bounded by the payload before it is multiplied or sized from.
  const std::uint64_t n = event.topics[1].limb[0];
  WAKU_EXPECTS(n > 0 && n <= event.data.size() / 32 &&
               event.data.size() == n * 32);
  for (std::uint64_t i = 0; i < n; ++i) {
    pks.push_back(Fr::from_bytes_reduce(
        BytesView(event.data.data() + i * 32, 32)));
  }
}

}  // namespace

void GroupManager::apply(
    std::span<const chain::Event> events,
    const std::function<void(const chain::Event&)>& after_each) {
  std::vector<Fr> run;
  std::size_t i = 0;
  while (i < events.size()) {
    if (!is_registration(events[i])) {
      apply_other(events[i]);
      if (after_each) after_each(events[i]);
      ++i;
      continue;
    }
    // A maximal run of registrations: contiguous indices, one insert.
    const std::size_t first = i;
    run.clear();
    while (i < events.size() && is_registration(events[i])) {
      read_registration(events[i++], member_count_ + run.size(), run);
    }
    apply_registrations(run);
    if (after_each) {
      for (std::size_t k = first; k < i; ++k) after_each(events[k]);
    }
  }
}

void GroupManager::on_event(const chain::Event& event) {
  apply(std::span<const chain::Event>(&event, 1));
  commit_block();
}

void GroupManager::apply_other(const chain::Event& event) {
  if (event.name == "MemberSlashed" || event.name == "MemberWithdrawn") {
    WAKU_EXPECTS(event.topics.size() >= 2);
    // The auth path in the event data is only needed by partial views;
    // full-tree peers recompute locally and tolerate its absence.
    MerklePath path;
    if (view_.has_value()) {
      path = merkle::deserialize_path(event.data);
    }
    apply_removed(event.topics[0].limb[0],
                  Fr::from_u256_reduce(event.topics[1]), path);
  } else if (event.name == "MembersWithdrawn") {
    // Batched withdraw: topics {n, payee}, data = n records of
    // (index u64, pk 32B, u32-prefixed path). Paths are sequentially
    // valid, so partial views apply records in order.
    WAKU_EXPECTS(!event.topics.empty());
    const std::uint64_t n = event.topics[0].limb[0];
    ByteReader r(event.data);
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t index = r.read_u64();
      const Fr pk = Fr::from_bytes_reduce(r.read_raw(32));
      const Bytes path_bytes = r.read_bytes();
      MerklePath path;
      if (view_.has_value()) {
        path = merkle::deserialize_path(path_bytes);
      }
      apply_removed(index, pk, path);
    }
  }
  // Other events (SlashCommitted, ...) do not affect the tree.
}

void GroupManager::apply_registrations(std::span<const Fr> pks) {
  const std::uint64_t base = member_count_;
  if (own_identity_.has_value() && !own_index_.has_value()) {
    const auto own = std::find(pks.begin(), pks.end(), own_identity_->pk);
    if (own != pks.end()) {
      const std::size_t k = static_cast<std::size_t>(own - pks.begin());
      own_index_ = base + k;
      if (mode_ == TreeMode::kPartialView && !view_.has_value()) {
        // Bootstrap complete: shrink to the O(log N) view (paper [18]);
        // the rest of the run then goes into the view.
        append_leaves(pks.first(k + 1));
        view_ = PartialMerkleView::from_tree(*tree_, base + k);
        tree_.reset();
        pks = pks.subspan(k + 1);
      }
    }
  }
  append_leaves(pks);
}

void GroupManager::append_leaves(std::span<const Fr> pks) {
  if (pks.empty()) return;
  const std::uint64_t base = member_count_;
  if (view_.has_value()) {
    for (const Fr& pk : pks) view_->on_insert(pk);
  } else {
    tree_->insert_batch(pks);
  }
  if (mode_ == TreeMode::kFullTree) {
    for (std::size_t i = 0; i < pks.size(); ++i) {
      pk_index_[pks[i].to_u256()] = base + i;
    }
  }
  member_count_ += pks.size();
}

void GroupManager::apply_removed(std::uint64_t index, const Fr& pk,
                                 const MerklePath& path) {
  ++removed_count_;
  if (view_.has_value()) {
    view_->on_update(index, pk, Fr::zero(), path);
  } else {
    WAKU_EXPECTS(index < tree_->size());
    WAKU_EXPECTS(tree_->leaf(index) == pk);
    tree_->remove(index);
  }
  if (mode_ == TreeMode::kFullTree) {
    pk_index_.erase(pk.to_u256());
  }
  if (own_index_.has_value() && *own_index_ == index) {
    own_index_.reset();  // we were slashed/withdrawn; publishing must stop
  }
}

void GroupManager::advance_window(std::span<const Fr> roots,
                                  std::uint64_t member_count,
                                  std::uint64_t removed_count) {
  WAKU_EXPECTS(member_count >= member_count_ &&
               removed_count >= removed_count_);
  member_count_ = member_count;
  removed_count_ = removed_count;
  for (const Fr& r : roots) ring_push(r);
}

Fr GroupManager::root() const {
  return view_.has_value() ? view_->root() : tree_->root();
}

bool GroupManager::is_recent_root(const Fr& r) const {
  std::shared_lock lk(root_mu_);
  return root_index_.contains(r);
}

std::size_t GroupManager::recent_root_count() const {
  std::shared_lock lk(root_mu_);
  return ring_size_;
}

merkle::MerklePath GroupManager::own_path() const {
  WAKU_EXPECTS(own_index_.has_value());
  return view_.has_value() ? view_->auth_path()
                           : tree_->auth_path(*own_index_);
}

std::optional<std::uint64_t> GroupManager::index_of(const Fr& pk) const {
  const auto it = pk_index_.find(pk.to_u256());
  if (it == pk_index_.end()) return std::nullopt;
  return it->second;
}

merkle::MerklePath GroupManager::path_of(std::uint64_t index) const {
  WAKU_EXPECTS(mode_ == TreeMode::kFullTree && tree_.has_value());
  return tree_->auth_path(index);
}

std::vector<Fr> GroupManager::recent_roots() const {
  std::shared_lock lk(root_mu_);
  std::vector<Fr> roots;
  roots.reserve(ring_size_);
  for (std::size_t k = 0; k < ring_size_; ++k) {
    const std::size_t slot =
        (ring_head_ + root_window_ - ring_size_ + k) % root_window_;
    roots.push_back(root_ring_[slot]);
  }
  return roots;
}

Bytes GroupManager::serialize(bool include_identity) const {
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(mode_));
  w.write_u32(static_cast<std::uint32_t>(depth_));
  w.write_u64(root_window_);
  w.write_u64(member_count_);
  w.write_u64(removed_count_);

  const bool with_identity = include_identity && own_identity_.has_value();
  w.write_u8(with_identity ? 1 : 0);
  if (with_identity) {
    w.write_raw(own_identity_->sk.to_bytes_be());
  }
  w.write_u8(own_index_.has_value() ? 1 : 0);
  if (own_index_.has_value()) w.write_u64(*own_index_);

  w.write_u8(tree_.has_value() ? 1 : 0);
  if (tree_.has_value()) w.write_bytes(tree_->serialize());
  w.write_u8(view_.has_value() ? 1 : 0);
  if (view_.has_value()) w.write_bytes(view_->serialize());

  // The root window is historical state (older roots are not recomputable
  // from the current tree), so it is serialized verbatim.
  const std::vector<Fr> roots = recent_roots();
  w.write_u64(roots.size());
  for (const Fr& r : roots) w.write_raw(r.to_bytes_be());
  return std::move(w).take();
}

void GroupManager::restore(BytesView bytes) {
  ByteReader r(bytes);
  mode_ = static_cast<TreeMode>(r.read_u8());
  depth_ = r.read_u32();
  root_window_ = r.read_u64();
  WAKU_EXPECTS(root_window_ >= 1);
  member_count_ = r.read_u64();
  removed_count_ = r.read_u64();

  own_identity_.reset();
  if (r.read_u8() != 0) {
    own_identity_ =
        Identity::from_secret(Fr::from_bytes_reduce(r.read_raw(32)));
  }
  own_index_.reset();
  if (r.read_u8() != 0) own_index_ = r.read_u64();

  tree_.reset();
  if (r.read_u8() != 0) {
    tree_ = merkle::IncrementalMerkleTree::deserialize(r.read_bytes());
  }
  view_.reset();
  if (r.read_u8() != 0) {
    view_ = merkle::PartialMerkleView::deserialize(r.read_bytes());
  }

  root_ring_.assign(root_window_, Fr::zero());
  ring_clear();
  const std::uint64_t root_count = r.read_u64();
  for (std::uint64_t i = 0; i < root_count; ++i) {
    ring_push(Fr::from_bytes_reduce(r.read_raw(32)));
  }
  rebuild_pk_index();
}

void GroupManager::rebuild_pk_index() {
  pk_index_.clear();
  if (mode_ != TreeMode::kFullTree || !tree_.has_value()) return;
  for (std::uint64_t i = 0; i < tree_->size(); ++i) {
    const Fr& leaf = tree_->leaf(i);
    if (!leaf.is_zero()) pk_index_[leaf.to_u256()] = i;
  }
}

GroupCheckpoint GroupManager::export_checkpoint() const {
  WAKU_EXPECTS(mode_ == TreeMode::kFullTree && tree_.has_value());
  GroupCheckpoint checkpoint;
  checkpoint.member_count = member_count_;
  checkpoint.removed_count = removed_count_;
  checkpoint.recent_roots = recent_roots();
  checkpoint.view = merkle::PartialMerkleView::root_tracker(*tree_).serialize();
  return checkpoint;
}

GroupManager GroupManager::from_checkpoint(const GroupCheckpoint& checkpoint,
                                           std::size_t root_window) {
  merkle::PartialMerkleView view =
      merkle::PartialMerkleView::deserialize(checkpoint.view);
  WAKU_EXPECTS(!checkpoint.recent_roots.empty());
  WAKU_EXPECTS(checkpoint.recent_roots.back() == view.root());

  GroupManager group(view.depth(), TreeMode::kPartialView, root_window);
  group.tree_.reset();
  group.view_ = std::move(view);
  group.member_count_ = checkpoint.member_count;
  group.removed_count_ = checkpoint.removed_count;
  group.ring_clear();
  // Adopt the exporter's window (clipped to our own capacity) so proofs
  // made against slightly older roots keep validating right after join.
  const std::size_t n = checkpoint.recent_roots.size();
  for (std::size_t k = n > root_window ? n - root_window : 0; k < n; ++k) {
    group.ring_push(checkpoint.recent_roots[k]);
  }
  return group;
}

std::size_t GroupManager::storage_bytes() const {
  // Ring slots plus the membership index (32-byte root + 4-byte refcount).
  std::size_t bytes = root_ring_.size() * 32 + root_index_.size() * (32 + 4);
  if (view_.has_value()) {
    bytes += view_->storage_bytes();
  } else {
    bytes += tree_->storage_bytes();
  }
  if (mode_ == TreeMode::kFullTree) {
    bytes += pk_index_.size() * (32 + 8);
  }
  return bytes;
}

}  // namespace waku::rln

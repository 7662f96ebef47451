#include "rln/nullifier_log.hpp"

#include <algorithm>

#include "common/expect.hpp"
#include "common/serde.hpp"

namespace waku::rln {

NullifierLog::NullifierLog(NullifierLog&& other) noexcept {
  *this = std::move(other);
}

NullifierLog& NullifierLog::operator=(NullifierLog&& other) noexcept {
  if (this == &other) return *this;
  buckets_ = std::move(other.buckets_);
  min_epoch_ = other.min_epoch_;
  entries_ = other.entries_;
  conflicts_ = other.conflicts_;
  return *this;
}

NullifierLog::Result NullifierLog::observe(std::uint64_t epoch,
                                           const Fr& nullifier,
                                           const sss::Share& share,
                                           std::uint64_t proof_fp) {
  std::lock_guard lk(mu_);
  const auto [bit, new_bucket] = buckets_.try_emplace(epoch);
  Bucket& bucket = bit->second;
  const auto it = bucket.find(nullifier);
  if (it == bucket.end()) {
    bucket.emplace(nullifier, Entry{share, proof_fp});
    // A duplicate or conflict implies the epoch's bucket already exists,
    // hence min_epoch_ <= epoch: only a new entry can move the watermark.
    const bool was_empty = new_bucket && buckets_.size() == 1;
    min_epoch_ = was_empty ? epoch : std::min(min_epoch_, epoch);
    ++entries_;
    return Result{Outcome::kNew, std::nullopt, false};
  }
  if (it->second.share == share) {
    return Result{Outcome::kDuplicate, std::nullopt, false};
  }
  // Equivocation. Two distinct x coordinates pin down the line and hence
  // sk; an identical x with a different y cannot (interpolation needs
  // distinct points) but is still a double-signal, never a duplicate.
  ++conflicts_;
  return Result{Outcome::kConflict, it->second.share,
                it->second.share.x != share.x};
}

std::optional<NullifierLog::Entry> NullifierLog::peek(
    std::uint64_t epoch, const Fr& nullifier) const {
  std::lock_guard lk(mu_);
  const auto bit = buckets_.find(epoch);
  if (bit == buckets_.end()) return std::nullopt;
  const auto it = bit->second.find(nullifier);
  if (it == bit->second.end()) return std::nullopt;
  return it->second;
}

void NullifierLog::gc(std::uint64_t current_epoch, std::uint64_t thr) {
  const std::uint64_t cutoff =
      current_epoch > thr ? current_epoch - thr : 0;
  std::lock_guard lk(mu_);
  if (buckets_.empty()) {
    min_epoch_ = cutoff;
    return;
  }
  if (cutoff <= min_epoch_) return;
  const auto end = buckets_.lower_bound(cutoff);
  for (auto it = buckets_.begin(); it != end; ++it) {
    entries_ -= it->second.size();
  }
  buckets_.erase(buckets_.begin(), end);
  min_epoch_ = cutoff;
}

NullifierLog::Stats NullifierLog::stats() const {
  std::lock_guard lk(mu_);
  return Stats{entries_, buckets_.size(), conflicts_, min_epoch_};
}

std::size_t NullifierLog::epoch_count() const {
  std::lock_guard lk(mu_);
  return buckets_.size();
}

std::size_t NullifierLog::entry_count() const {
  std::lock_guard lk(mu_);
  return entries_;
}

std::vector<std::pair<std::uint64_t, std::size_t>>
NullifierLog::bucket_sizes() const {
  std::lock_guard lk(mu_);
  std::vector<std::pair<std::uint64_t, std::size_t>> sizes;
  sizes.reserve(buckets_.size());
  for (const auto& [epoch, bucket] : buckets_) {
    sizes.emplace_back(epoch, bucket.size());
  }
  return sizes;
}

Bytes NullifierLog::serialize() const {
  std::lock_guard lk(mu_);
  ByteWriter w;
  w.write_u64(min_epoch_);
  w.write_u64(conflicts_);
  w.write_u64(buckets_.size());
  for (const auto& [epoch, bucket] : buckets_) {
    w.write_u64(epoch);
    w.write_u64(bucket.size());
    // Canonical entry order: sort by the nullifier's integer value so two
    // logs with equal contents emit equal bytes regardless of hash-table
    // iteration order.
    std::vector<const std::pair<const Fr, Entry>*> rows;
    rows.reserve(bucket.size());
    for (const auto& row : bucket) rows.push_back(&row);
    std::sort(rows.begin(), rows.end(), [](const auto* a, const auto* b) {
      return a->first.to_u256() < b->first.to_u256();
    });
    for (const auto* row : rows) {
      w.write_raw(row->first.to_bytes_be());
      w.write_raw(row->second.share.x.to_bytes_be());
      w.write_raw(row->second.share.y.to_bytes_be());
      w.write_u64(row->second.proof_fp);
    }
  }
  return std::move(w).take();
}

void NullifierLog::restore(BytesView bytes) {
  ByteReader r(bytes);
  const std::uint64_t min_epoch = r.read_u64();
  const std::uint64_t conflicts = r.read_u64();
  const std::uint64_t bucket_count = r.read_u64();
  std::map<std::uint64_t, Bucket> buckets;
  std::size_t entries = 0;
  for (std::uint64_t b = 0; b < bucket_count; ++b) {
    const std::uint64_t epoch = r.read_u64();
    // nullifier, share x and y (32 B each) + proof fingerprint u64.
    const std::size_t entry_count = r.bounded_count(r.read_u64(), 3 * 32 + 8);
    Bucket& bucket = buckets[epoch];
    bucket.reserve(entry_count);
    for (std::size_t e = 0; e < entry_count; ++e) {
      const Fr nullifier = Fr::from_bytes_reduce(r.read_raw(32));
      Entry entry;
      entry.share.x = Fr::from_bytes_reduce(r.read_raw(32));
      entry.share.y = Fr::from_bytes_reduce(r.read_raw(32));
      entry.proof_fp = r.read_u64();
      bucket.emplace(nullifier, entry);
      ++entries;
    }
  }
  std::lock_guard lk(mu_);
  buckets_ = std::move(buckets);
  min_epoch_ = min_epoch;
  entries_ = entries;
  conflicts_ = conflicts;
}

void NullifierLog::seed_watermark(std::uint64_t min_epoch) {
  std::lock_guard lk(mu_);
  WAKU_EXPECTS(buckets_.empty());
  min_epoch_ = min_epoch;
}

std::size_t NullifierLog::storage_bytes() const {
  // nullifier (32) + share x,y (64) + proof fingerprint (8) per entry,
  // plus per-epoch key.
  std::lock_guard lk(mu_);
  return entries_ * 104 + buckets_.size() * 8;
}

}  // namespace waku::rln

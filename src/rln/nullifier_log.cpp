#include "rln/nullifier_log.hpp"

#include <algorithm>

#include "common/expect.hpp"
#include "common/serde.hpp"

namespace waku::rln {

NullifierLog::NullifierLog(NullifierLog&& other) noexcept {
  for (std::size_t i = 0; i < kStripes; ++i) {
    stripes_[i].buckets = std::move(other.stripes_[i].buckets);
    stripes_[i].acquisitions.store(
        other.stripes_[i].acquisitions.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    stripes_[i].contended.store(
        other.stripes_[i].contended.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
  }
  min_epoch_ = other.min_epoch_;
  sweep_floor_ = other.sweep_floor_;
  entries_ = other.entries_;
  bucket_count_ = other.bucket_count_;
  conflicts_.store(other.conflicts_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
}

NullifierLog& NullifierLog::operator=(NullifierLog&& other) noexcept {
  if (this == &other) return *this;
  for (std::size_t i = 0; i < kStripes; ++i) {
    stripes_[i].buckets = std::move(other.stripes_[i].buckets);
    stripes_[i].acquisitions.store(
        other.stripes_[i].acquisitions.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    stripes_[i].contended.store(
        other.stripes_[i].contended.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
  }
  min_epoch_ = other.min_epoch_;
  sweep_floor_ = other.sweep_floor_;
  entries_ = other.entries_;
  bucket_count_ = other.bucket_count_;
  conflicts_.store(other.conflicts_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  return *this;
}

NullifierLog::Result NullifierLog::observe(std::uint64_t epoch,
                                           const Fr& nullifier,
                                           const sss::Share& share,
                                           std::uint64_t proof_fp) {
  bool new_entry = false;
  bool new_bucket = false;
  Result result;
  {
    Stripe& stripe = stripe_for(epoch);
    lock_counted(stripe);
    std::lock_guard lk(stripe.mu, std::adopt_lock);
    auto bit = stripe.buckets.find(epoch);
    if (bit == stripe.buckets.end()) {
      bit = stripe.buckets.emplace(epoch, Bucket{}).first;
      new_bucket = true;
    }
    Bucket& bucket = bit->second;
    const auto it = bucket.find(nullifier);
    if (it == bucket.end()) {
      bucket.emplace(nullifier, Entry{share, proof_fp});
      new_entry = true;
      result = Result{Outcome::kNew, std::nullopt, false};
    } else if (it->second.share == share) {
      result = Result{Outcome::kDuplicate, std::nullopt, false};
    } else {
      // Equivocation. Two distinct x coordinates pin down the line and
      // hence sk; an identical x with a different y cannot (interpolation
      // needs distinct points) but is still a double-signal, never a
      // duplicate.
      conflicts_.fetch_add(1, std::memory_order_relaxed);
      result = Result{Outcome::kConflict, it->second.share,
                      it->second.share.x != share.x};
    }
  }
  if (new_entry) {
    // Meta is taken only after the stripe lock is released. A duplicate or
    // conflict implies the epoch's bucket already exists, which implies
    // min_epoch_ <= epoch — so skipping meta on those paths matches the
    // unconditional watermark update the single-threaded log performed.
    std::lock_guard lk(meta_mu_);
    if (bucket_count_ == 0) {
      min_epoch_ = epoch;
    } else {
      min_epoch_ = std::min(min_epoch_, epoch);
    }
    sweep_floor_ = std::min(sweep_floor_, epoch);
    ++entries_;
    if (new_bucket) ++bucket_count_;
  }
  return result;
}

std::optional<NullifierLog::Entry> NullifierLog::peek(
    std::uint64_t epoch, const Fr& nullifier) const {
  const Stripe& stripe = stripe_for(epoch);
  lock_counted(stripe);
  std::lock_guard lk(stripe.mu, std::adopt_lock);
  const auto bit = stripe.buckets.find(epoch);
  if (bit == stripe.buckets.end()) return std::nullopt;
  const auto it = bit->second.find(nullifier);
  if (it == bit->second.end()) return std::nullopt;
  return it->second;
}

void NullifierLog::gc(std::uint64_t current_epoch, std::uint64_t thr) {
  const std::uint64_t cutoff =
      current_epoch > thr ? current_epoch - thr : 0;
  {
    std::lock_guard lk(meta_mu_);
    if (bucket_count_ == 0) {
      min_epoch_ = cutoff;
      return;
    }
    if (cutoff <= min_epoch_) return;
    sweep_floor_ = cutoff;
  }
  // Expire whole epoch buckets, one stripe at a time (meta is not held
  // across the sweep — lock rule). Each stripe holds at most ~thr/kStripes
  // live epochs in steady state, so this is O(live epochs) total.
  std::size_t removed_entries = 0;
  std::size_t removed_buckets = 0;
  for (Stripe& stripe : stripes_) {
    lock_counted(stripe);
    std::lock_guard lk(stripe.mu, std::adopt_lock);
    for (auto it = stripe.buckets.begin(); it != stripe.buckets.end();) {
      if (it->first < cutoff) {
        removed_entries += it->second.size();
        ++removed_buckets;
        it = stripe.buckets.erase(it);
      } else {
        ++it;
      }
    }
  }
  std::lock_guard lk(meta_mu_);
  entries_ -= removed_entries;
  bucket_count_ -= removed_buckets;
  // An observe racing this sweep can land an entry below the cutoff after
  // its stripe was already swept. It lowered sweep_floor_ to its epoch, so
  // the watermark stops there instead of passing over the live bucket, and
  // the next gc sweeps it.
  min_epoch_ = std::max(min_epoch_, sweep_floor_);
}

NullifierLog::Stats NullifierLog::stats() const {
  Stats s;
  {
    std::lock_guard lk(meta_mu_);
    s.entries = entries_;
    s.buckets = bucket_count_;
    s.min_epoch = min_epoch_;
  }
  s.conflicts = conflicts_.load(std::memory_order_relaxed);
  for (const Stripe& stripe : stripes_) {
    s.stripe_contended += stripe.contended.load(std::memory_order_relaxed);
  }
  return s;
}

std::size_t NullifierLog::epoch_count() const {
  std::lock_guard lk(meta_mu_);
  return bucket_count_;
}

std::size_t NullifierLog::entry_count() const {
  std::lock_guard lk(meta_mu_);
  return entries_;
}

std::vector<std::pair<std::uint64_t, std::size_t>>
NullifierLog::bucket_sizes() const {
  // All stripe locks are held together (acquired in index order — the
  // only multi-stripe lock pattern in this class, so no order conflicts)
  // for the duration of the walk. Taking them one at a time let a
  // concurrent GC or observe move the walk's frame of reference between
  // stripes: an epoch bucket could be counted in one stripe and its
  // sibling epochs swept before their stripes were visited.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(kStripes);
  for (const Stripe& stripe : stripes_) {
    locks.emplace_back(stripe.mu);
  }
  std::vector<std::pair<std::uint64_t, std::size_t>> sizes;
  for (const Stripe& stripe : stripes_) {
    for (const auto& [epoch, bucket] : stripe.buckets) {
      sizes.emplace_back(epoch, bucket.size());
    }
  }
  std::sort(sizes.begin(), sizes.end());
  return sizes;
}

std::array<NullifierLog::StripeContention, NullifierLog::kStripes>
NullifierLog::stripe_contention() const {
  std::array<StripeContention, kStripes> out;
  for (std::size_t i = 0; i < kStripes; ++i) {
    out[i].acquisitions =
        stripes_[i].acquisitions.load(std::memory_order_relaxed);
    out[i].contended = stripes_[i].contended.load(std::memory_order_relaxed);
  }
  return out;
}

Bytes NullifierLog::serialize() const {
  ByteWriter w;
  std::vector<std::uint64_t> epochs;
  {
    std::lock_guard lk(meta_mu_);
    w.write_u64(min_epoch_);
    w.write_u64(conflicts_.load(std::memory_order_relaxed));
    w.write_u64(bucket_count_);
    epochs.reserve(bucket_count_);
  }
  for (const Stripe& stripe : stripes_) {
    std::lock_guard lk(stripe.mu);
    for (const auto& [epoch, bucket] : stripe.buckets) epochs.push_back(epoch);
  }
  std::sort(epochs.begin(), epochs.end());

  for (const std::uint64_t epoch : epochs) {
    const Stripe& stripe = stripe_for(epoch);
    std::lock_guard lk(stripe.mu);
    const Bucket& bucket = stripe.buckets.at(epoch);
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
  for (Stripe& stripe : stripes_) {
    std::lock_guard lk(stripe.mu);
    stripe.buckets.clear();
  }
  std::uint64_t min_epoch = r.read_u64();
  conflicts_.store(r.read_u64(), std::memory_order_relaxed);
  const std::uint64_t bucket_count = r.read_u64();
  std::size_t entries = 0;
  for (std::uint64_t b = 0; b < bucket_count; ++b) {
    const std::uint64_t epoch = r.read_u64();
    // nullifier, share x and y (32 B each) + proof fingerprint u64.
    const std::size_t entry_count = r.bounded_count(r.read_u64(), 3 * 32 + 8);
    Stripe& stripe = stripe_for(epoch);
    std::lock_guard lk(stripe.mu);
    Bucket& bucket = stripe.buckets[epoch];
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
  std::lock_guard lk(meta_mu_);
  min_epoch_ = min_epoch;
  entries_ = entries;
  bucket_count_ = bucket_count;
}

void NullifierLog::seed_watermark(std::uint64_t min_epoch) {
  std::lock_guard lk(meta_mu_);
  WAKU_EXPECTS(bucket_count_ == 0);
  min_epoch_ = min_epoch;
}

std::size_t NullifierLog::storage_bytes() const {
  // nullifier (32) + share x,y (64) + proof fingerprint (8) per entry,
  // plus per-epoch key.
  std::lock_guard lk(meta_mu_);
  return entries_ * 104 + bucket_count_ * 8;
}

}  // namespace waku::rln

// The nullifier map (paper §III-F): every routing peer records the
// (x, y) share and internal nullifier of each valid message for the last
// Thr epochs. A repeated nullifier within an epoch is either a duplicate
// (same share) or a double-signal (different share), in which case the two
// shares reconstruct the spammer's secret key.
//
// Storage is sharded into one hash bucket per epoch with a min-epoch
// watermark, so expiring an epoch is one bucket drop (O(1) per epoch)
// instead of a sweep over every record.
//
// Thread safety: the epoch buckets are distributed over a fixed set of
// lock stripes (stripe = epoch mod kStripes), so observe/peek/gc from
// different shards' worker threads (validation_executor.hpp) interleave
// without serializing on one lock — two distinct epochs almost always hit
// distinct stripes, and all traffic of one epoch must serialize anyway
// (the duplicate/conflict decision is an atomic read-modify-write on that
// epoch's bucket). The watermark and entry/bucket counters live behind a
// separate meta lock that is never held together with a stripe lock.
// observe() is linearizable per (epoch, nullifier): exactly one caller
// wins kNew, every identical-share racer sees kDuplicate, every
// conflicting-share racer sees kConflict with the recorded share.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sss/shamir.hpp"

namespace waku::rln {

using ff::Fr;

class NullifierLog {
 public:
  enum class Outcome {
    kNew,        ///< first message for this nullifier: relay it
    kDuplicate,  ///< identical share seen before: drop silently
    kConflict,   ///< different share: double-signal -> slash
  };

  struct Result {
    Outcome outcome = Outcome::kNew;
    /// On kConflict: the previously recorded share (to pair with the new
    /// one for secret recovery).
    std::optional<sss::Share> previous_share;
    /// On kConflict: whether the two shares can reconstruct sk. False when
    /// the equivocating share reuses the recorded x with a different y —
    /// identical-x points cannot be interpolated (Shamir needs distinct x),
    /// but mismatched y on the same x is still equivocation, not an echo.
    bool sk_recoverable = false;
  };

  struct Stats {
    std::size_t entries = 0;    ///< recorded (nullifier, share) pairs
    std::size_t buckets = 0;    ///< live epoch shards
    std::uint64_t conflicts = 0;  ///< double-signals observed since start
    /// GC watermark: no bucket is older than this epoch. Restart tests use
    /// it (with bucket_sizes()) to assert a restored log equals the
    /// pre-crash log.
    std::uint64_t min_epoch = 0;
    /// Total stripe-lock acquisitions that found the lock held (summed
    /// over stripes) — the direct measure of how often concurrent shard
    /// workers actually collide on a stripe.
    std::uint64_t stripe_contended = 0;
  };

  /// Stripe count: enough that 8-16 concurrent shard workers touching
  /// adjacent epochs rarely collide, small enough that whole-log walks
  /// (stats, serialize) stay trivial.
  static constexpr std::size_t kStripes = 16;

  /// Per-stripe lock traffic on the hot paths (observe/peek/gc):
  /// total acquisitions and how many of them had to wait.
  struct StripeContention {
    std::uint64_t acquisitions = 0;
    std::uint64_t contended = 0;
  };

  /// What the log remembers per (epoch, nullifier): the Shamir share plus
  /// a fingerprint of the exact proof bytes that were verified with it.
  /// The fingerprint lets the validation pipeline's echo precheck skip the
  /// SNARK only for byte-identical replays — a replay with tampered proof
  /// bytes must still reach the verifier and earn its reject penalty.
  struct Entry {
    sss::Share share;
    std::uint64_t proof_fp = 0;
  };

  NullifierLog() = default;
  NullifierLog(const NullifierLog&) = delete;
  NullifierLog& operator=(const NullifierLog&) = delete;
  /// Movable for construction-time hand-offs only (a pipeline built by a
  /// factory and returned by value). Moves are NOT thread-safe — they
  /// happen strictly before any concurrent observer exists.
  NullifierLog(NullifierLog&& other) noexcept;
  NullifierLog& operator=(NullifierLog&& other) noexcept;

  /// Checks the (epoch, nullifier, share) triple against the log and
  /// records it (with `proof_fp`) if new. Duplicate/conflict is decided
  /// by the share alone: a re-proof of the same share (proof bytes differ
  /// by randomization) is still a duplicate signal, never a conflict.
  Result observe(std::uint64_t epoch, const Fr& nullifier,
                 const sss::Share& share, std::uint64_t proof_fp = 0);

  /// Read-only probe: the entry recorded for (epoch, nullifier), if any.
  /// Lets the validation pipeline short-circuit gossip echoes before the
  /// SNARK verifier without mutating the log.
  [[nodiscard]] std::optional<Entry> peek(std::uint64_t epoch,
                                          const Fr& nullifier) const;

  /// Drops entries older than `thr` epochs before `current_epoch`
  /// (messages that old are rejected up front, so the log never needs
  /// them, §III-F). Amortized O(1) per expired epoch via the watermark.
  /// Safe concurrently with observe/peek, but not with another gc (the
  /// log's owner runs it); an observe racing the sweep with an
  /// already-expired epoch may outlive it, and then holds the watermark at
  /// or below its epoch until the next gc reclaims it.
  void gc(std::uint64_t current_epoch, std::uint64_t thr);

  [[nodiscard]] Stats stats() const;
  /// Entry count per live epoch bucket, sorted by epoch — the per-shard
  /// view behind Stats, for restart equality assertions and operators.
  /// Consistent snapshot: all stripe locks are held (in index order) for
  /// the walk, so a concurrent GC or observe can never double-count or
  /// half-count an epoch bucket.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::size_t>>
  bucket_sizes() const;
  /// One entry per lock stripe, index order.
  [[nodiscard]] std::array<StripeContention, kStripes> stripe_contention()
      const;
  [[nodiscard]] std::size_t epoch_count() const;
  [[nodiscard]] std::size_t entry_count() const;
  /// Approximate in-memory footprint (E4/E5 bookkeeping).
  [[nodiscard]] std::size_t storage_bytes() const;

  /// Canonical full-state serialization (buckets sorted by epoch, entries
  /// by nullifier) — identical logs serialize to identical bytes, which is
  /// what the crash-restart suite asserts on. Not atomic against
  /// concurrent observers; call quiescent (snapshots run on the owner).
  [[nodiscard]] Bytes serialize() const;
  /// Replaces this log's contents with a serialized state.
  void restore(BytesView bytes);

  /// Sets the GC watermark on an empty log (checkpoint bootstrap: a light
  /// client must not accept messages from epochs the serving peer already
  /// expired).
  void seed_watermark(std::uint64_t min_epoch);

 private:
  using Bucket = std::unordered_map<Fr, Entry, ff::FrHash>;

  struct Stripe {
    mutable std::mutex mu;
    std::unordered_map<std::uint64_t, Bucket> buckets;
    /// Hot-path lock traffic (observe/peek/gc). Mutable + atomic: counted
    /// before the lock is held, including from const probes.
    mutable std::atomic<std::uint64_t> acquisitions{0};
    mutable std::atomic<std::uint64_t> contended{0};
  };
  /// Counts the acquisition (and whether it had to wait) then locks.
  /// Diagnostic walkers (stats/serialize/bucket_sizes) lock plainly —
  /// the counters measure hot-path collisions, not observability cost.
  static void lock_counted(const Stripe& stripe) {
    stripe.acquisitions.fetch_add(1, std::memory_order_relaxed);
    if (!stripe.mu.try_lock()) {
      stripe.contended.fetch_add(1, std::memory_order_relaxed);
      stripe.mu.lock();
    }
  }
  Stripe& stripe_for(std::uint64_t epoch) {
    return stripes_[epoch % kStripes];
  }
  const Stripe& stripe_for(std::uint64_t epoch) const {
    return stripes_[epoch % kStripes];
  }

  std::array<Stripe, kStripes> stripes_;

  /// Guards the watermark and the live entry/bucket counters. Never held
  /// together with a stripe lock (stripe work completes first, then meta
  /// is updated), so there is no lock-order relation to deadlock on.
  mutable std::mutex meta_mu_;
  std::uint64_t min_epoch_ = 0;  ///< no bucket is older than this watermark
  /// While a gc sweeps: its cutoff, lowered by every epoch observe inserts
  /// meanwhile. The sweep may miss those epochs, so it ends with the
  /// watermark at most here.
  std::uint64_t sweep_floor_ = 0;
  std::size_t entries_ = 0;
  std::size_t bucket_count_ = 0;

  /// Atomic: bumped inside the stripe critical section (meta is not held
  /// there), read by stats().
  std::atomic<std::uint64_t> conflicts_{0};
};

}  // namespace waku::rln

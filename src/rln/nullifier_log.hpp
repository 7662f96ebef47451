// The nullifier map (paper §III-F): every routing peer records the
// (x, y) share and internal nullifier of each valid message for the last
// Thr epochs. A repeated nullifier within an epoch is either a duplicate
// (same share) or a double-signal (different share), in which case the two
// shares reconstruct the spammer's secret key.
//
// Storage is one hash bucket per epoch in an epoch-ordered map with a
// min-epoch watermark, so expiring old epochs is one range erase at the
// front of the map instead of a sweep over every record.
//
// Thread safety: one mutex guards the whole log. Each shard's pipeline
// runs on one executor lane (validation_executor.hpp), so a log has one
// writer in every workload; the lock is there for the reshard domain logs
// and for gc from the log's owner. observe() is linearizable per
// (epoch, nullifier): exactly one caller wins kNew, every identical-share
// racer sees kDuplicate, every conflicting-share racer sees kConflict with
// the recorded share.
#pragma once

#include <cstdint>
#include <map>
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
  /// them, §III-F). One range erase of the expired front epochs.
  void gc(std::uint64_t current_epoch, std::uint64_t thr);

  [[nodiscard]] Stats stats() const;
  /// Entry count per live epoch bucket, sorted by epoch — the per-shard
  /// view behind Stats, for restart equality assertions and operators.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::size_t>>
  bucket_sizes() const;
  [[nodiscard]] std::size_t epoch_count() const;
  [[nodiscard]] std::size_t entry_count() const;
  /// Approximate in-memory footprint (E4/E5 bookkeeping).
  [[nodiscard]] std::size_t storage_bytes() const;

  /// Canonical full-state serialization (buckets sorted by epoch, entries
  /// by nullifier) — identical logs serialize to identical bytes, which is
  /// what the crash-restart suite asserts on.
  [[nodiscard]] Bytes serialize() const;
  /// Replaces this log's contents with a serialized state. Malformed
  /// bytes throw and leave the log unchanged.
  void restore(BytesView bytes);

  /// Sets the GC watermark on an empty log (checkpoint bootstrap: a light
  /// client must not accept messages from epochs the serving peer already
  /// expired).
  void seed_watermark(std::uint64_t min_epoch);

 private:
  using Bucket = std::unordered_map<Fr, Entry, ff::FrHash>;

  mutable std::mutex mu_;
  std::map<std::uint64_t, Bucket> buckets_;  ///< ordered by epoch
  std::uint64_t min_epoch_ = 0;  ///< no bucket is older than this watermark
  std::size_t entries_ = 0;
  std::uint64_t conflicts_ = 0;
};

}  // namespace waku::rln

// NodeJournal: the node's write-ahead journal — the WAL record schema
// (WalTag), the persist::StateStore the records land in, and the one codec
// for the nullifier-observation record that three tags share.
//
// Chain-derived state is NOT journaled — the chain's event log is
// authoritative and replayable from the snapshot cursor; the WAL carries
// only what exists nowhere else after a crash. Each record's payload
// belongs to the part that owns the state (NodeShards: tags 1 and 5–9,
// SlashingEngine: tags 2–4, OperatorLoop: tag 10); the byte layouts are
// documented in docs/FORMATS.md.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "ff/fr.hpp"
#include "persist/state_store.hpp"
#include "sss/shamir.hpp"

namespace waku::rln {

using ff::Fr;

/// WAL record schema (v4). Shard-scoped records (kNullifier, kOwnPublish)
/// ride under the owning shard's WAL tag (persist/wal.hpp), so restart
/// recovery rebuilds each shard's state independently; node-global records
/// carry shard tag 0.
///
/// v3 added the live-reshard records: kReshardPhase journals every
/// cutover phase transition (with its parameters) so a node that crashes
/// mid-reshard replays into the correct phase fail-closed; kNullifierNext
/// carries the incoming generation's own-log mirrors (its shard ids
/// collide with the outgoing generation's, so they need their own tag);
/// kCutoverObservation carries the shared domain-log entries under the
/// DOMAIN (old-generation) shard tag.
enum class WalTag : std::uint8_t {
  kNullifier = 1,     ///< observed (epoch, nullifier, share, proof fp)
  kSlashCommit = 2,   ///< local (sk, salt) behind a commit_slash tx
  kSlashReveal = 3,   ///< reveal submitted for a commitment
  kSlashResolve = 4,  ///< pending slash retired (slashed/withdrawn/expired)
  kOwnPublish = 5,    ///< own-publish epoch (rate-limit state, §III-E)
  kReshardPhase = 6,  ///< cutover phase transition + parameters
  kNullifierNext = 7, ///< observation in the incoming generation's logs
  kCutoverObservation = 8,  ///< shared domain-log entry (old-gen shard tag)
  kReshardLingerEnd = 9,    ///< linger expired: domain dropped, quota re-keyed
  /// v4 adds the operator loop: every autonomous begin/advance is
  /// journaled (action, epoch, target) BEFORE the kReshardPhase record
  /// it causes. Replay updates only the loop's bookkeeping (cooldown /
  /// dwell anchors) — the following kReshardPhase record performs the
  /// actual transition, so nothing double-applies.
  kOperatorDecision = 10,
};

/// Payload of kNullifier / kNullifierNext / kCutoverObservation: one share
/// a validator observed in transit.
struct Observation {
  std::uint64_t epoch = 0;
  Fr nullifier;
  sss::Share share;
  std::uint64_t proof_fp = 0;
};

class NodeJournal {
 public:
  /// Opens (or creates) the durable store in `dir`. A journal never
  /// opened is ephemeral: append() is a no-op.
  void open(const std::string& dir, const persist::StateStoreConfig& config) {
    store_.emplace(dir, config);
  }
  [[nodiscard]] persist::StateStore* store() {
    return store_.has_value() ? &*store_ : nullptr;
  }
  [[nodiscard]] const persist::StateStore* store() const {
    return store_.has_value() ? &*store_ : nullptr;
  }

  void append(WalTag tag, BytesView payload, std::uint16_t shard = 0);
  /// Encodes and appends one observation record (one buffer, one append —
  /// this runs once per validated message).
  void append_observation(WalTag tag, std::uint16_t shard,
                          std::uint64_t epoch, const Fr& nullifier,
                          const sss::Share& share, std::uint64_t proof_fp);
  [[nodiscard]] static Observation read_observation(BytesView payload);

 private:
  std::optional<persist::StateStore> store_;
};

}  // namespace waku::rln

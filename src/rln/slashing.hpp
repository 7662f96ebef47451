// SlashingEngine: commit–reveal slashing of double-signalers (paper
// §III-F). Owns the in-flight slashes, their WAL records (kSlashCommit,
// kSlashReveal, kSlashResolve) with replay, and the pending-slash section
// of the node snapshot.
//
// The (sk, salt) behind a commit exists nowhere else, so every commit is
// journaled before its transaction leaves; a restarted node replays the
// pending entry and reveals when the re-replayed SlashCommitted event
// arrives.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_set>

#include "chain/blockchain.hpp"
#include "common/rng.hpp"
#include "common/serde.hpp"
#include "ff/u256.hpp"
#include "rln/group_manager.hpp"
#include "rln/node_journal.hpp"

namespace waku::rln {

struct NodeStats;

class SlashingEngine {
 public:
  /// `rng` is the node's protocol RNG (salts are drawn from it, so the
  /// draw order is part of every later proof's randomness); `stats`
  /// receives the slash_* counters. All references must outlive the
  /// engine.
  SlashingEngine(Rng& rng, NodeJournal& journal, NodeStats& stats,
                 chain::Blockchain& chain, chain::Address contract,
                 chain::Address account, std::uint64_t expiry_epochs)
      : rng_(rng),
        journal_(journal),
        stats_(stats),
        chain_(chain),
        contract_(contract),
        account_(account),
        expiry_epochs_(expiry_epochs) {}

  /// Commit step for a recovered secret key: journals (sk, salt) and
  /// submits commit_slash. Returns the member index committed against, or
  /// nullopt when the key is unknown (already slashed, light node) or a
  /// slash for it is already in flight.
  std::optional<std::uint64_t> commit(const Fr& spammer_sk,
                                      const GroupManager& group,
                                      std::uint64_t epoch);

  /// SlashCommitted (reveal our mined commitments), MemberSlashed,
  /// MemberWithdrawn and MembersWithdrawn (retire pending slashes). Returns
  /// the index a MemberSlashed event removed.
  std::optional<std::uint64_t> on_chain_event(const chain::Event& event,
                                              const GroupManager& group);

  /// Drops pending slashes committed more than expiry_epochs ago, so the
  /// index can be re-slashed.
  void expire(std::uint64_t epoch);

  [[nodiscard]] std::size_t pending_count() const {
    return pending_.size();
  }

  /// WAL replay of kSlashCommit / kSlashReveal / kSlashResolve.
  void replay(WalTag tag, BytesView payload);
  /// Snapshot section: u32 count + per pending slash (sk | salt | index |
  /// commitment | revealed u8 | commit_epoch).
  void serialize(ByteWriter& w) const;
  void restore(ByteReader& r);

 private:
  struct PendingSlash {
    Fr sk;
    ff::U256 salt;
    std::uint64_t index = 0;
    ff::U256 commitment;
    bool revealed = false;
    std::uint64_t commit_epoch = 0;
  };
  /// The kSlashCommit record is the snapshot entry without `revealed`.
  static void write_pending(ByteWriter& w, const PendingSlash& p,
                            bool with_revealed);
  static PendingSlash read_pending(ByteReader& r, bool with_revealed);
  void resolve(std::uint64_t index);

  Rng& rng_;
  NodeJournal& journal_;
  NodeStats& stats_;
  chain::Blockchain& chain_;
  chain::Address contract_;
  chain::Address account_;
  std::uint64_t expiry_epochs_;
  std::deque<PendingSlash> pending_;
  std::unordered_set<std::uint64_t> in_flight_;  ///< by member index
};

}  // namespace waku::rln

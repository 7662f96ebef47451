#include "rln/slashing.hpp"

#include "chain/rln_contract.hpp"
#include "hash/poseidon.hpp"
#include "rln/epoch.hpp"
#include "rln/node.hpp"  // NodeStats

namespace waku::rln {

void SlashingEngine::write_pending(ByteWriter& w, const PendingSlash& p,
                                   bool with_revealed) {
  w.write_raw(p.sk.to_bytes_be());
  w.write_raw(ff::u256_to_bytes_be(p.salt));
  w.write_u64(p.index);
  w.write_raw(ff::u256_to_bytes_be(p.commitment));
  if (with_revealed) w.write_u8(p.revealed ? 1 : 0);
  w.write_u64(p.commit_epoch);
}

SlashingEngine::PendingSlash SlashingEngine::read_pending(ByteReader& r,
                                                          bool with_revealed) {
  PendingSlash p;
  p.sk = Fr::from_bytes_reduce(r.read_raw(32));
  p.salt = ff::u256_from_bytes_be(r.read_raw(32));
  p.index = r.read_u64();
  p.commitment = ff::u256_from_bytes_be(r.read_raw(32));
  if (with_revealed) p.revealed = r.read_u8() != 0;
  p.commit_epoch = r.read_u64();
  return p;
}

std::optional<std::uint64_t> SlashingEngine::commit(const Fr& spammer_sk,
                                                    const GroupManager& group,
                                                    std::uint64_t epoch) {
  const Fr pk = hash::poseidon1(spammer_sk);
  const std::optional<std::uint64_t> index = group.index_of(pk);
  if (!index.has_value()) return std::nullopt;
  if (in_flight_.contains(*index)) return std::nullopt;
  in_flight_.insert(*index);

  PendingSlash pending;
  pending.sk = spammer_sk;
  pending.index = *index;
  pending.salt = ff::U256{rng_.next_u64(), rng_.next_u64(), rng_.next_u64(),
                          rng_.next_u64()};
  pending.commitment = chain::RlnMembershipContract::make_slash_commitment(
      spammer_sk, pending.salt, account_);
  pending.commit_epoch = epoch;

  // Write-ahead: the salt exists nowhere else. A crash between this
  // commit and the reveal must not forfeit the slashing reward (the
  // journaled entry lets the restarted node reveal).
  ByteWriter w;
  write_pending(w, pending, /*with_revealed=*/false);
  journal_.append(WalTag::kSlashCommit, w.data());

  chain::Transaction tx;
  tx.from = account_;
  tx.to = contract_;
  tx.method = "commit_slash";
  tx.calldata = ff::u256_to_bytes_be(pending.commitment);
  chain_.submit(std::move(tx));
  ++stats_.slash_commits;
  pending_.push_back(pending);
  return index;
}

void SlashingEngine::resolve(std::uint64_t index) {
  const std::size_t erased = std::erase_if(
      pending_, [index](const PendingSlash& p) { return p.index == index; });
  const bool in_flight = in_flight_.erase(index) > 0;
  if (erased > 0 || in_flight) {
    ByteWriter w;
    w.write_u64(index);
    journal_.append(WalTag::kSlashResolve, w.data());
  }
}

void SlashingEngine::expire(std::uint64_t epoch) {
  std::vector<std::uint64_t> expired;
  for (const PendingSlash& pending : pending_) {
    if (epoch_distance(epoch, pending.commit_epoch) > expiry_epochs_) {
      expired.push_back(pending.index);
    }
  }
  for (const std::uint64_t index : expired) {
    ++stats_.slashes_expired;
    resolve(index);
  }
}

std::optional<std::uint64_t> SlashingEngine::on_chain_event(
    const chain::Event& event, const GroupManager& group) {
  if (event.name == "SlashCommitted") {
    // Our commitment is mined: submit the reveal (it lands in a later
    // block, satisfying the contract's maturity check). During restart
    // replay this is exactly where a crash-interrupted commit-reveal
    // resumes: the journaled pending entry meets its re-replayed
    // SlashCommitted event.
    for (PendingSlash& pending : pending_) {
      if (pending.revealed || event.topics[0] != pending.commitment) continue;
      pending.revealed = true;

      ByteWriter w;
      w.write_raw(pending.sk.to_bytes_be());
      w.write_raw(ff::u256_to_bytes_be(pending.salt));
      w.write_u64(pending.index);
      // Attach the pre-removal auth path for partial-view peers ([18]).
      if (group.mode() == TreeMode::kFullTree) {
        w.write_raw(merkle::serialize_path(group.path_of(pending.index)));
      }
      chain::Transaction reveal;
      reveal.from = account_;
      reveal.to = contract_;
      reveal.method = "reveal_slash";
      reveal.calldata = std::move(w).take();
      chain_.submit(std::move(reveal));
      ++stats_.slash_reveals;

      // Journaled only after the submit: a crash in between makes the
      // restarted node re-submit the reveal (the contract rejects the
      // duplicate — cheap), whereas journaling first would record a
      // reveal that never reached the chain and forfeit the reward.
      journal_.append(WalTag::kSlashReveal,
                      ff::u256_to_bytes_be(pending.commitment));
    }
  } else if (event.name == "MemberSlashed") {
    const std::uint64_t index = event.topics[0].limb[0];
    // The third topic names the rewarded slasher. Counted before resolve():
    // its journal write can fire a snapshot, which must hold the reward.
    if (event.topics.size() >= 3 && event.topics[2] == account_.to_u256()) {
      ++stats_.slash_rewards;
    }
    resolve(index);
    return index;
  } else if (event.name == "MemberWithdrawn") {
    // A withdraw that races our commit-reveal would otherwise leave the
    // index blocked in the in-flight set forever.
    resolve(event.topics[0].limb[0]);
  } else if (event.name == "MembersWithdrawn") {
    // Batched exit: resolve every index in the record list, same race as
    // the single-withdraw case above.
    const std::uint64_t n = event.topics[0].limb[0];
    ByteReader r(event.data);
    for (std::uint64_t i = 0; i < n; ++i) {
      resolve(r.read_u64());
      r.read_raw(32);  // pk
      r.read_bytes();  // echoed auth path
    }
  }
  return std::nullopt;
}

void SlashingEngine::replay(WalTag tag, BytesView payload) {
  ByteReader r(payload);
  switch (tag) {
    case WalTag::kSlashCommit: {
      PendingSlash p = read_pending(r, /*with_revealed=*/false);
      in_flight_.insert(p.index);
      pending_.push_back(std::move(p));
      return;
    }
    case WalTag::kSlashReveal: {
      const ff::U256 commitment = ff::u256_from_bytes_be(r.read_raw(32));
      for (PendingSlash& p : pending_) {
        if (p.commitment == commitment) p.revealed = true;
      }
      return;
    }
    case WalTag::kSlashResolve: {
      const std::uint64_t index = r.read_u64();
      std::erase_if(pending_, [index](const PendingSlash& p) {
        return p.index == index;
      });
      in_flight_.erase(index);
      return;
    }
    default:
      return;
  }
}

void SlashingEngine::serialize(ByteWriter& w) const {
  w.write_u32(static_cast<std::uint32_t>(pending_.size()));
  for (const PendingSlash& p : pending_) {
    write_pending(w, p, /*with_revealed=*/true);
  }
}

void SlashingEngine::restore(ByteReader& r) {
  pending_.clear();
  in_flight_.clear();
  const std::uint32_t count = r.read_u32();
  for (std::uint32_t i = 0; i < count; ++i) {
    PendingSlash p = read_pending(r, /*with_revealed=*/true);
    in_flight_.insert(p.index);
    pending_.push_back(std::move(p));
  }
}

}  // namespace waku::rln

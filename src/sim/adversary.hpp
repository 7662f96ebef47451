// Adversary catalog for the scenario engine: pluggable attacker strategies
// driven once per scenario tick against an RlnHarness deployment. Each
// strategy models one evasion of the paper's economic spam protection:
//
//   RateLimitFlooder     k > 1 valid-proof publishes per epoch — the
//                        canonical double-signal spammer §III-F slashes;
//   EpochBoundaryStraddler  one message per epoch, clustered around epoch
//                        boundaries (legal bursts of 2 in seconds) — must
//                        NOT be slashed, bounding honest false positives;
//   InvalidProofFlooder  garbage proofs — resource-exhaustion traffic the
//                        peer-score layer graylists (no slashing material);
//   StaleRootReplayer    well-formed bundles against roots outside every
//                        validator's window — must die in the O(1) root
//                        stage, never reaching the SNARK verifier;
//   SplitEquivocator     conflicting shares shown to disjoint mesh halves
//                        so no first-hop peer sees both — relay overlap
//                        must still reunite the shares and slash;
//   DepositChurner       join / spam / withdraw-front-run cycles — the
//                        §IV-B "escape punishment by early withdrawal"
//                        open problem, measured as escape rate;
//   CrossGenerationPairAttacker  same-epoch pairs split across the old
//                        and new shard generation during a live reshard —
//                        must be folded into one signal and slashed;
//   StaleCheckpointService  a light-bootstrap service replaying an old but
//                        correctly signed checkpoint (the eclipse payload;
//                        campaign orchestration lives in scenario.hpp).
#pragma once

#include <string>
#include <vector>

#include "rln/light_client.hpp"
#include "sim/probe.hpp"

namespace waku::sim {

struct AdversaryContext {
  rln::RlnHarness& harness;
  Rng& rng;
  net::TimeMs tick_ms;
};

class Adversary {
 public:
  virtual ~Adversary() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  /// Harness slots this adversary controls — excluded from honest traffic
  /// generation and honest-delivery accounting.
  [[nodiscard]] virtual std::vector<std::size_t> controlled_nodes() const = 0;
  virtual void on_phase_start(AdversaryContext& /*ctx*/) {}
  virtual void on_tick(AdversaryContext& ctx) = 0;

  /// Spam messages this adversary has injected into the network.
  [[nodiscard]] std::uint64_t spam_sent() const { return spam_sent_; }

 protected:
  /// kSpamTag-prefixed payload so the HarnessProbe classifies deliveries.
  [[nodiscard]] Bytes spam_payload(const std::string& body) const;

  std::uint64_t spam_sent_ = 0;
};

/// An adversary driving one harness slot.
class SlotAdversary : public Adversary {
 public:
  explicit SlotAdversary(std::size_t slot) : slot_(slot) {}
  [[nodiscard]] std::vector<std::size_t> controlled_nodes() const override {
    return {slot_};
  }

 protected:
  std::size_t slot_;
};

/// Publishes up to `burst_per_epoch` valid-proof messages per epoch from
/// one registered member (one per tick, so the flood spans the epoch).
/// Stops producing once slashed — force_publish refuses unregistered.
/// `content_topic` aims the flood at one relay shard (shard-targeted
/// attacks must stay confined to the shard the topic maps onto).
class RateLimitFlooder : public SlotAdversary {
 public:
  RateLimitFlooder(std::size_t slot, std::uint64_t burst_per_epoch,
                   std::string content_topic = rln::kDefaultContentTopic)
      : SlotAdversary(slot),
        burst_per_epoch_(burst_per_epoch),
        content_topic_(std::move(content_topic)) {}

  [[nodiscard]] std::string name() const override { return "flooder"; }
  void on_tick(AdversaryContext& ctx) override;

 private:
  std::uint64_t burst_per_epoch_;
  std::string content_topic_;
  std::uint64_t current_epoch_ = ~std::uint64_t{0};
  std::uint64_t sent_this_epoch_ = 0;
};

/// One message per epoch, placed adjacent to epoch boundaries (end of even
/// epochs, start of odd ones) — back-to-back bursts that stay inside the
/// 1-per-epoch quota. The verdict must show delivery without slashing.
class EpochBoundaryStraddler : public SlotAdversary {
 public:
  explicit EpochBoundaryStraddler(std::size_t slot) : SlotAdversary(slot) {}

  [[nodiscard]] std::string name() const override { return "straddler"; }
  void on_tick(AdversaryContext& ctx) override;

 private:
  std::uint64_t last_published_epoch_ = ~std::uint64_t{0};
};

/// Floods garbage proofs (`per_tick` each tick) — cheap to generate, dies
/// at kRejectBadProof, and the sender is graylisted by peer scoring.
/// Shard-targetable via `content_topic`.
class InvalidProofFlooder : public SlotAdversary {
 public:
  InvalidProofFlooder(std::size_t slot, std::uint64_t per_tick,
                      std::string content_topic = rln::kDefaultContentTopic)
      : SlotAdversary(slot),
        per_tick_(per_tick),
        content_topic_(std::move(content_topic)) {}

  [[nodiscard]] std::string name() const override { return "invalid-proof"; }
  void on_tick(AdversaryContext& ctx) override;

 private:
  std::uint64_t per_tick_;
  std::string content_topic_;
};

/// Floods bundles carrying roots no validator window contains — must be
/// settled by the O(1) root stage (pipeline.stale_root), not the verifier.
/// Shard-targetable via `content_topic` (a coalition pairs it with a
/// flooder on the same shard).
class StaleRootReplayer : public SlotAdversary {
 public:
  StaleRootReplayer(std::size_t slot, std::uint64_t per_tick,
                    std::string content_topic = rln::kDefaultContentTopic)
      : SlotAdversary(slot),
        per_tick_(per_tick),
        content_topic_(std::move(content_topic)) {}

  [[nodiscard]] std::string name() const override { return "stale-root"; }
  void on_tick(AdversaryContext& ctx) override;

 private:
  std::uint64_t per_tick_;
  std::string content_topic_;
};

/// Once per epoch, sends two conflicting same-epoch shares to disjoint
/// halves of its mesh neighborhood (WakuRlnRelayNode::force_publish_split).
class SplitEquivocator : public SlotAdversary {
 public:
  explicit SplitEquivocator(std::size_t slot) : SlotAdversary(slot) {}

  [[nodiscard]] std::string name() const override {
    return "split-equivocator";
  }
  void on_tick(AdversaryContext& ctx) override;

 private:
  std::uint64_t last_split_epoch_ = ~std::uint64_t{0};
};

/// Join/spam/withdraw churn: each epoch one controlled member double-
/// signals `burst` times, then immediately submits a high-gas withdraw to
/// exit with the deposit before the commit-reveal slash can land (§IV-B).
/// Once every slot has churned the adversary idles.
class DepositChurner : public Adversary {
 public:
  DepositChurner(std::vector<std::size_t> slots, std::uint64_t burst)
      : slots_(std::move(slots)), burst_(burst) {}

  [[nodiscard]] std::string name() const override { return "churner"; }
  [[nodiscard]] std::vector<std::size_t> controlled_nodes() const override {
    return slots_;
  }
  void on_tick(AdversaryContext& ctx) override;

  [[nodiscard]] std::uint64_t withdraw_attempts() const {
    return withdraw_attempts_;
  }

 private:
  std::vector<std::size_t> slots_;
  std::uint64_t burst_;
  std::size_t next_slot_ = 0;
  std::uint64_t last_churn_epoch_ = ~std::uint64_t{0};
  std::uint64_t withdraw_attempts_ = 0;
};

/// Live-reshard overlap attacker: each tick, one same-epoch valid-proof
/// pair on `content_topic` — one half forced onto the old generation's
/// mesh, one onto the new — up to `pairs_per_epoch` pairs per epoch
/// (same epoch -> same nullifier: the shared domain log must fold the pair
/// into ONE signal and slash). The campaign decides when it ticks (the
/// dual-generation window). observe_delivery() is the doubled-quota
/// ledger: both halves of one epoch's pair delivered at one honest node.
class CrossGenerationPairAttacker : public SlotAdversary {
 public:
  CrossGenerationPairAttacker(std::size_t slot, std::uint64_t pairs_per_epoch,
                              std::string content_topic)
      : SlotAdversary(slot),
        pairs_per_epoch_(pairs_per_epoch),
        content_topic_(std::move(content_topic)) {}

  [[nodiscard]] std::string name() const override {
    return "cross-generation-pair";
  }
  void on_tick(AdversaryContext& ctx) override;

  /// Ledger feed: one delivery of `payload` at node slot `node`.
  void observe_delivery(std::size_t node, std::string_view payload);

  [[nodiscard]] std::uint64_t pairs_sent() const { return spam_sent_ / 2; }
  /// (node, epoch) pairs where BOTH halves arrived — each one a doubled
  /// quota.
  [[nodiscard]] std::uint64_t quota_double_deliveries() const {
    return quota_double_deliveries_;
  }

 private:
  std::uint64_t pairs_per_epoch_;
  std::string content_topic_;
  std::uint64_t current_epoch_ = ~std::uint64_t{0};
  std::uint64_t pairs_this_epoch_ = 0;
  /// (node, epoch) -> halves seen (bit 1 = old generation, bit 2 = new).
  std::map<std::pair<std::size_t, std::uint64_t>, std::uint8_t> seen_;
  std::uint64_t quota_double_deliveries_ = 0;
};

/// Attacker-run light-bootstrap service: answers kCheckpointReq with a
/// canned (stale but correctly signed) checkpoint. The eclipse campaign
/// parks a victim behind lossy links so this is the only service that
/// answers.
class StaleCheckpointService : public net::NetNode {
 public:
  StaleCheckpointService(net::Network& network, Bytes signed_checkpoint);

  void on_message(net::NodeId from, BytesView payload) override;

  [[nodiscard]] net::NodeId node_id() const { return id_; }
  [[nodiscard]] std::uint64_t served() const { return served_; }

 private:
  net::Network& network_;
  Bytes signed_checkpoint_;
  net::NodeId id_;
  std::uint64_t served_ = 0;
};

}  // namespace waku::sim

#include "sim/adversary.hpp"

#include "common/serde.hpp"
#include "merkle/merkle_tree.hpp"

namespace waku::sim {

using rln::WakuRlnRelayNode;

Bytes Adversary::spam_payload(const std::string& body) const {
  return to_bytes(std::string(kSpamTag) + body);
}

// -- RateLimitFlooder --------------------------------------------------------

void RateLimitFlooder::on_tick(AdversaryContext& ctx) {
  if (!ctx.harness.alive(slot_)) return;
  WakuRlnRelayNode& node = ctx.harness.node(slot_);
  const std::uint64_t epoch = node.current_epoch();
  if (epoch != current_epoch_) {
    current_epoch_ = epoch;
    sent_this_epoch_ = 0;
  }
  if (sent_this_epoch_ >= burst_per_epoch_) return;
  // One message per tick spreads the burst across the epoch — the shape
  // that maximizes deliveries before the first conflict is observed.
  const auto status = node.force_publish(
      spam_payload("flood " + std::to_string(epoch) + "/" +
                   std::to_string(sent_this_epoch_)),
      content_topic_);
  if (status == WakuRlnRelayNode::PublishStatus::kOk) {
    ++sent_this_epoch_;
    ++spam_sent_;
  }
}

// -- EpochBoundaryStraddler --------------------------------------------------

void EpochBoundaryStraddler::on_tick(AdversaryContext& ctx) {
  if (!ctx.harness.alive(slot_)) return;
  WakuRlnRelayNode& node = ctx.harness.node(slot_);
  const std::uint64_t epoch = node.current_epoch();
  if (epoch == last_published_epoch_) return;  // quota for this epoch used

  const std::uint64_t epoch_len =
      node.config().validator.epoch.epoch_length_ms;
  const net::TimeMs local =
      ctx.harness.network().local_time(node.node_id());
  const std::uint64_t into_epoch = local % epoch_len;
  // Even epochs publish in the last tick before the boundary, odd epochs
  // in the first tick after it — adjacent pairs land seconds apart while
  // every epoch still carries exactly one message.
  const bool fire = (epoch % 2 == 0)
                        ? (epoch_len - into_epoch <= ctx.tick_ms)
                        : (into_epoch <= ctx.tick_ms);
  if (!fire) return;
  const auto status =
      node.force_publish(spam_payload("straddle " + std::to_string(epoch)));
  if (status == WakuRlnRelayNode::PublishStatus::kOk) {
    last_published_epoch_ = epoch;
    ++spam_sent_;
  }
}

// -- InvalidProofFlooder -----------------------------------------------------

void InvalidProofFlooder::on_tick(AdversaryContext& ctx) {
  if (!ctx.harness.alive(slot_)) return;
  WakuRlnRelayNode& node = ctx.harness.node(slot_);
  for (std::uint64_t i = 0; i < per_tick_; ++i) {
    node.publish_with_invalid_proof(
        spam_payload("garbage " + std::to_string(spam_sent_)),
        content_topic_);
    ++spam_sent_;
  }
}

// -- StaleRootReplayer -------------------------------------------------------

void StaleRootReplayer::on_tick(AdversaryContext& ctx) {
  if (!ctx.harness.alive(slot_)) return;
  WakuRlnRelayNode& node = ctx.harness.node(slot_);
  for (std::uint64_t i = 0; i < per_tick_; ++i) {
    node.publish_with_stale_root(
        spam_payload("stale " + std::to_string(spam_sent_)),
        content_topic_);
    ++spam_sent_;
  }
}

// -- SplitEquivocator --------------------------------------------------------

void SplitEquivocator::on_tick(AdversaryContext& ctx) {
  if (!ctx.harness.alive(slot_)) return;
  WakuRlnRelayNode& node = ctx.harness.node(slot_);
  const std::uint64_t epoch = node.current_epoch();
  if (epoch == last_split_epoch_) return;
  const bool sent = node.force_publish_split(
      spam_payload("split-a " + std::to_string(epoch)),
      spam_payload("split-b " + std::to_string(epoch)));
  if (sent) {
    last_split_epoch_ = epoch;
    spam_sent_ += 2;
  }
}

// -- DepositChurner ----------------------------------------------------------

void DepositChurner::on_tick(AdversaryContext& ctx) {
  if (next_slot_ >= slots_.size()) return;  // every membership spent
  const std::size_t slot = slots_[next_slot_];
  if (!ctx.harness.alive(slot)) {
    ++next_slot_;
    return;
  }
  WakuRlnRelayNode& node = ctx.harness.node(slot);
  if (!node.is_registered()) {
    ++next_slot_;  // already slashed or withdrawn
    return;
  }
  const std::uint64_t epoch = node.current_epoch();
  if (epoch == last_churn_epoch_) return;  // one churn cycle per epoch
  last_churn_epoch_ = epoch;

  for (std::uint64_t i = 0; i < burst_; ++i) {
    const auto status = node.force_publish(spam_payload(
        "churn " + std::to_string(slot) + "/" + std::to_string(i)));
    if (status == WakuRlnRelayNode::PublishStatus::kOk) {
      ++spam_sent_;
    }
  }

  // Front-run the inevitable reveal: exit with the deposit at a gas price
  // that outbids the slasher (the §IV-B escape race).
  const std::uint64_t index = *node.group().own_index();
  ByteWriter w;
  w.write_raw(node.identity().sk.to_bytes_be());
  w.write_u64(index);
  w.write_raw(merkle::serialize_path(node.group().path_of(index)));
  chain::Transaction tx;
  tx.from = node.account();
  tx.to = ctx.harness.contract();
  tx.method = "withdraw";
  tx.calldata = std::move(w).take();
  tx.gas_price = 100;
  ctx.harness.chain().submit(std::move(tx));
  ++withdraw_attempts_;
  ++next_slot_;
}

// -- CrossGenerationPairAttacker ---------------------------------------------

void CrossGenerationPairAttacker::on_tick(AdversaryContext& ctx) {
  if (!ctx.harness.alive(slot_)) return;
  WakuRlnRelayNode& node = ctx.harness.node(slot_);
  if (!node.is_registered()) return;  // slashed: the flood is over
  const std::uint64_t epoch = node.current_epoch();
  if (epoch != current_epoch_) {
    current_epoch_ = epoch;
    pairs_this_epoch_ = 0;
  }
  if (pairs_this_epoch_ >= pairs_per_epoch_) return;
  ++pairs_this_epoch_;
  spam_sent_ += 2;
  // "spam|p<epoch>|old|<pair #>" / "...|new|..." — observe_delivery parses
  // the epoch and the half back out.
  const auto half = [&](const char* generation) {
    std::string body = "p";
    body.append(std::to_string(epoch)).append("|").append(generation);
    return spam_payload(body.append("|").append(std::to_string(pairs_sent())));
  };
  node.force_publish_generation(half("old"), content_topic_,
                                /*use_next_generation=*/false);
  node.force_publish_generation(half("new"), content_topic_,
                                /*use_next_generation=*/true);
}

void CrossGenerationPairAttacker::observe_delivery(std::size_t node,
                                                   std::string_view payload) {
  if (node == slot_ || !payload.starts_with(kSpamTag)) return;
  std::uint64_t epoch = 0;
  std::size_t pos = kSpamTag.size() + 1;  // past the 'p'
  while (pos < payload.size() && payload[pos] >= '0' && payload[pos] <= '9') {
    epoch = epoch * 10 + static_cast<std::uint64_t>(payload[pos] - '0');
    ++pos;
  }
  const std::uint8_t bit = payload.compare(pos, 5, "|old|") == 0 ? 1 : 2;
  std::uint8_t& mask = seen_[{node, epoch}];
  if (mask != 0 && (mask & bit) == 0) ++quota_double_deliveries_;
  mask |= bit;
}

// -- StaleCheckpointService --------------------------------------------------

StaleCheckpointService::StaleCheckpointService(net::Network& network,
                                               Bytes signed_checkpoint)
    : network_(network),
      signed_checkpoint_(std::move(signed_checkpoint)),
      id_(network.add_node(this)) {}

void StaleCheckpointService::on_message(net::NodeId from, BytesView payload) {
  if (payload.empty() || static_cast<rln::LightFrame>(payload[0]) !=
                             rln::LightFrame::kCheckpointReq) {
    return;  // only the bootstrap path is impersonated
  }
  ++served_;
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(rln::LightFrame::kCheckpointResp));
  w.write_bytes(signed_checkpoint_);
  network_.send(id_, from, std::move(w).take());
}

}  // namespace waku::sim

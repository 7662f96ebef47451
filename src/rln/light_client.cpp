#include "rln/light_client.hpp"

#include "common/expect.hpp"
#include "common/serde.hpp"
#include "zksnark/rln_circuit.hpp"

namespace waku::rln {

namespace {

/// A request's shard list (u16 count, u16 ids). A malformed or absent
/// list degrades to "all hosted shards" (empty).
std::vector<shard::ShardId> read_shard_list(ByteReader& r) {
  std::vector<shard::ShardId> shards;
  try {
    for (std::uint16_t left = r.read_u16(); left > 0; --left) {
      shards.push_back(r.read_u16());
    }
  } catch (const std::exception&) {
    shards.clear();
  }
  return shards;
}

void write_shard_list(ByteWriter& w,
                      const std::vector<shard::ShardId>& shards) {
  w.write_u16(static_cast<std::uint16_t>(shards.size()));
  for (const shard::ShardId shard : shards) w.write_u16(shard);
}

/// The served GC watermark of every shard in `subscribed`, or nullopt if
/// one is missing: without it the client cannot know which old epochs
/// that shard already expired, so it adopts nothing.
std::optional<std::vector<shard::ShardWatermark>> cover_subscribed(
    const std::vector<shard::ShardId>& subscribed,
    const std::vector<shard::ShardWatermark>& served) {
  std::vector<shard::ShardWatermark> watermarks;
  for (const shard::ShardId shard : subscribed) {
    const std::optional<std::uint64_t> wm = watermark_for(served, shard);
    if (!wm.has_value()) return std::nullopt;
    watermarks.push_back(shard::ShardWatermark{shard, *wm});
  }
  return watermarks;
}

}  // namespace

RlnFullServiceNode::RlnFullServiceNode(net::Network& network,
                                       WakuRlnRelayNode& node)
    : network_(network),
      node_(node),
      id_(network.add_node(this)),
      // Default: the well-known development key — a real signing key, but
      // one every simulation participant can derive. Deployments call
      // set_checkpoint_signer with their own.
      checkpoint_key_(hash::schnorr::keygen_from_seed(0)) {
  WAKU_EXPECTS(node.group().mode() == TreeMode::kFullTree);
}

void RlnFullServiceNode::on_message(net::NodeId from, BytesView payload) {
  // Every byte here comes from a peer: a frame that does not parse is
  // dropped and counted, never thrown through the network's delivery.
  ByteReader r(payload);
  if (r.exhausted()) {
    ++malformed_frames_;
    return;
  }
  const auto type = static_cast<LightFrame>(r.read_u8());
  switch (type) {
    case LightFrame::kTreeReq: {
      ++tree_requests_;
      if (r.remaining() < sizeof(std::uint64_t)) {
        ++malformed_frames_;
        return;
      }
      const std::uint64_t index = r.read_u64();
      if (index >= node_.group().member_count()) return;  // unknown member
      ByteWriter w;
      w.write_u8(static_cast<std::uint8_t>(LightFrame::kTreeResp));
      w.write_raw(node_.group().root().to_bytes_be());
      w.write_u64(node_.group().member_count());
      w.write_bytes(merkle::serialize_path(node_.group().path_of(index)));
      network_.send(id_, from, std::move(w).take());
      break;
    }
    case LightFrame::kCheckpointReq: {
      // Shard-scoped request: the client names its subscribed shards so
      // the served checkpoint carries only those shards' watermarks.
      ByteWriter w;
      w.write_u8(static_cast<std::uint8_t>(LightFrame::kCheckpointResp));
      write_checkpoint(w, read_shard_list(r));
      network_.send(id_, from, std::move(w).take());
      break;
    }
    case LightFrame::kDeltaReq: {
      std::uint64_t from_cursor = 0;
      Fr from_root;
      try {
        from_cursor = r.read_u64();
        from_root = Fr::from_bytes_reduce(r.read_raw(32));
      } catch (const std::exception&) {
        return;  // no binding at all: nothing to answer
      }
      const std::vector<shard::ShardId> requested = read_shard_list(r);
      ByteWriter w;
      w.write_u8(static_cast<std::uint8_t>(LightFrame::kDeltaResp));
      std::optional<DeltaCheckpoint> delta;
      if (node_.group().mode() == TreeMode::kFullTree) {
        delta = node_.make_delta_checkpoint(from_cursor, from_root,
                                            requested);
      }
      if (delta.has_value()) {
        delta->sign(checkpoint_key_);
        ++deltas_served_;
        w.write_u8(0);  // lossless delta
        w.write_bytes(delta->serialize());
      } else {
        // Fail-closed fallback: gap, root mismatch, or restarted history —
        // serve the full checkpoint (empty body if we cannot even do
        // that), never a lossy delta.
        ++delta_fallbacks_served_;
        w.write_u8(1);  // full-checkpoint fallback
        write_checkpoint(w, requested);
      }
      network_.send(id_, from, std::move(w).take());
      break;
    }
    case LightFrame::kPushReq: {
      WakuMessage msg;
      bool accepted = false;
      try {
        msg = WakuMessage::deserialize(r.read_bytes());
        // The service vouches for what it relays: run the message's
        // shard's full RLN pipeline (a window of one) before pushing into
        // that shard's mesh. Pushes for shards this node does not host
        // are refused — it has no nullifier log to enforce them against.
        const shard::ShardId shard =
            node_.validator().shard_of(msg.content_topic);
        if (node_.validator().subscribes(shard)) {
          const ValidationOutcome outcome =
              node_.validator().pipeline(shard).validate_one(
                  msg, network_.local_time(node_.node_id()));
          accepted = outcome.verdict == Verdict::kAccept;
        }
      } catch (const std::exception&) {
        accepted = false;
      }
      if (accepted) {
        node_.relay().publish_on(node_.shard_topic_for(msg.content_topic),
                                 msg);
        ++pushes_accepted_;
      } else {
        ++pushes_rejected_;
      }
      ByteWriter w;
      w.write_u8(static_cast<std::uint8_t>(LightFrame::kPushResp));
      w.write_u8(accepted ? 1 : 0);
      network_.send(id_, from, std::move(w).take());
      break;
    }
    default:
      break;  // not addressed to a service
  }
}

void RlnFullServiceNode::write_checkpoint(
    ByteWriter& w, const std::vector<shard::ShardId>& shards) {
  // The constructor requires a full-tree node, but a durable node can
  // restore into partial mode afterwards — a remote frame must never be
  // able to throw through export_checkpoint's precondition. The refusal is
  // an empty body (fails checkpoint parsing client-side) rather than
  // silence, so the client's bootstrap callback fires.
  if (node_.group().mode() != TreeMode::kFullTree) {
    w.write_bytes({});
    return;
  }
  Checkpoint checkpoint = node_.make_checkpoint(shards);
  checkpoint.sign(checkpoint_key_);
  w.write_bytes(checkpoint.serialize());
}

bool RlnLightClient::member_count_current(std::uint64_t claimed) {
  const Bytes count_bytes = chain_->static_call(contract_, "member_count", {});
  ByteReader count(count_bytes);
  const std::uint64_t contract_members = count.read_u64();
  if (claimed > contract_members) return false;
  if (claimed + max_bootstrap_lag_ < contract_members) {
    ++stale_checkpoints_rejected_;
    return false;
  }
  return true;
}

RlnLightClient::RlnLightClient(net::Network& network, Identity identity,
                               std::uint64_t member_index, EpochConfig epoch,
                               std::uint64_t seed, shard::ShardConfig shards)
    : network_(network),
      identity_(identity),
      member_index_(member_index),
      epoch_(epoch),
      shards_config_(std::move(shards)),
      rng_(seed),
      id_(network.add_node(this)) {}

RlnLightClient::~RlnLightClient() {
  if (chain_ != nullptr && chain_subscription_.has_value()) {
    chain_->unsubscribe_events(*chain_subscription_);
  }
}

void RlnLightClient::attach_chain(chain::Blockchain& chain,
                                  chain::Address contract,
                                  const Fr& service_pk) {
  chain_ = &chain;
  contract_ = contract;
  service_pk_ = service_pk;
}

void RlnLightClient::bootstrap(net::NodeId service, BootstrapResult done) {
  WAKU_EXPECTS(chain_ != nullptr);  // attach_chain first
  pending_bootstraps_.push_back(std::move(done));
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(LightFrame::kCheckpointReq));
  // Shard-scoped: request only our subscription set's watermarks.
  write_shard_list(w, shards_config_.subscribed_shards());
  network_.send(id_, service, std::move(w).take());
}

bool RlnLightClient::adopt_checkpoint(const Checkpoint& checkpoint) {
  // An unsolicited kCheckpointResp can arrive before attach_chain(): with
  // no chain to cross-check against there is nothing to adopt (and with no
  // service key on file the signature cannot be judged anyway).
  if (chain_ == nullptr) return false;
  // 1. Attestation: a real Schnorr signature under the service's public
  //    key. Fail-closed on any payload or signature tampering.
  if (!checkpoint.verify(service_pk_)) return false;
  // 1b. Shard scope: every shard we subscribe to must come with the
  //     serving log's GC watermark.
  const auto watermarks = cover_subscribed(
      shards_config_.subscribed_shards(), checkpoint.nullifier_watermarks);
  if (!watermarks.has_value()) return false;
  // 2. Internal consistency: the view's root must close the root window
  //    (from_checkpoint enforces this; a mismatch throws).
  // 3. Contract cross-check, both directions: the member counter the
  //    checkpoint claims can be at most what the contract has registered —
  //    a forged "future" tree fails here even with a stolen key — and at
  //    least the contract count minus the lag tolerance: a correctly
  //    signed but outdated checkpoint (the eclipse attack's payload) is
  //    rejected as stale instead of silently adopted.
  bool installing = false;
  try {
    if (!member_count_current(checkpoint.member_count)) return false;

    // Everything that can reject the checkpoint runs on locals first: a
    // refused re-bootstrap must leave an existing good bootstrap intact.
    GroupManager group =
        GroupManager::from_checkpoint(checkpoint.group_checkpoint());

    installing = true;
    validator_.reset();
    group_.emplace(std::move(group));
    validator_.emplace(zksnark::rln_keypair(group_->depth()).vk, *group_,
                       ValidatorConfig{epoch_, /*max_epoch_gap=*/2},
                       shards_config_, rng_.next_u64());
    validator_->seed_nullifier_watermarks(*watermarks);

    // Resume the contract event stream where the checkpoint left off —
    // this is the whole point: O(log N) transferred, zero genesis replay.
    bootstrap_cursor_ = checkpoint.event_cursor;
    events_applied_ = 0;
    // One block at a time, as a full node applies it: one root per block.
    const auto apply = [this](chain::Blockchain::BlockEvents events) {
      if (!group_.has_value()) return;
      group_->apply(events);
      group_->commit_block();
      events_applied_ += events.size();
    };
    chain_->replay_blocks(bootstrap_cursor_, apply);
    if (chain_subscription_.has_value()) {
      chain_->unsubscribe_events(*chain_subscription_);  // re-bootstrap
    }
    chain_subscription_ = chain_->subscribe_blocks(apply);
    return true;
  } catch (const std::exception&) {
    if (installing) {
      // Partially-installed state (e.g. the event replay rejected the
      // checkpoint's view) is unusable — tear it down.
      validator_.reset();
      group_.reset();
    }
    return false;
  }
}

void RlnLightClient::go_offline() {
  if (chain_ != nullptr && chain_subscription_.has_value()) {
    chain_->unsubscribe_events(*chain_subscription_);
    chain_subscription_.reset();
  }
}

void RlnLightClient::delta_sync(net::NodeId service, DeltaSyncResult done) {
  WAKU_EXPECTS(bootstrapped());  // delta needs a state to be bound to
  pending_delta_syncs_.push_back(std::move(done));
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(LightFrame::kDeltaReq));
  w.write_u64(sync_cursor());
  w.write_raw(group_->recent_roots().back().to_bytes_be());
  write_shard_list(w, shards_config_.subscribed_shards());
  network_.send(id_, service, std::move(w).take());
}

bool RlnLightClient::adopt_delta(const DeltaCheckpoint& delta) {
  if (chain_ == nullptr || !bootstrapped()) return false;
  // 1. Attestation, same scheme as the full checkpoint's.
  if (!delta.verify(service_pk_)) return false;
  // 2. Binding: the delta must fast-forward from exactly our state —
  //    a delta built against any other (cursor, root) base is meaningless
  //    to apply here.
  if (delta.from_cursor != sync_cursor()) return false;
  const std::vector<Fr> roots = group_->recent_roots();
  if (roots.empty() || roots.back() != delta.from_root) return false;
  // 3. Monotonicity + shard coverage, as in the full adoption path.
  if (delta.to_cursor < delta.from_cursor) return false;
  if (delta.member_count < group_->member_count() ||
      delta.removed_count < group_->removed_count()) {
    return false;
  }
  const auto watermarks = cover_subscribed(
      shards_config_.subscribed_shards(), delta.nullifier_watermarks);
  if (!watermarks.has_value()) return false;
  // 4. Contract cross-check: the claimed destination may not be ahead of
  //    the chain (forged future) nor further behind it than the lag
  //    tolerance (replayed stale delta).
  try {
    if (!member_count_current(delta.member_count)) return false;
  } catch (const std::exception&) {
    return false;
  }

  group_->advance_window(delta.root_tail, delta.member_count,
                         delta.removed_count);
  validator_->seed_nullifier_watermarks(*watermarks);
  bootstrap_cursor_ = delta.to_cursor;
  events_applied_ = 0;
  ++delta_syncs_applied_;
  return true;
}

ValidationOutcome RlnLightClient::validate(const WakuMessage& message,
                                           std::uint64_t local_now_ms) {
  WAKU_EXPECTS(validator_.has_value());
  const shard::ShardId shard = validator_->shard_of(message.content_topic);
  WAKU_EXPECTS(validator_->subscribes(shard));
  return validator_->pipeline(shard).validate_one(message, local_now_ms);
}

void RlnLightClient::publish(net::NodeId service, Bytes payload,
                             const std::string& content_topic,
                             PushResult done) {
  pending_.push_back(PendingPublish{std::move(payload), content_topic,
                                    service, std::move(done)});
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(LightFrame::kTreeReq));
  w.write_u64(member_index_);
  network_.send(id_, service, std::move(w).take());
}

void RlnLightClient::on_message(net::NodeId from, BytesView payload) {
  // Every byte here comes from a peer: a frame that does not parse is
  // dropped and counted, never thrown through the network's delivery.
  ByteReader r(payload);
  if (r.exhausted()) {
    ++malformed_frames_;
    return;
  }
  const auto type = static_cast<LightFrame>(r.read_u8());
  switch (type) {
    case LightFrame::kTreeResp: {
      if (pending_.empty()) return;
      // Parse before popping: a malformed response must not consume the
      // publish a well-formed one can still complete.
      std::optional<merkle::MerklePath> path;
      try {
        (void)r.read_raw(32);  // root (implied by the path)
        (void)r.read_u64();    // member count
        path = merkle::deserialize_path(r.read_bytes());
      } catch (const std::exception&) {
      }
      if (!path.has_value() || path->siblings.empty()) {  // no depth-0 RLN
        ++malformed_frames_;
        return;
      }
      PendingPublish job = std::move(pending_.front());
      pending_.erase(pending_.begin());

      // Build the proof bundle locally: the secret key never leaves us.
      WakuMessage msg;
      msg.payload = std::move(job.payload);
      msg.content_topic = job.content_topic;
      msg.timestamp_ms = network_.local_time(id_);
      attach_proof(msg, make_rate_limit_proof(
                            identity_.sk, std::move(*path), msg,
                            epoch_.epoch_at(network_.local_time(id_)), rng_));

      ByteWriter w;
      w.write_u8(static_cast<std::uint8_t>(LightFrame::kPushReq));
      w.write_bytes(msg.serialize());
      network_.send(id_, job.service, std::move(w).take());
      ++published_;
      if (job.done) {
        // Ack arrives via kPushResp; remember the callback.
        pending_acks_.push_back(std::move(job.done));
      }
      break;
    }
    case LightFrame::kPushResp: {
      if (r.exhausted()) {
        ++malformed_frames_;
        return;
      }
      const bool accepted = r.read_u8() != 0;
      if (accepted) ++acked_;
      if (!pending_acks_.empty()) {
        auto cb = std::move(pending_acks_.front());
        pending_acks_.erase(pending_acks_.begin());
        cb(accepted);
      }
      break;
    }
    case LightFrame::kCheckpointResp: {
      bool ok = false;
      try {
        ok = adopt_checkpoint(Checkpoint::deserialize(r.read_bytes()));
      } catch (const std::exception&) {
        ok = false;  // malformed response: stay un-bootstrapped
      }
      if (!pending_bootstraps_.empty()) {
        auto cb = std::move(pending_bootstraps_.front());
        pending_bootstraps_.erase(pending_bootstraps_.begin());
        if (cb) cb(ok);
      }
      break;
    }
    case LightFrame::kDeltaResp: {
      bool ok = false;
      try {
        const std::uint8_t kind = r.read_u8();
        if (kind == 0) {
          ok = adopt_delta(DeltaCheckpoint::deserialize(r.read_bytes()));
        } else {
          // Fail-closed fallback: the server could not prove a lossless
          // delta, so a full checkpoint arrives and goes through the
          // complete bootstrap verification (and re-subscribes; poll-mode
          // clients call go_offline() again).
          ok = adopt_checkpoint(Checkpoint::deserialize(r.read_bytes()));
          if (ok) ++delta_full_fallbacks_;
        }
      } catch (const std::exception&) {
        ok = false;  // malformed response: keep the current state
      }
      if (!pending_delta_syncs_.empty()) {
        auto cb = std::move(pending_delta_syncs_.front());
        pending_delta_syncs_.erase(pending_delta_syncs_.begin());
        if (cb) cb(ok);
      }
      break;
    }
    default:
      break;
  }
  (void)from;
}

}  // namespace waku::rln

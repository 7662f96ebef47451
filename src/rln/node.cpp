#include "rln/node.hpp"

#include <algorithm>
#include <random>
#include <stdexcept>

#include "common/expect.hpp"
#include "common/serde.hpp"
#include "rln/keystore.hpp"
#include "waku/message.hpp"
#include "zksnark/rln_circuit.hpp"

namespace waku::rln {

using chain::Transaction;
using gossipsub::ValidationResult;

namespace {

/// Node snapshot payload version (docs/FORMATS.md); v5 added the
/// operator-loop bookkeeping.
constexpr std::uint8_t kStateVersion = 5;

/// OS entropy for the keystore seal RNG. Deliberately NOT derived from the
/// deterministic node seed: a restarted node re-seeded deterministically
/// would replay the exact salt/nonce stream of its previous life, and with
/// multiple snapshot generations on disk an AEAD nonce reuse under one
/// derived key breaks both confidentiality and the Poly1305 tamper
/// guarantee. Sealed snapshots are documented as non-byte-reproducible, so
/// non-determinism here is free.
std::uint64_t seal_entropy() {
  std::random_device rd;
  return (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
}

}  // namespace

WakuRlnRelayNode::WakuRlnRelayNode(net::Network& network,
                                   chain::Blockchain& chain,
                                   chain::Address contract, NodeConfig config,
                                   std::uint64_t seed)
    : network_(network),
      chain_(chain),
      contract_(contract),
      config_(config),
      rng_(seed),
      seal_rng_(seal_entropy()),
      identity_(Identity::generate(rng_)),
      relay_(network, config.gossip, config.score, seed),
      group_(config.tree_depth, config.tree_mode),
      // Per-node seed for the batch verifiers' RLC weights (further
      // diversified per generation and per shard): senders must not be
      // able to predict another node's weight stream.
      base_validator_seed_(seed ^ 0x52C4A55E9D1ULL),
      shards_(make_validator(shard::ShardMap(config.shards), config.shards)),
      reshard_(config.shards),
      load_tracker_(config.load_tracker),
      slashing_(rng_, journal_, stats_, chain, contract, config.account,
                config.slash_expiry_epochs),
      // The default telemetry clock: the node's virtual time, ms as ns.
      telemetry_(config.obs, config.persist_dir,
                 [this] {
                   return network_.local_time(node_id()) * 1'000'000ULL;
                 },
                 {relay_, shards_, stats_, operator_}) {
  group_.set_own_identity(identity_);
  install_validator_hooks(shards_, /*next_generation=*/false);

  if (!config_.persist_dir.empty()) {
    try {
      journal_.open(config_.persist_dir, config_.persist);
      restore_from_store();
    } catch (...) {
      // The relay registered itself with the network in the member-init
      // list; a restore failure (fail-closed keystore, corrupt store) must
      // not leave a pointer to the about-to-be-destroyed router behind.
      network_.remove_node(relay_.node_id());
      throw;
    }
    journal_.store()->set_snapshot_provider(
        [this] { return serialize_state(); });
  }
}

void WakuRlnRelayNode::install_validator_hooks(
    shard::ShardedValidator& validator, bool next_generation) {
  telemetry_.attach(validator);
  // Observed shares exist only in transit — journal them (under the
  // owning shard's WAL tag) the moment any shard's pipeline records one,
  // so a crash cannot blind us to double-signals on any shard. During a
  // cutover the incoming generation's shard ids collide with the outgoing
  // ones, so its mirrors ride a distinct tag.
  const WalTag tag =
      next_generation ? WalTag::kNullifierNext : WalTag::kNullifier;
  for (const shard::ShardId s : validator.subscribed()) {
    ValidationPipeline& pipeline = validator.pipeline(s);
    pipeline.set_observe_hook([this, tag, s](std::uint64_t epoch,
                                             const Fr& nullifier,
                                             const sss::Share& share,
                                             std::uint64_t proof_fp) {
      journal_.append_observation(tag, s, epoch, nullifier, share, proof_fp);
    });
    // Dual-generation enforcement: while a cutover (or its linger
    // window) is active, every message's rate-limit domain is its
    // OLD-generation shard and both generations' meshes observe into
    // that one shared log — migration can never double a quota.
    pipeline.set_log_selector([this](const WakuMessage& msg) {
      return reshard_.domain_log(msg.content_topic);
    });
    pipeline.set_cutover_observe_hook(
        [this](const WakuMessage& msg, std::uint64_t epoch,
               const Fr& nullifier, const sss::Share& share,
               std::uint64_t proof_fp) {
          const std::optional<shard::ShardId> domain =
              reshard_.domain_of(msg.content_topic);
          if (!domain.has_value()) return;
          journal_.append_observation(WalTag::kCutoverObservation, *domain,
                                      epoch, nullifier, share, proof_fp);
        });
  }
}

shard::ShardedValidator* WakuRlnRelayNode::validator_for_generation(
    std::uint32_t generation) {
  if (shards_.map().generation() == generation) return &shards_;
  if (next_shards_ != nullptr &&
      next_shards_->map().generation() == generation) {
    return next_shards_.get();
  }
  return nullptr;
}

void WakuRlnRelayNode::wire_shard(shard::ShardedValidator& validator,
                                  shard::ShardId shard) {
  const std::string topic = validator.map().pubsub_topic(shard);
  const std::uint32_t generation = validator.map().generation();
  // All relayed traffic on this shard funnels through the shard's own
  // staged validation pipeline; with gossip validation batching enabled,
  // whole windows share one RLC-aggregated Groth16 check. Windows are
  // per-topic in the router, so one shard's backlog never delays another
  // shard's flush. The container is resolved by generation at call time:
  // the drop-old swap moves pipelines between containers and a captured
  // reference would dangle.
  relay_.set_batch_validator_topic(
      topic,
      [this, shard, generation](const std::vector<net::NodeId>& froms,
                                const std::vector<net::TimeMs>& received_at,
                                const std::vector<WakuMessage>& messages) {
        shard::ShardedValidator* validator =
            validator_for_generation(generation);
        if (validator == nullptr || !validator->subscribes(shard)) {
          // A mesh of a generation this node no longer runs (straggler
          // traffic after drop-old): drop without penalty.
          return std::vector<ValidationResult>(messages.size(),
                                               ValidationResult::kIgnore);
        }
        // Sampled lifecycle spans: the 1-in-N selected messages get an
        // "rx" event as their window enters this shard's pipeline and a
        // "verdict" event (closing the span on any non-accept) after.
        std::vector<std::pair<std::size_t, obs::TraceKey>> sampled;
        for (std::size_t i = 0; i < messages.size(); ++i) {
          const std::optional<obs::TraceKey> key =
              telemetry_.sampled_key(messages[i]);
          if (!key.has_value()) continue;
          sampled.emplace_back(i, *key);
          // The hop-provenance edge (`from=`) is what lets the cross-node
          // PropagationAssembler rebuild the hop graph.
          telemetry_.trace(*key, "rx",
                           "node=" + std::to_string(node_id()) +
                               ",shard=" + std::to_string(shard) +
                               ",gen=" + std::to_string(generation) +
                               ",from=" + std::to_string(froms[i]));
        }
        // Route through the container's executor: deterministic mode is
        // the old inline call verbatim; parallel mode runs the window on
        // the shard's worker lane (this callback blocks for the verdicts,
        // so the node's WAL/slash hooks never race the relay).
        const std::vector<ValidationOutcome> outcomes =
            validator->validate_batch(shard, messages, received_at);
        for (const auto& [i, key] : sampled) {
          const char* reason = verdict_name(outcomes[i].verdict);
          telemetry_.trace(key, "verdict", reason);
          if (outcomes[i].verdict != Verdict::kAccept) {
            telemetry_.finish(key, reason);
          }
        }
        std::vector<ValidationResult> results;
        results.reserve(outcomes.size());
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
          const ValidationOutcome& outcome = outcomes[i];
          switch (outcome.verdict) {
            case Verdict::kAccept:
              results.push_back(ValidationResult::kAccept);
              continue;
            case Verdict::kIgnoreEpochGap:
            case Verdict::kIgnoreDuplicate:
              results.push_back(ValidationResult::kIgnore);
              continue;
            case Verdict::kRejectSpam:
              // Double-signal: the recovered sk is slashing material
              // (§III-F). Same-x equivocation yields none to recover.
              if (outcome.recovered_sk.has_value()) {
                trigger_slash(*outcome.recovered_sk);
              }
              results.push_back(ValidationResult::kReject);
              continue;
            case Verdict::kRejectStaleRoot:
              // A root already stale on arrival is the sender's fault:
              // reject, which scores it (P4) like any invalid proof. If
              // the root window moved after the message arrived (a
              // root-changing block landed while it sat in its batch
              // window), the proof may have gone stale while buffered,
              // so it is dropped without a penalty. Unbatched validation
              // runs at arrival, so there it is always the reject; a
              // block in the same millisecond as the arrival counts as
              // before it.
              results.push_back(root_moved_at_ > received_at[i]
                                    ? ValidationResult::kIgnore
                                    : ValidationResult::kReject);
              continue;
            case Verdict::kRejectNoProof:
            case Verdict::kRejectBadProof:
              results.push_back(ValidationResult::kReject);
              continue;
          }
          results.push_back(ValidationResult::kReject);
        }
        return results;
      });

  relay_.subscribe_topic(topic, [this](const WakuMessage& msg) {
    ++stats_.delivered;
    if (const std::optional<obs::TraceKey> key = telemetry_.sampled_key(msg)) {
      telemetry_.trace(*key, "deliver", "node=" + std::to_string(node_id()));
      telemetry_.finish(*key, "deliver");
    }
    if (handler_) handler_(msg);
  });
}

void WakuRlnRelayNode::start() {
  started_ = true;
  // One gossipsub mesh + validator per subscribed shard — for BOTH
  // generations when a restored cutover is mid-overlap/drain (the
  // restart resumes the journaled phase, dual-subscription included).
  for (const shard::ShardId shard : shards_.subscribed()) {
    wire_shard(shards_, shard);
  }
  if (next_shards_ != nullptr) {
    for (const shard::ShardId shard : next_shards_->subscribed()) {
      wire_shard(*next_shards_, shard);
    }
  }

  // Root-transition history starts at the current (possibly restored)
  // cursor; transitions applied below during replay accrue into it.
  root_history_floor_ = event_cursor_;
  root_at_floor_ = group_.root();
  root_history_.clear();

  // Durable nodes resume the contract event stream from their replay
  // cursor (everything older is already folded into the restored state);
  // ephemeral nodes keep the historical live-only behaviour.
  if (persistent()) {
    // A journal write from the slashing reaction can fire a snapshot inside
    // handle_chain_block, after a block's last event but before its
    // commit_block; that block's root then never reached the restored
    // window. At a block boundary commit it now (a no-op when the window is
    // already current); a cursor inside a block is committed by the replay
    // of the block's remainder.
    if (chain_.at_block_boundary(event_cursor_)) group_.commit_block();
    chain_.replay_blocks(event_cursor_,
                         [this](chain::Blockchain::BlockEvents events) {
                           handle_chain_block(events);
                         });
  }
  chain_subscription_ = chain_.subscribe_blocks(
      [this](chain::Blockchain::BlockEvents events) {
        handle_chain_block(events);
      });

  telemetry_.trace_hops(relay_.router());

  // Periodic upkeep: per-shard nullifier-log GC (both generations and the
  // cutover domain logs), load-tracker sampling, and pending-slash
  // expiry, once per epoch.
  upkeep_task_ = network_.sim().schedule_every(
      config_.validator.epoch.epoch_length_ms, [this] {
        const std::uint64_t now = network_.local_time(node_id());
        shards_.gc(now);
        if (next_shards_ != nullptr) next_shards_->gc(now);
        reshard_.gc(current_epoch(), config_.validator.max_epoch_gap);
        if (reshard_.linger_expired(current_epoch())) {
          // Journal before applying (same fail-closed order as the
          // phase transitions): a later cutover's WAL records must
          // replay onto a coordinator that already ended this linger.
          journal_.append(WalTag::kReshardLingerEnd, {});
          telemetry_.record_flight(current_epoch(), "reshard", "linger_end");
          end_reshard_linger();
        }
        for (const shard::ShardId s : shards_.subscribed()) {
          // The p95 whole-window validation latency joins the load
          // sample: a shard can be latency-bound (deep logs, fallback
          // storms) long before its message rate looks alarming.
          load_tracker_.record(s, shards_.pipeline(s).stats().accepted,
                               shards_.pipeline(s).log().entry_count(), now,
                               telemetry_.shard_p95_validate_ms(s));
        }
        slashing_.expire(current_epoch());
        telemetry_.end_epoch(current_epoch(),
                             [this] { return health_sample(); });
        operator_tick();
      });

  relay_.start();
}

void WakuRlnRelayNode::shutdown() {
  if (!started_) return;
  started_ = false;
  if (upkeep_task_ != 0) {
    network_.sim().cancel(upkeep_task_);
    upkeep_task_ = 0;
  }
  chain_.unsubscribe_events(chain_subscription_);
  relay_.stop();
  network_.remove_node(relay_.node_id());
}

void WakuRlnRelayNode::register_membership() {
  Transaction tx;
  tx.from = config_.account;
  tx.to = contract_;
  tx.method = "register";
  tx.calldata = identity_.pk_bytes();
  tx.value = chain_.contract_at<chain::RlnMembershipContract>(contract_)
                 .deposit();
  chain_.submit(std::move(tx));
}

std::uint64_t WakuRlnRelayNode::current_epoch() const {
  return config_.validator.epoch.epoch_at(network_.local_time(node_id()));
}

WakuMessage WakuRlnRelayNode::build_message(Bytes payload,
                                            const std::string& content_topic,
                                            std::uint64_t epoch) {
  WakuMessage msg;
  msg.payload = std::move(payload);
  msg.content_topic = content_topic;
  msg.timestamp_ms = network_.local_time(node_id());
  attach_proof(msg, make_rate_limit_proof(identity_.sk, group_.own_path(), msg,
                                          epoch, rng_));
  return msg;
}

std::optional<WakuRlnRelayNode::PublishRoute>
WakuRlnRelayNode::resolve_publish_route(
    const std::string& content_topic) const {
  // The quota key is the topic's rate-limit DOMAIN: while domain routing
  // is active (cutover + the post-drop-old linger) that is the
  // old-generation shard both meshes observe into — keying by the new
  // shard any earlier would let this node publish on two sibling new
  // shards of one old family in the same epoch and double-signal
  // against itself on the shared domain log. Once the linger ends (the
  // quota map re-keys in the same step — end_reshard_linger), the
  // current map is the domain.
  // NOTE the hosting checks below use each generation's OWN shard of
  // the topic; `quota` is only the rate-limit key.
  const shard::ShardId current_shard = shards_.shard_of(content_topic);
  const shard::ShardId quota =
      reshard_.domain_of(content_topic).value_or(current_shard);
  const bool next_authoritative = reshard_.next_generation_authoritative();
  if (next_authoritative && next_shards_ != nullptr) {
    const shard::ShardId s = next_shards_->shard_of(content_topic);
    if (next_shards_->subscribes(s)) {
      return PublishRoute{next_shards_->map().pubsub_topic(s), quota};
    }
  }
  if (shards_.subscribes(current_shard)) {
    return PublishRoute{shards_.map().pubsub_topic(current_shard), quota};
  }
  // Overlap fallback: not hosting the topic's old-generation shard but
  // meshing its new-generation one — publish there; dual-generation
  // enforcement debits the same domain either way.
  if (!next_authoritative && next_shards_ != nullptr) {
    const shard::ShardId s = next_shards_->shard_of(content_topic);
    if (next_shards_->subscribes(s)) {
      return PublishRoute{next_shards_->map().pubsub_topic(s), quota};
    }
  }
  return std::nullopt;
}

WakuRlnRelayNode::PublishStatus WakuRlnRelayNode::try_publish(
    Bytes payload, const std::string& content_topic) {
  if (!is_registered()) return PublishStatus::kNotRegistered;
  const std::optional<PublishRoute> route =
      resolve_publish_route(content_topic);
  if (!route.has_value()) {
    ++stats_.publish_wrong_shard;
    return PublishStatus::kShardNotSubscribed;
  }
  const std::uint64_t epoch = current_epoch();
  // The honest quota is per (epoch, shard): shard-scoped nullifier logs
  // make shards independent rate-limit domains, so a publisher active on
  // two shards is not equivocating.
  const auto it = last_published_epoch_.find(route->quota_shard);
  if (it != last_published_epoch_.end() && it->second == epoch) {
    ++stats_.publish_rate_limited;
    return PublishStatus::kRateLimited;  // honest 1-per-epoch-per-shard limit
  }
  last_published_epoch_[route->quota_shard] = epoch;
  // Journaled before the message leaves: a node that crashes after
  // publishing and forgets it published would double-signal against
  // itself on restart — and forfeit its own stake. Shard-tagged so the
  // restart rebuilds the per-shard quota map.
  ByteWriter w;
  w.write_u64(epoch);
  journal_.append(WalTag::kOwnPublish, w.data(), route->quota_shard);
  const WakuMessage msg =
      build_message(std::move(payload), content_topic, epoch);
  if (const std::optional<obs::TraceKey> key = telemetry_.sampled_key(msg)) {
    // Span origin: every other node opens the same trace key at "rx".
    telemetry_.trace(*key, "publish",
                     "node=" + std::to_string(node_id()) +
                         ",topic=" + route->pubsub_topic +
                         ",shard=" + std::to_string(route->quota_shard));
  }
  relay_.publish_on(route->pubsub_topic, msg);
  ++stats_.published;
  return PublishStatus::kOk;
}

WakuRlnRelayNode::PublishStatus WakuRlnRelayNode::force_publish(
    Bytes payload, const std::string& content_topic) {
  // Attackers route like everyone else (authoritative generation first)
  // but ignore hosting and the local rate limit.
  return force_publish_generation(std::move(payload), content_topic,
                                  reshard_.next_generation_authoritative());
}

WakuRlnRelayNode::PublishStatus WakuRlnRelayNode::force_publish_generation(
    Bytes payload, const std::string& content_topic,
    bool use_next_generation) {
  if (!is_registered()) return PublishStatus::kNotRegistered;
  shard::ShardedValidator* validator =
      use_next_generation && next_shards_ != nullptr ? next_shards_.get()
                                                     : &shards_;
  const shard::ShardId shard = validator->shard_of(content_topic);
  relay_.publish_on(
      validator->map().pubsub_topic(shard),
      build_message(std::move(payload), content_topic, current_epoch()));
  ++stats_.published;
  return PublishStatus::kOk;
}

void WakuRlnRelayNode::publish_with_invalid_proof(
    Bytes payload, const std::string& content_topic) {
  publish_garbage_proof(std::move(payload), content_topic,
                        /*stale_root=*/false);
}

void WakuRlnRelayNode::publish_with_stale_root(
    Bytes payload, const std::string& content_topic) {
  publish_garbage_proof(std::move(payload), content_topic,
                        /*stale_root=*/true);
}

void WakuRlnRelayNode::publish_garbage_proof(Bytes payload,
                                             const std::string& content_topic,
                                             bool stale_root) {
  WakuMessage msg;
  msg.payload = std::move(payload);
  msg.content_topic = content_topic;
  msg.timestamp_ms = network_.local_time(node_id());

  RateLimitProof junk;
  junk.share_x = message_hash(msg);
  junk.share_y = Fr::random(rng_);
  junk.nullifier = Fr::random(rng_);
  junk.epoch = current_epoch();
  // A recent root dies in the verifier; a root no validator has in its
  // window dies in the cheap root stage (kRejectStaleRoot) before it.
  junk.root = stale_root ? Fr::random(rng_) : group_.root();
  const Bytes garbage = rng_.next_bytes(zksnark::Proof::kSerializedSize);
  junk.proof = zksnark::Proof::deserialize(garbage);
  attach_proof(msg, junk);
  relay_.publish_on(shard_topic_for(content_topic), msg);
  ++stats_.published;
}

bool WakuRlnRelayNode::force_publish_split(Bytes payload_a, Bytes payload_b) {
  if (!is_registered()) return false;
  // Disjoint targets on the default content topic's shard: prefer that
  // shard's mesh (that is who would relay), fall back to raw neighbors
  // before the mesh has formed.
  const std::string topic = shard_topic_for(kDefaultContentTopic);
  std::vector<net::NodeId> peers = relay_.router().mesh_peers(topic);
  if (peers.size() < 2) peers = network_.neighbors(node_id());
  if (peers.size() < 2) return false;

  const std::uint64_t epoch = current_epoch();
  const WakuMessage msg_a =
      build_message(std::move(payload_a), kDefaultContentTopic, epoch);
  const WakuMessage msg_b =
      build_message(std::move(payload_b), kDefaultContentTopic, epoch);
  const std::size_t half = peers.size() / 2;
  relay_.publish_to_on(topic, msg_a,
                       std::span<const net::NodeId>(peers.data(), half));
  relay_.publish_to_on(topic, msg_b,
                       std::span<const net::NodeId>(peers.data() + half,
                                                    peers.size() - half));
  stats_.published += 2;
  return true;
}

// -- Live reshard ------------------------------------------------------------

shard::ShardedValidator WakuRlnRelayNode::make_validator(
    shard::ShardMap map, const shard::ShardConfig& layout) const {
  return shard::ShardedValidator(zksnark::rln_keypair(config_.tree_depth).vk,
                                 group_, config_.validator, std::move(map),
                                 layout.subscribed_shards(),
                                 validator_seed(layout.generation));
}

void WakuRlnRelayNode::create_next_validator() {
  next_shards_ = std::make_unique<shard::ShardedValidator>(
      make_validator(reshard_.next_map(), reshard_.next_config()));
  install_validator_hooks(*next_shards_, /*next_generation=*/true);
}

void WakuRlnRelayNode::end_reshard_linger() {
  reshard_.end_linger();
  // Re-key the quota map from domain (old-generation) to current
  // (new-generation) shard ids. A domain entry cannot be mapped to one
  // new shard (the quota key is a shard, not a topic), so merge
  // conservatively: every hosted shard inherits the newest epoch any
  // domain saw. Over-blocks by at most one publish per shard for one
  // epoch; never under-blocks, so the node cannot double-signal against
  // itself across the key-space switch.
  std::uint64_t newest = 0;
  bool any = false;
  for (const auto& [shard, epoch] : last_published_epoch_) {
    newest = std::max(newest, epoch);
    any = true;
  }
  last_published_epoch_.clear();
  if (!any) return;
  for (const shard::ShardId s : shards_.subscribed()) {
    last_published_epoch_[s] = newest;
  }
}

void WakuRlnRelayNode::apply_reshard_transition(
    shard::ReshardPhase to, std::uint64_t linger_until_epoch, bool live) {
  switch (to) {
    case shard::ReshardPhase::kStable: {
      // Drop-old: leave the outgoing generation's meshes, re-key the
      // quota, swap the incoming validator in, start the domain linger.
      if (live) {
        for (const shard::ShardId s : shards_.subscribed()) {
          relay_.router().unsubscribe(shards_.map().pubsub_topic(s));
        }
      }
      // The shard id space and the pipelines' cumulative counters both
      // restart under the new generation; stale windows would wrap.
      // (The quota map is NOT re-keyed here: it stays domain-keyed until
      // the linger ends — see end_reshard_linger.)
      load_tracker_.reset();
      reshard_.advance(linger_until_epoch);
      WAKU_EXPECTS(next_shards_ != nullptr);
      shards_ = std::move(*next_shards_);
      next_shards_.reset();
      // The moved-from container's hooks captured its old address;
      // re-install against the new home (pipelines themselves moved by
      // pointer, so their selectors stay valid).
      install_validator_hooks(shards_, /*next_generation=*/false);
      return;
    }
    case shard::ReshardPhase::kOverlap: {
      reshard_.advance();
      create_next_validator();
      // Seed the shared domain logs with the outgoing generation's
      // per-shard history: pre-cutover signals keep counting against the
      // cutover quota.
      for (const shard::ShardId s : shards_.subscribed()) {
        reshard_.seed_domain_log(s, shards_.pipeline(s).log().serialize());
      }
      if (live) {
        for (const shard::ShardId s : next_shards_->subscribed()) {
          wire_shard(*next_shards_, s);
        }
      }
      return;
    }
    case shard::ReshardPhase::kDrain:
      reshard_.advance();
      return;
    case shard::ReshardPhase::kAnnounce:
      return;  // entered via ReshardCoordinator::begin
  }
}

void WakuRlnRelayNode::journal_reshard_phase(
    shard::ReshardPhase to, std::uint64_t linger_until_epoch) {
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(to));
  w.write_u64(linger_until_epoch);
  if (to == shard::ReshardPhase::kAnnounce) {
    const shard::ShardConfig& next = reshard_.next_config();
    w.write_u16(next.num_shards);
    w.write_u16(static_cast<std::uint16_t>(next.subscribe.size()));
    for (const shard::ShardId s : next.subscribe) w.write_u16(s);
  }
  journal_.append(WalTag::kReshardPhase, w.data());
}

bool WakuRlnRelayNode::begin_reshard(
    std::uint16_t target_num_shards,
    std::vector<shard::ShardId> new_subscribe) {
  if (!reshard_.begin(target_num_shards, std::move(new_subscribe))) {
    return false;
  }
  journal_reshard_phase(shard::ReshardPhase::kAnnounce, 0);
  telemetry_.record_flight(
      current_epoch(), "reshard",
      "phase=announce target=" + std::to_string(target_num_shards));
  return true;
}

bool WakuRlnRelayNode::advance_reshard() {
  shard::ReshardPhase to = shard::ReshardPhase::kStable;
  std::uint64_t linger_until_epoch = 0;
  switch (reshard_.phase()) {
    case shard::ReshardPhase::kStable:
      return false;
    case shard::ReshardPhase::kAnnounce:
      to = shard::ReshardPhase::kOverlap;
      break;
    case shard::ReshardPhase::kOverlap:
      to = shard::ReshardPhase::kDrain;
      break;
    case shard::ReshardPhase::kDrain:
      to = shard::ReshardPhase::kStable;
      // The domain logs stay authoritative until the epoch gate refuses
      // every epoch the cutover could still be adjudicating.
      linger_until_epoch = current_epoch() + config_.validator.max_epoch_gap + 1;
      break;
  }
  // Journal BEFORE applying: if the crash lands in between, the restart
  // replays the transition and resumes in the NEW phase — the fail-closed
  // direction (a node that already acted in a phase must never wake up
  // believing it hadn't; the reverse merely repeats an idempotent setup).
  journal_reshard_phase(to, linger_until_epoch);
  telemetry_.record_flight(
      current_epoch(), "reshard",
      std::string("phase=") + shard::reshard_phase_name(to));
  apply_reshard_transition(to, linger_until_epoch, /*live=*/true);
  return true;
}

// -- Autonomous operator loop -------------------------------------------------

void WakuRlnRelayNode::operator_tick() {
  if (!config_.operator_loop.enabled) return;
  OperatorInputs in;
  in.epoch = current_epoch();
  in.in_cutover = reshard_.in_cutover();
  in.lingering = reshard_.lingering();
  in.recommendation = load_tracker_.recommend(shards_.map());
  const obs::AnomalyEngine& anomalies = telemetry_.anomalies();
  in.p95_budget_breach = anomalies.firing(obs::AnomalyRule::kP95BudgetBreach);
  in.propagation_latency_breach =
      anomalies.firing(obs::AnomalyRule::kPropagationLatency);
  in.current = reshard_.current_config();
  std::optional<OperatorDecision> decision =
      operator_.decide(config_.operator_loop, in);
  if (!decision.has_value()) return;
  // Journal and bookkeeping first, then the flight event, then the act —
  // the fail-closed order the replay relies on.
  operator_.commit(*decision, journal_);
  if (decision->action == OperatorDecision::Action::kAdvance) {
    telemetry_.record_flight(in.epoch, "operator",
                             std::string("advance from=") +
                                 shard::reshard_phase_name(reshard_.phase()));
    advance_reshard();
    return;
  }
  telemetry_.record_flight(in.epoch, "operator",
                           "begin target=" + std::to_string(decision->target) +
                               " reason=" + in.recommendation.reason);
  begin_reshard(decision->target, std::move(decision->subscribe));
}

void WakuRlnRelayNode::trigger_slash(const Fr& spammer_sk) {
  const std::uint64_t epoch = current_epoch();
  if (const std::optional<std::uint64_t> index =
          slashing_.commit(spammer_sk, group_, epoch)) {
    telemetry_.record_flight(epoch, "slash",
                             "commit index=" + std::to_string(*index));
  }
}

void WakuRlnRelayNode::handle_chain_block(
    chain::Blockchain::BlockEvents events) {
  // The cursor advances as each event lands, so a snapshot a slashing
  // record triggers mid-block resumes from exactly the next event.
  const std::uint64_t root_version = group_.root_version();
  group_.apply(events, [this](const chain::Event& event) {
    ++event_cursor_;
    if (const std::optional<std::uint64_t> slashed =
            slashing_.on_chain_event(event, group_)) {
      telemetry_.record_flight(
          current_epoch(), "slash",
          "member_slashed index=" + std::to_string(*slashed));
    }
  });
  group_.commit_block();
  if (group_.root_version() != root_version) {
    root_moved_at_ = network_.local_time(node_id());
  }

  // Record the root transition (if any) for delta-checkpoint serving: one
  // entry per block at most.
  const Fr now_root = group_.root();
  const Fr& prev_root =
      root_history_.empty() ? root_at_floor_ : root_history_.back().root;
  if (now_root != prev_root) {
    root_history_.push_back(RootTransition{event_cursor_, now_root});
    if (root_history_.size() > kRootHistoryCap) {
      root_history_floor_ = root_history_.front().cursor;
      root_at_floor_ = root_history_.front().root;
      root_history_.pop_front();
    }
  }
}

// -- Observability -----------------------------------------------------------

obs::NodeHealthSample WakuRlnRelayNode::health_sample() const {
  const NodeTelemetrySnapshot t = telemetry_.snapshot();
  obs::NodeHealthSample s;
  s.node_id = node_id();
  s.epoch = current_epoch();
  s.published = t.node.published;
  s.delivered = t.node.delivered;
  s.accepted = t.pipeline.accepted;
  s.spam_detected = t.pipeline.spam_detected;
  s.log_entries = t.pipeline.log_entries;
  s.executor_rejected = t.executor.rejected;
  // Quota saturation: fraction of hosted shards whose 1-msg/epoch honest
  // quota is already consumed this epoch.
  std::size_t saturated = 0;
  for (const shard::ShardId sh : shards_.subscribed()) {
    const auto it = last_published_epoch_.find(sh);
    if (it != last_published_epoch_.end() && it->second == s.epoch) {
      ++saturated;
    }
    s.shards.push_back(
        obs::ShardHealth{sh, telemetry_.shard_p95_validate_ms(sh)});
  }
  if (!s.shards.empty()) {
    s.quota_saturation = static_cast<double>(saturated) /
                         static_cast<double>(s.shards.size());
  }
  return s;
}

// -- Durable state -----------------------------------------------------------

void WakuRlnRelayNode::force_snapshot() {
  if (persistent()) journal_.store()->force_snapshot();
}

Bytes WakuRlnRelayNode::serialize_state() const {
  ByteWriter w;
  w.write_u8(kStateVersion);
  // The identity secret rides in the snapshot so a restart is
  // self-contained. With keystore_password set it travels sealed under the
  // ChaCha20-Poly1305 keystore (rln/keystore.hpp) — leaking a snapshot
  // file then leaks a stake-bearing sk only through the password. Sealing
  // draws a fresh salt/nonce per snapshot, so sealed snapshots are not
  // byte-reproducible (plaintext ones still are).
  if (config_.keystore_password.empty()) {
    w.write_u8(0);  // plaintext sk
    w.write_raw(identity_.sk.to_bytes_be());
  } else {
    w.write_u8(1);  // keystore-sealed credential
    MembershipCredential credential;
    credential.identity = identity_;
    credential.member_index = group_.own_index().value_or(0);
    w.write_bytes(keystore_seal(credential, config_.keystore_password,
                                seal_rng_));
  }
  w.write_u64(event_cursor_);
  // Sealed snapshots must not leak the sk through the group blob either —
  // the credential above is its only (encrypted) carrier.
  w.write_bytes(group_.serialize(
      /*include_identity=*/config_.keystore_password.empty()));
  // Cutover state machine + shared domain logs + (mid-reshard) the
  // incoming generation's pipeline state: a crashed node restarts into
  // the exact journaled phase, dual-subscription and all.
  w.write_bytes(reshard_.serialize());
  w.write_bytes(shards_.serialize_state());
  w.write_u8(next_shards_ != nullptr ? 1 : 0);
  if (next_shards_ != nullptr) {
    w.write_bytes(next_shards_->serialize_state());
  }
  // Per-shard honest-quota map, sorted by shard so identical states
  // serialize byte-identically (restart tests assert on it).
  std::vector<std::pair<shard::ShardId, std::uint64_t>> quota(
      last_published_epoch_.begin(), last_published_epoch_.end());
  std::sort(quota.begin(), quota.end());
  w.write_u16(static_cast<std::uint16_t>(quota.size()));
  for (const auto& [shard, epoch] : quota) {
    w.write_u16(shard);
    w.write_u64(epoch);
  }
  w.write_u64(stats_.published);
  w.write_u64(stats_.publish_rate_limited);
  w.write_u64(stats_.publish_wrong_shard);
  w.write_u64(stats_.delivered);
  w.write_u64(stats_.slash_commits);
  w.write_u64(stats_.slash_reveals);
  w.write_u64(stats_.slash_rewards);
  w.write_u64(stats_.slashes_expired);
  slashing_.serialize(w);
  // Operator-loop bookkeeping (v5): a restarted node resumes the
  // cooldown/dwell anchors instead of re-triggering immediately.
  operator_.serialize(w);
  return std::move(w).take();
}

void WakuRlnRelayNode::restore_snapshot(BytesView payload) {
  ByteReader r(payload);
  // There is no cross-version migration, and no fallback either: the
  // own-publish quota and the commit-reveal salts exist nowhere but here,
  // so booting without them could double-signal or forfeit a reward.
  const std::uint8_t version = r.read_u8();
  if (version != kStateVersion) {
    throw std::runtime_error("snapshot payload version " +
                             std::to_string(version) + ", expected " +
                             std::to_string(kStateVersion) +
                             " (refusing to restore)");
  }
  const std::uint8_t sealed = r.read_u8();
  if (sealed == 0) {
    identity_ = Identity::from_secret(Fr::from_bytes_reduce(r.read_raw(32)));
  } else {
    // Fail closed: without the right password there is no identity to run
    // as, and booting with a fresh one would silently fork the membership.
    const Bytes blob = r.read_bytes();
    const std::optional<MembershipCredential> credential =
        keystore_open(blob, config_.keystore_password);
    if (!credential.has_value()) {
      throw std::runtime_error(
          "snapshot keystore: wrong password or tampered credential "
          "(refusing to restore)");
    }
    identity_ = credential->identity;
  }
  event_cursor_ = r.read_u64();
  const Bytes group_bytes = r.read_bytes();
  group_.restore(group_bytes);
  if (sealed != 0) {
    // The group blob was serialized identity-free; re-inject the unsealed
    // identity (the restored own_index is kept as-is).
    group_.set_own_identity(identity_);
  }
  const Bytes reshard_bytes = r.read_bytes();
  reshard_.restore(reshard_bytes);
  // The coordinator is authoritative for the effective layout: a node
  // that completed (or is mid-way through) a reshard has moved past its
  // construction-time ShardConfig, so rebuild the validator containers
  // to match before restoring their pipeline state into them.
  if (!(shards_.map() == reshard_.current_map())) {
    shards_ = make_validator(reshard_.current_map(), reshard_.current_config());
    install_validator_hooks(shards_, /*next_generation=*/false);
  }
  next_shards_.reset();
  if (reshard_.in_cutover() && reshard_.phase() != shard::ReshardPhase::kAnnounce) {
    create_next_validator();
  }
  const Bytes shards_bytes = r.read_bytes();
  shards_.restore_state(shards_bytes);
  if (r.read_u8() != 0) {
    const Bytes next_bytes = r.read_bytes();
    WAKU_EXPECTS(next_shards_ != nullptr);
    next_shards_->restore_state(next_bytes);
  }
  last_published_epoch_.clear();
  const std::uint16_t quota_count = r.read_u16();
  for (std::uint16_t i = 0; i < quota_count; ++i) {
    const shard::ShardId shard = r.read_u16();
    last_published_epoch_[shard] = r.read_u64();
  }
  stats_ = NodeStats{};
  stats_.published = r.read_u64();
  stats_.publish_rate_limited = r.read_u64();
  stats_.publish_wrong_shard = r.read_u64();
  stats_.delivered = r.read_u64();
  stats_.slash_commits = r.read_u64();
  stats_.slash_reveals = r.read_u64();
  stats_.slash_rewards = r.read_u64();
  stats_.slashes_expired = r.read_u64();
  slashing_.restore(r);
  operator_.restore(r);
}

void WakuRlnRelayNode::apply_wal_record(WalTag tag, std::uint16_t shard,
                                        BytesView payload) {
  ByteReader r(payload);
  switch (tag) {
    case WalTag::kNullifier:
    case WalTag::kNullifierNext:
    case WalTag::kCutoverObservation: {
      const Observation o = NodeJournal::read_observation(payload);
      if (tag == WalTag::kCutoverObservation) {
        reshard_.inject_domain_observation(shard, o.epoch, o.nullifier,
                                           o.share, o.proof_fp);
        break;
      }
      // Routed by the record's shard tag into that shard's log; records
      // for shards this node no longer hosts are dropped inside.
      // Incoming-generation mirrors can only precede the drop-old phase
      // record, so that container exists at this point of the replay (or
      // the cutover never resumed — drop).
      shard::ShardedValidator* validator =
          tag == WalTag::kNullifier ? &shards_ : next_shards_.get();
      if (validator != nullptr) {
        validator->inject_observation(shard, o.epoch, o.nullifier, o.share,
                                      o.proof_fp);
      }
      break;
    }
    case WalTag::kSlashCommit:
    case WalTag::kSlashReveal:
    case WalTag::kSlashResolve:
      slashing_.replay(tag, payload);
      break;
    case WalTag::kOwnPublish:
      last_published_epoch_[shard] = r.read_u64();
      break;
    case WalTag::kReshardPhase: {
      const auto to = static_cast<shard::ReshardPhase>(r.read_u8());
      const std::uint64_t linger_until_epoch = r.read_u64();
      if (to == shard::ReshardPhase::kAnnounce) {
        const std::uint16_t target = r.read_u16();
        const std::uint16_t count = r.read_u16();
        std::vector<shard::ShardId> subscribe;
        subscribe.reserve(count);
        for (std::uint16_t i = 0; i < count; ++i) {
          subscribe.push_back(r.read_u16());
        }
        reshard_.begin(target, std::move(subscribe));
      } else {
        // Relay wiring is left to start(), which wires whatever phase
        // the replay lands on.
        apply_reshard_transition(to, linger_until_epoch, /*live=*/false);
      }
      break;
    }
    case WalTag::kReshardLingerEnd:
      end_reshard_linger();
      break;
    case WalTag::kOperatorDecision: {
      const OperatorDecision d = operator_.replay(payload);
      // Re-seed the (fresh, in-memory) flight ring so a postmortem after
      // a crash still shows the operator's pre-crash decisions.
      telemetry_.record_flight(
          d.epoch, "operator",
          std::string(d.action == OperatorDecision::Action::kBegin
                          ? "begin"
                          : "advance") +
              " target=" + std::to_string(d.target) + " (wal replay)");
      break;
    }
  }
}

void WakuRlnRelayNode::restore_from_store() {
  bool restored = false;
  persist::StateStore& store = *journal_.store();
  if (const std::optional<Bytes> snapshot = store.load_snapshot()) {
    restore_snapshot(*snapshot);
    restored = true;
  }
  // WAL records postdate the snapshot; chain events from the cursor are
  // replayed later (in start()), after which a restored pending slash can
  // meet its SlashCommitted event and resume the reveal.
  std::size_t wal_records = 0;
  store.replay_wal([this, &wal_records](std::uint8_t type,
                                        std::uint16_t shard,
                                        BytesView payload) {
    ++wal_records;
    apply_wal_record(static_cast<WalTag>(type), shard, payload);
  });
  if (restored || wal_records > 0) {
    // A prior life existed: this boot is a crash-restart. Record it and
    // dump the black box (what the replay re-seeded) for the operator.
    telemetry_.record_flight(current_epoch(), "restart",
                             "wal_records=" + std::to_string(wal_records) +
                                 " cursor=" + std::to_string(event_cursor_));
    telemetry_.dump_postmortem("crash-restart");
  }
}

std::vector<shard::ShardWatermark> WakuRlnRelayNode::hosted_watermarks(
    std::span<const shard::ShardId> shards) const {
  std::vector<shard::ShardWatermark> watermarks =
      shards_.nullifier_watermarks();
  if (!shards.empty()) {
    std::erase_if(watermarks, [&shards](const shard::ShardWatermark& wm) {
      return std::find(shards.begin(), shards.end(), wm.shard) ==
             shards.end();
    });
  }
  return watermarks;
}

Checkpoint WakuRlnRelayNode::make_checkpoint(
    std::span<const shard::ShardId> shards) const {
  return make_group_checkpoint(group_, event_cursor_,
                               hosted_watermarks(shards));
}

std::optional<DeltaCheckpoint> WakuRlnRelayNode::make_delta_checkpoint(
    std::uint64_t from_cursor, const Fr& from_root,
    std::span<const shard::ShardId> shards) const {
  // The history must still cover the client's cursor and the future
  // cursor must not be ahead of us — otherwise we cannot prove the delta
  // lossless and the caller falls back to a full checkpoint.
  if (from_cursor < root_history_floor_ || from_cursor > event_cursor_) {
    return std::nullopt;
  }
  // The recorded root at from_cursor: the last transition at or before it.
  Fr root_at_from = root_at_floor_;
  std::size_t tail_begin = 0;
  for (std::size_t i = 0; i < root_history_.size(); ++i) {
    if (root_history_[i].cursor > from_cursor) break;
    root_at_from = root_history_[i].root;
    tail_begin = i + 1;
  }
  if (root_at_from != from_root) return std::nullopt;  // forked/forged base
  const std::size_t transitions = root_history_.size() - tail_begin;
  if (transitions > kDeltaRootTailMax) return std::nullopt;  // lossy tail

  DeltaCheckpoint delta;
  delta.from_cursor = from_cursor;
  delta.from_root = from_root;
  delta.to_cursor = event_cursor_;
  delta.member_count = group_.member_count();
  delta.removed_count = group_.removed_count();
  delta.nullifier_watermarks = hosted_watermarks(shards);
  delta.root_tail.reserve(transitions);
  for (std::size_t i = tail_begin; i < root_history_.size(); ++i) {
    delta.root_tail.push_back(root_history_[i].root);
  }
  return delta;
}

}  // namespace waku::rln

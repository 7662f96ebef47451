#include "rln/node.hpp"

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

/// The NodeStats counters a snapshot carries, in snapshot order.
constexpr std::uint64_t NodeStats::*kSnapshotStats[] = {
    &NodeStats::published,           &NodeStats::publish_rate_limited,
    &NodeStats::publish_wrong_shard, &NodeStats::delivered,
    &NodeStats::slash_commits,       &NodeStats::slash_reveals,
    &NodeStats::slash_rewards,       &NodeStats::slashes_expired};

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
      shards_(config.tree_depth, config.validator, config.shards,
              config.load_tracker, group_, journal_,
              seed ^ 0x52C4A55E9D1ULL),
      slashing_(rng_, journal_, stats_, chain, contract, config.account,
                config.slash_expiry_epochs),
      // The default telemetry clock: the node's virtual time, ms as ns.
      telemetry_(config.obs, config.persist_dir,
                 [this] {
                   return network_.local_time(node_id()) * 1'000'000ULL;
                 },
                 {relay_, shards_.current(), stats_, operator_}) {
  group_.set_own_identity(identity_);
  shards_.bind(telemetry_,
               {[this](shard::ShardedValidator& validator,
                       shard::ShardId shard) { wire_shard(validator, shard); },
                [this](const std::string& topic) {
                  relay_.router().unsubscribe(topic);
                },
                [this](const Fr& sk) { trigger_slash(sk); }});

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
        shard::ShardedValidator* validator = shards_.generation(generation);
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
        return shards_.relay_results(outcomes, received_at, root_moved_at_);
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
  shards_.wire_all();

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
        shards_.upkeep(network_.local_time(node_id()), current_epoch());
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

WakuRlnRelayNode::PublishStatus WakuRlnRelayNode::try_publish(
    Bytes payload, const std::string& content_topic) {
  if (!is_registered()) return PublishStatus::kNotRegistered;
  const std::optional<NodeShards::PublishRoute> route =
      shards_.route(content_topic);
  if (!route.has_value()) {
    ++stats_.publish_wrong_shard;
    return PublishStatus::kShardNotSubscribed;
  }
  const std::uint64_t epoch = current_epoch();
  // The honest quota is per (epoch, shard): shard-scoped nullifier logs
  // make shards independent rate-limit domains, so a publisher active on
  // two shards is not equivocating.
  if (!shards_.claim_quota(route->quota_shard, epoch)) {
    ++stats_.publish_rate_limited;
    return PublishStatus::kRateLimited;  // honest 1-per-epoch-per-shard limit
  }
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

WakuRlnRelayNode::PublishStatus WakuRlnRelayNode::force_publish_generation(
    Bytes payload, const std::string& content_topic,
    bool use_next_generation) {
  if (!is_registered()) return PublishStatus::kNotRegistered;
  relay_.publish_on(
      shards_.topic_in(content_topic, use_next_generation),
      build_message(std::move(payload), content_topic, current_epoch()));
  ++stats_.published;
  return PublishStatus::kOk;
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

// -- Autonomous operator loop -------------------------------------------------

void WakuRlnRelayNode::operator_tick() {
  if (!config_.operator_loop.enabled) return;
  OperatorInputs in;
  in.epoch = current_epoch();
  const shard::ReshardCoordinator& reshard = shards_.reshard();
  in.in_cutover = reshard.in_cutover();
  in.lingering = reshard.lingering();
  in.recommendation = shards_.load_tracker().recommend(shards_.map());
  const obs::AnomalyEngine& anomalies = telemetry_.anomalies();
  in.p95_budget_breach = anomalies.firing(obs::AnomalyRule::kP95BudgetBreach);
  in.propagation_latency_breach =
      anomalies.firing(obs::AnomalyRule::kPropagationLatency);
  in.current = reshard.current_config();
  std::optional<OperatorDecision> decision =
      operator_.decide(config_.operator_loop, in);
  if (!decision.has_value()) return;
  // Journal and bookkeeping first, then the flight event, then the act —
  // the fail-closed order the replay relies on.
  operator_.commit(*decision, journal_);
  if (decision->action == OperatorDecision::Action::kAdvance) {
    telemetry_.record_flight(in.epoch, "operator",
                             std::string("advance from=") +
                                 shard::reshard_phase_name(reshard.phase()));
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
  for (const shard::ShardId sh : shards_.current().subscribed()) {
    s.shards.push_back(
        obs::ShardHealth{sh, telemetry_.shard_p95_validate_ms(sh)});
  }
  s.quota_saturation = shards_.quota_saturation(s.epoch);
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
  shards_.serialize(w);
  for (const auto field : kSnapshotStats) w.write_u64(stats_.*field);
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
  shards_.restore(r);
  stats_ = NodeStats{};
  for (const auto field : kSnapshotStats) stats_.*field = r.read_u64();
  slashing_.restore(r);
  operator_.restore(r);
}

void WakuRlnRelayNode::apply_wal_record(WalTag tag, std::uint16_t shard,
                                        BytesView payload) {
  switch (tag) {
    case WalTag::kSlashCommit:
    case WalTag::kSlashReveal:
    case WalTag::kSlashResolve:
      slashing_.replay(tag, payload);
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
    default:
      shards_.replay(tag, shard, payload);
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

Checkpoint WakuRlnRelayNode::make_checkpoint(
    std::span<const shard::ShardId> shards) const {
  return make_group_checkpoint(group_, event_cursor_,
                               shards_.current().nullifier_watermarks(shards));
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
  delta.nullifier_watermarks = shards_.current().nullifier_watermarks(shards);
  delta.root_tail.reserve(transitions);
  for (std::size_t i = tail_begin; i < root_history_.size(); ++i) {
    delta.root_tail.push_back(root_history_[i].root);
  }
  return delta;
}

}  // namespace waku::rln

#include "rln/node_shards.hpp"

#include <algorithm>

#include "common/expect.hpp"
#include "zksnark/rln_circuit.hpp"

namespace waku::rln {

using gossipsub::ValidationResult;
using shard::ReshardPhase;

NodeShards::NodeShards(std::size_t tree_depth,
                       const ValidatorConfig& validator,
                       const shard::ShardConfig& layout,
                       const shard::ShardLoadTracker::Config& load,
                       const GroupManager& group, NodeJournal& journal,
                       std::uint64_t seed)
    : tree_depth_(tree_depth),
      config_(validator),
      group_(group),
      journal_(journal),
      seed_(seed),
      current_(make_validator(shard::ShardMap(layout), layout)),
      reshard_(layout),
      load_tracker_(load) {}

void NodeShards::bind(NodeTelemetry& telemetry, Hooks hooks) {
  telemetry_ = &telemetry;
  hooks_ = std::move(hooks);
  install_hooks(current_, /*next=*/false);
}

shard::ShardedValidator NodeShards::make_validator(
    shard::ShardMap map, const shard::ShardConfig& layout) const {
  // The RLC weight seed, per node and generation (and, inside, per shard):
  // senders must not be able to predict another node's weight stream.
  const std::uint64_t generation = layout.generation;
  return shard::ShardedValidator(zksnark::rln_keypair(tree_depth_).vk, group_,
                                 config_, std::move(map),
                                 layout.subscribed_shards(),
                                 seed_ ^ (0xC0FFEE5ULL * (generation + 1)));
}

void NodeShards::install_hooks(shard::ShardedValidator& validator, bool next) {
  telemetry_->attach(validator);
  // Observed shares exist only in transit: journal them (under the owning
  // shard's WAL tag) the moment any shard's pipeline records one, so a
  // crash cannot blind us to double-signals on any shard. During a cutover
  // the incoming generation's shard ids collide with the outgoing ones, so
  // its mirrors ride a distinct tag.
  const WalTag tag = next ? WalTag::kNullifierNext : WalTag::kNullifier;
  for (const shard::ShardId s : validator.subscribed()) {
    ValidationPipeline& pipeline = validator.pipeline(s);
    pipeline.set_observe_hook([this, tag, s](std::uint64_t epoch,
                                             const Fr& nullifier,
                                             const sss::Share& share,
                                             std::uint64_t fp) {
      journal_.append_observation(tag, s, epoch, nullifier, share, fp);
    });
    // Dual-generation enforcement: while a cutover (or its linger window)
    // is active, every message's rate-limit domain is its OLD-generation
    // shard and both generations' meshes observe into that one shared log,
    // so migration can never double a quota.
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

void NodeShards::wire_all() {
  for (const shard::ShardId s : current_.subscribed()) hooks_.wire(current_, s);
  if (next_ == nullptr) return;
  for (const shard::ShardId s : next_->subscribed()) hooks_.wire(*next_, s);
}

shard::ShardedValidator* NodeShards::generation(std::uint32_t generation) {
  if (next_ != nullptr && next_->map().generation() == generation) {
    return next_.get();
  }
  return current_.map().generation() == generation ? &current_ : nullptr;
}

// -- Publishing ---------------------------------------------------------------

std::string NodeShards::topic_in(const std::string& content_topic,
                                 bool next) const {
  const shard::ShardedValidator& v =
      next && next_ != nullptr ? *next_ : current_;
  return v.map().pubsub_topic(v.shard_of(content_topic));
}

std::optional<NodeShards::PublishRoute> NodeShards::route(
    const std::string& content_topic) const {
  // The quota key is the topic's rate-limit DOMAIN: while domain routing
  // is active (cutover + the post-drop-old linger) that is the
  // old-generation shard both meshes observe into. Keying by the new shard
  // any earlier would let this node publish on two sibling new shards of
  // one old family in the same epoch and double-signal against itself on
  // the shared domain log. Once the linger ends (the quota re-keys in the
  // same step, end_linger), the current map is the domain. The hosting
  // checks use each generation's OWN shard of the topic.
  const shard::ShardId quota = reshard_.domain_of(content_topic)
                                   .value_or(current_.shard_of(content_topic));
  // The authoritative generation first, the other live one as fallback:
  // dual-generation enforcement debits the same domain either way.
  const bool authoritative = reshard_.next_generation_authoritative();
  for (const bool next : {authoritative, !authoritative}) {
    const shard::ShardedValidator& v =
        next && next_ != nullptr ? *next_ : current_;
    const shard::ShardId s = v.shard_of(content_topic);
    if (v.subscribes(s)) return PublishRoute{v.map().pubsub_topic(s), quota};
  }
  return std::nullopt;
}

bool NodeShards::claim_quota(shard::ShardId quota_shard, std::uint64_t epoch) {
  const auto it = quota_.find(quota_shard);
  if (it != quota_.end() && it->second == epoch) return false;
  quota_[quota_shard] = epoch;
  // Journaled before the message leaves: a node that crashes after
  // publishing and forgets it published would double-signal against
  // itself on restart and forfeit its own stake. Shard-tagged so the
  // restart rebuilds the per-shard quota.
  ByteWriter w;
  w.write_u64(epoch);
  journal_.append(WalTag::kOwnPublish, w.data(), quota_shard);
  return true;
}

double NodeShards::quota_saturation(std::uint64_t epoch) const {
  // A container always hosts at least one shard.
  const std::vector<shard::ShardId>& hosted = current_.subscribed();
  std::size_t spent = 0;
  for (const shard::ShardId s : hosted) {
    const auto it = quota_.find(s);
    spent += it != quota_.end() && it->second == epoch ? 1 : 0;
  }
  return static_cast<double>(spent) / static_cast<double>(hosted.size());
}

std::vector<ValidationResult> NodeShards::relay_results(
    std::span<const ValidationOutcome> outcomes,
    std::span<const std::uint64_t> received_at,
    std::uint64_t root_moved_at) const {
  std::vector<ValidationResult> results(outcomes.size(),
                                        ValidationResult::kReject);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    switch (outcomes[i].verdict) {
      case Verdict::kAccept:
        results[i] = ValidationResult::kAccept;
        break;
      case Verdict::kIgnoreEpochGap:
      case Verdict::kIgnoreDuplicate:
        results[i] = ValidationResult::kIgnore;
        break;
      case Verdict::kRejectSpam:
        // Double-signal: the recovered sk is slashing material (§III-F).
        // Same-x equivocation yields none to recover.
        if (outcomes[i].recovered_sk.has_value()) {
          hooks_.slash(*outcomes[i].recovered_sk);
        }
        break;
      case Verdict::kRejectStaleRoot:
        // A root already stale on arrival is the sender's fault: reject,
        // which scores it (P4) like any invalid proof. If the root window
        // moved after the message arrived (a root-changing block landed
        // while it sat in its batch window), the proof may have gone stale
        // while buffered, so it is dropped without a penalty. Unbatched
        // validation runs at arrival, so there it is always the reject; a
        // block in the same millisecond as the arrival counts as before.
        if (root_moved_at > received_at[i]) {
          results[i] = ValidationResult::kIgnore;
        }
        break;
      case Verdict::kRejectNoProof:
      case Verdict::kRejectBadProof:
        break;
    }
  }
  return results;
}

// -- Cutover ------------------------------------------------------------------

void NodeShards::create_next() {
  next_ = std::make_unique<shard::ShardedValidator>(
      make_validator(reshard_.next_map(), reshard_.next_config()));
  install_hooks(*next_, /*next=*/true);
}

void NodeShards::end_linger() {
  reshard_.end_linger();
  if (quota_.empty()) return;
  std::uint64_t newest = 0;
  for (const auto& [shard, epoch] : quota_) newest = std::max(newest, epoch);
  quota_.clear();
  for (const shard::ShardId s : current_.subscribed()) quota_[s] = newest;
}

void NodeShards::apply(ReshardPhase to, std::uint64_t linger_until_epoch,
                       bool live) {
  switch (to) {
    case ReshardPhase::kStable:
      // Drop-old: leave the outgoing generation's meshes, swap the
      // incoming validator in, start the domain linger (the quota stays
      // domain-keyed until the linger ends, see end_linger).
      if (live) {
        for (const shard::ShardId s : current_.subscribed()) {
          hooks_.unwire(current_.map().pubsub_topic(s));
        }
      }
      // The shard id space and the pipelines' cumulative counters both
      // restart under the new generation; stale windows would wrap.
      load_tracker_.reset();
      reshard_.advance(linger_until_epoch);
      WAKU_EXPECTS(next_ != nullptr);
      current_ = std::move(*next_);
      next_.reset();
      // Re-hook as the current generation: its own-log mirrors journal
      // under kNullifier from here on.
      install_hooks(current_, /*next=*/false);
      return;
    case ReshardPhase::kOverlap:
      reshard_.advance();
      create_next();
      // Seed the shared domain logs with the outgoing generation's
      // per-shard history: pre-cutover signals keep counting against the
      // cutover quota.
      for (const shard::ShardId s : current_.subscribed()) {
        reshard_.seed_domain_log(s, current_.pipeline(s).log().serialize());
      }
      if (live) {
        for (const shard::ShardId s : next_->subscribed()) {
          hooks_.wire(*next_, s);
        }
      }
      return;
    case ReshardPhase::kDrain:
      reshard_.advance();
      return;
    case ReshardPhase::kAnnounce:
      return;  // entered via begin
  }
}

bool NodeShards::begin(std::uint16_t target_num_shards,
                       std::vector<shard::ShardId> subscribe,
                       std::uint64_t epoch) {
  if (!reshard_.begin(target_num_shards, std::move(subscribe))) return false;
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(ReshardPhase::kAnnounce));
  w.write_u64(0);
  const shard::ShardConfig& next = reshard_.next_config();
  w.write_u16(next.num_shards);
  w.write_u16(static_cast<std::uint16_t>(next.subscribe.size()));
  for (const shard::ShardId s : next.subscribe) w.write_u16(s);
  journal_.append(WalTag::kReshardPhase, w.data());
  telemetry_->record_flight(
      epoch, "reshard",
      "phase=announce target=" + std::to_string(target_num_shards));
  return true;
}

bool NodeShards::advance(std::uint64_t epoch) {
  const ReshardPhase from = reshard_.phase();
  if (from == ReshardPhase::kStable) return false;
  // announce -> overlap -> drain -> stable (drop-old).
  const ReshardPhase to =
      from == ReshardPhase::kDrain
          ? ReshardPhase::kStable
          : static_cast<ReshardPhase>(static_cast<std::uint8_t>(from) + 1);
  // The domain logs stay authoritative until the epoch gate refuses every
  // epoch the cutover could still be adjudicating.
  const std::uint64_t linger_until_epoch =
      to == ReshardPhase::kStable ? epoch + config_.max_epoch_gap + 1 : 0;
  // Journal BEFORE applying: if the crash lands in between, the restart
  // replays the transition and resumes in the NEW phase, the fail-closed
  // direction (a node that already acted in a phase must never wake up
  // believing it hadn't; the reverse merely repeats an idempotent setup).
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(to));
  w.write_u64(linger_until_epoch);
  journal_.append(WalTag::kReshardPhase, w.data());
  telemetry_->record_flight(
      epoch, "reshard", std::string("phase=") + shard::reshard_phase_name(to));
  apply(to, linger_until_epoch, /*live=*/true);
  return true;
}

void NodeShards::upkeep(std::uint64_t now_ms, std::uint64_t epoch) {
  current_.gc(now_ms);
  if (next_ != nullptr) next_->gc(now_ms);
  reshard_.gc(epoch, config_.max_epoch_gap);
  if (reshard_.linger_expired(epoch)) {
    // Journal before applying (the phase transitions' fail-closed order):
    // a later cutover's WAL records must replay onto a coordinator that
    // already ended this linger.
    journal_.append(WalTag::kReshardLingerEnd, {});
    telemetry_->record_flight(epoch, "reshard", "linger_end");
    end_linger();
  }
  for (const shard::ShardId s : current_.subscribed()) {
    // The p95 whole-window validation latency joins the load sample: a
    // shard can be latency-bound (deep logs, fallback storms) long before
    // its message rate looks alarming.
    load_tracker_.record(s, current_.pipeline(s).stats().accepted,
                         current_.pipeline(s).log().entry_count(), now_ms,
                         telemetry_->shard_p95_validate_ms(s));
  }
}

// -- Durable state ------------------------------------------------------------

void NodeShards::replay(WalTag tag, std::uint16_t shard, BytesView payload) {
  ByteReader r(payload);
  switch (tag) {
    case WalTag::kNullifier:
    case WalTag::kNullifierNext:
    case WalTag::kCutoverObservation: {
      const Observation o = NodeJournal::read_observation(payload);
      if (tag == WalTag::kCutoverObservation) {
        reshard_.inject_domain_observation(shard, o.epoch, o.nullifier,
                                           o.share, o.proof_fp);
        return;
      }
      // Routed by the record's shard tag into that shard's log; records
      // for shards this node no longer hosts are dropped inside.
      // Incoming-generation mirrors can only precede the drop-old phase
      // record, so that container exists at this point of the replay (or
      // the cutover never resumed: drop).
      shard::ShardedValidator* v =
          tag == WalTag::kNullifier ? &current_ : next_.get();
      if (v != nullptr) {
        v->inject_observation(shard, o.epoch, o.nullifier, o.share,
                              o.proof_fp);
      }
      return;
    }
    case WalTag::kOwnPublish:
      quota_[shard] = r.read_u64();
      return;
    case WalTag::kReshardPhase: {
      const ReshardPhase to = shard::reshard_phase_from_byte(r.read_u8());
      const std::uint64_t linger_until_epoch = r.read_u64();
      if (to != ReshardPhase::kAnnounce) {
        // Relay wiring is left to start(), which wires whatever phase the
        // replay lands on.
        apply(to, linger_until_epoch, /*live=*/false);
        return;
      }
      const std::uint16_t target = r.read_u16();
      std::vector<shard::ShardId> subscribe(r.read_u16());
      for (shard::ShardId& s : subscribe) s = r.read_u16();
      reshard_.begin(target, std::move(subscribe));
      return;
    }
    case WalTag::kReshardLingerEnd:
      end_linger();
      return;
    default:
      return;
  }
}

void NodeShards::serialize(ByteWriter& w) const {
  // Cutover state machine + shared domain logs + (mid-reshard) the
  // incoming generation's pipeline state: a crashed node restarts into
  // the exact journaled phase, dual-subscription and all.
  w.write_bytes(reshard_.serialize());
  w.write_bytes(current_.serialize_state());
  w.write_u8(next_ != nullptr ? 1 : 0);
  if (next_ != nullptr) w.write_bytes(next_->serialize_state());
  // Ordered by shard, so identical states serialize byte-identically.
  w.write_u16(static_cast<std::uint16_t>(quota_.size()));
  for (const auto& [shard, epoch] : quota_) {
    w.write_u16(shard);
    w.write_u64(epoch);
  }
}

void NodeShards::restore(ByteReader& r) {
  // The section is decoded and checked before anything is replaced, so a
  // snapshot with a corrupt layout leaves the part as it was.
  shard::ReshardCoordinator reshard{shard::ShardConfig{}};
  reshard.restore(r.read_bytes());
  const Bytes current_bytes = r.read_bytes();
  std::optional<Bytes> next_bytes;
  if (r.read_u8() != 0) {
    // Only the overlap and drain phases hold an incoming generation.
    if (!reshard.in_cutover() || reshard.phase() == ReshardPhase::kAnnounce) {
      throw std::out_of_range(
          "NodeShards: next-generation state outside a cutover");
    }
    next_bytes = r.read_bytes();
  }
  std::map<shard::ShardId, std::uint64_t> quota;
  for (std::uint16_t left = r.read_u16(); left > 0; --left) {
    const shard::ShardId shard = r.read_u16();
    quota[shard] = r.read_u64();
  }
  reshard_ = std::move(reshard);
  // The coordinator is authoritative for the effective layout: a node that
  // completed (or is mid-way through) a reshard has moved past its
  // construction-time ShardConfig, so rebuild the validator containers to
  // match before restoring their pipeline state into them.
  if (!(current_.map() == reshard_.current_map())) {
    current_ =
        make_validator(reshard_.current_map(), reshard_.current_config());
    install_hooks(current_, /*next=*/false);
  }
  next_.reset();
  if (reshard_.in_cutover() && reshard_.phase() != ReshardPhase::kAnnounce) {
    create_next();
  }
  current_.restore_state(current_bytes);
  if (next_bytes.has_value()) next_->restore_state(*next_bytes);
  quota_ = std::move(quota);
}

}  // namespace waku::rln

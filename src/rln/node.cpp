#include "rln/node.hpp"

#include <algorithm>
#include <cstdio>
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

/// The exported ValidatorStats fields, in exposition order: the
/// waku_pipeline_verdicts_total reason series, the per-shard families, and
/// the keys of metrics_json()'s deployment-wide "pipeline" section.
struct PipelineField {
  std::uint64_t ValidatorStats::* field;
  const char* json_key;   ///< nullptr: Prometheus only
  const char* reason;     ///< verdict reason label, else...
  const char* prom_name;  ///< ...a per-shard family of its own
  bool gauge;
  const char* help;
};
constexpr PipelineField kPipelineFields[] = {
    {&ValidatorStats::accepted, "accepted", "accept", nullptr, false, nullptr},
    {&ValidatorStats::epoch_gap, "epoch_gap", "epoch_gap", nullptr, false,
     nullptr},
    {&ValidatorStats::duplicates, "duplicates", "duplicate", nullptr, false,
     nullptr},
    {&ValidatorStats::no_proof, "no_proof", "no_proof", nullptr, false,
     nullptr},
    {&ValidatorStats::bad_proof, "bad_proof", "bad_proof", nullptr, false,
     nullptr},
    {&ValidatorStats::stale_root, "stale_root", "stale_root", nullptr, false,
     nullptr},
    {&ValidatorStats::spam_detected, "spam_detected", "spam", nullptr, false,
     nullptr},
    {&ValidatorStats::batches, "batches", nullptr,
     "waku_pipeline_batches_total", false, "validate_batch windows run"},
    {&ValidatorStats::batch_aggregated, "batch_aggregated", nullptr,
     "waku_pipeline_batch_aggregated_total", false,
     "Windows settled by one RLC-aggregated Groth16 check"},
    {&ValidatorStats::batch_fallbacks, "batch_fallbacks", nullptr,
     "waku_pipeline_batch_fallbacks_total", false,
     "Windows that isolated per proof"},
    {&ValidatorStats::miller_loops, "miller_loops", nullptr,
     "waku_pipeline_miller_loops_total", false,
     "Miller loops the Groth16 stage priced"},
    {&ValidatorStats::final_exps, "final_exps", nullptr,
     "waku_pipeline_final_exps_total", false,
     "Final exponentiations the Groth16 stage priced"},
    {&ValidatorStats::precheck_duplicates, "precheck_duplicates", nullptr,
     "waku_pipeline_precheck_duplicates_total", false,
     "Gossip echoes dropped before the verifier"},
    {&ValidatorStats::log_entries, "log_entries", nullptr,
     "waku_nullifier_log_entries", true, "Live (epoch, nullifier) records"},
    {&ValidatorStats::log_buckets, nullptr, nullptr,
     "waku_nullifier_log_buckets", true, "Live epoch buckets"},
    {&ValidatorStats::log_conflicts, "log_conflicts", nullptr,
     "waku_nullifier_log_conflicts_total", false, "Double-signals observed"},
    {&ValidatorStats::log_min_epoch, nullptr, nullptr,
     "waku_nullifier_log_min_epoch", true, "GC watermark"},
};

/// The pipeline stages with a latency histogram, in registration and
/// exposition order.
struct StageRef {
  const char* name;
  obs::Histogram* PipelineMetrics::* member;
};
constexpr StageRef kStages[] = {
    {"epoch_gate", &PipelineMetrics::epoch_gate},
    {"root_check", &PipelineMetrics::root_check},
    {"nullifier_precheck", &PipelineMetrics::nullifier_precheck},
    {"groth16_batch", &PipelineMetrics::groth16_batch},
    {"groth16_fallback", &PipelineMetrics::groth16_fallback},
    {"double_signal", &PipelineMetrics::double_signal},
};

void write_sample(obs::PrometheusWriter& w, const char* name, bool gauge,
                  const std::string& labels, std::uint64_t value) {
  if (gauge) {
    w.gauge(name, labels, static_cast<double>(value));
  } else {
    w.counter(name, labels, value);
  }
}

/// One unlabelled node-level metric: the single list metrics_text() and
/// telemetry_section_json() render.
struct ScalarMetric {
  const char* section;    ///< metrics_json() object
  const char* json_key;   ///< nullptr: Prometheus only
  const char* prom_name;  ///< nullptr: JSON only
  bool gauge;             ///< Prometheus type (else counter)
  const char* help;
  std::uint64_t value;
};

std::vector<ScalarMetric> scalar_metrics(const NodeTelemetrySnapshot& t) {
  // Row order is exposition order within each section.
  return {
      {"node", "published", "waku_node_published_total", false,
       "Messages this node published", t.node.published},
      {"node", "publish_rate_limited", "waku_node_publish_rate_limited_total",
       false, "Honest publishes refused by the 1-per-epoch-per-shard quota",
       t.node.publish_rate_limited},
      {"node", "publish_wrong_shard", "waku_node_publish_wrong_shard_total",
       false, "Publishes refused: topic maps to an unhosted shard",
       t.node.publish_wrong_shard},
      {"node", "delivered", "waku_node_delivered_total", false,
       "Validated messages delivered locally", t.node.delivered},
      {"node", "slash_commits", "waku_node_slash_commits_total", false,
       "Slash commitments submitted", t.node.slash_commits},
      {"node", "slash_reveals", "waku_node_slash_reveals_total", false,
       "Slash reveals submitted", t.node.slash_reveals},
      {"node", "slash_rewards", "waku_node_slash_rewards_total", false,
       "MemberSlashed events paying us", t.node.slash_rewards},
      {"node", "slashes_expired", "waku_node_slashes_expired_total", false,
       "Pending slashes dropped by the expiry window", t.node.slashes_expired},

      {"router", "delivered", "waku_router_delivered_total", false,
       "Unique valid messages delivered", t.router.delivered},
      {"router", "duplicates", "waku_router_duplicates_total", false,
       "Already-seen publishes received", t.router.duplicates},
      {"router", "rejected", "waku_router_rejected_total", false,
       "Validation rejects", t.router.rejected},
      {"router", "ignored", "waku_router_ignored_total", false,
       "Validation ignores", t.router.ignored},
      {"router", "forwarded", "waku_router_forwarded_total", false,
       "Publishes relayed onward", t.router.forwarded},
      {"router", "validation_windows_flushed",
       "waku_router_validation_windows_flushed_total", false,
       "Batched-validation windows handed to a validator",
       t.router.validation_windows_flushed},
      {"router", "pending_validation", "waku_router_pending_validation", true,
       "Messages buffered awaiting batched validation", t.pending_validation},
      {"router", nullptr, "waku_score_graylisted", true,
       "Peers currently below the graylist threshold", t.graylisted},

      {"executor", "submitted", "waku_executor_submitted_total", false,
       "Windows accepted (queued or inline)", t.executor.submitted},
      {"executor", "executed", "waku_executor_executed_total", false,
       "Windows completed", t.executor.executed},
      {"executor", "rejected", "waku_executor_rejected_total", false,
       "Windows refused by backpressure", t.executor.rejected},
      {"executor", "blocked", "waku_executor_blocked_total", false,
       "Submits that waited on a full queue", t.executor.blocked},
      {"executor", "workers", "waku_executor_workers", true,
       "Worker pool size (0 = deterministic/inline)", t.executor.workers},

      {"trace", "sampled", "waku_trace_sampled_total", false,
       "Lifecycle spans opened", t.trace.sampled},
      {"trace", "finished", "waku_trace_finished_total", false,
       "Spans closed normally", t.trace.finished},
      {"trace", "evicted", "waku_trace_evicted_total", false,
       "Completed-ring evictions", t.trace.evicted},
      {"trace", "truncated", "waku_trace_truncated_total", false,
       "Open spans force-closed (cap hit)", t.trace.truncated},
      {"trace", "open", "waku_trace_open", true, "Spans currently open",
       t.trace_open},

      // Operator loop / flight recorder / self-monitor anomalies.
      {"operator", "decisions", "waku_operator_decisions_total", false,
       "Autonomous operator begin/advance decisions",
       t.operator_loop.decisions},
      {"operator", "last_action_epoch", nullptr, false, nullptr,
       t.operator_loop.last_action_epoch},
      {"operator", "consecutive_recommend", nullptr, false, nullptr,
       t.operator_loop.consecutive_recommend},
      {"operator", "flight_recorded", "waku_flight_events_total", false,
       "Lifecycle events recorded to the flight ring", t.flight_recorded},
      {"operator", "flight_evicted", "waku_flight_evicted_total", false,
       "Flight events dropped off the bounded ring", t.flight_evicted},
      {"operator", "anomalies_fired", "waku_anomaly_fired_total", false,
       "Self-monitor anomaly rule fire transitions", t.anomalies_fired},
  };
}

/// The per-shard counter families after the pipeline ones, in exposition
/// order: nullifier-log stripe contention (one series per stripe) and the
/// pipeline's root-window mirror.
struct ShardCounterFamily {
  const char* prom_name;
  const char* help;
  std::uint64_t NullifierLog::StripeContention::* stripe;  ///< else...
  std::uint64_t RootCacheStats::* root_cache;  ///< ...per shard
};
constexpr ShardCounterFamily kShardCounterFamilies[] = {
    {"waku_nullifier_log_stripe_acquisitions_total",
     "Hot-path lock acquisitions per stripe",
     &NullifierLog::StripeContention::acquisitions, nullptr},
    {"waku_nullifier_log_stripe_contended_total",
     "Hot-path acquisitions that found the stripe lock held",
     &NullifierLog::StripeContention::contended, nullptr},
    {"waku_root_cache_hits_total",
     "Root checks answered from the shard-local window copy", nullptr,
     &RootCacheStats::hits},
    {"waku_root_cache_misses_total",
     "Root checks that missed the rolling window", nullptr,
     &RootCacheStats::misses},
    {"waku_root_cache_refreshes_total",
     "Window copies rebuilt after membership events", nullptr,
     &RootCacheStats::refreshes},
};

/// The per-lane executor families, in exposition order: two histograms
/// and the queue-depth high watermark.
struct LaneFamily {
  const char* prom_name;
  const char* help;
  obs::HistogramSnapshot LaneObsSnapshot::* histogram;  ///< nullptr: depth
};
constexpr LaneFamily kLaneFamilies[] = {
    {"waku_executor_queue_wait_seconds",
     "Window time from enqueue to pop, per lane",
     &LaneObsSnapshot::queue_wait},
    {"waku_executor_service_seconds", "Window execution time, per lane",
     &LaneObsSnapshot::service},
    {"waku_executor_lane_depth_high_watermark",
     "Deepest the lane's queue has ever been", nullptr},
};

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
      tracer_(config.obs.trace),
      recorder_(config.obs.recorder) {
  group_.set_own_identity(identity_);
  // Before the first hook install: every validator container (this one
  // and every reshard/restore rebuild) is wired through
  // install_validator_hooks, which needs the clock resolved.
  setup_observability();
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
  // Observed shares exist only in transit — journal them (under the
  // owning shard's WAL tag) the moment any shard's pipeline records one,
  // so a crash cannot blind us to double-signals on any shard. During a
  // cutover the incoming generation's shard ids collide with the outgoing
  // ones, so its mirrors ride a distinct tag.
  // Every container build (initial, reshard next-generation, restore
  // rebuild) funnels through here, so the configured worker-pool shape
  // follows the validator across generations.
  validator.set_parallelism(config_.parallel);
  validator.set_executor_clock(obs_clock_);
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
    // Stage-latency sinks, shared across generations of the same shard
    // id (the histogram bundle is address-stable), so a cutover extends
    // a shard's series instead of forking it.
    pipeline.set_telemetry(
        obs_clock_, obs_clock_ != nullptr ? &metrics_for_shard(s) : nullptr);
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
        const bool tracing =
            obs_clock_ != nullptr && tracer_.config().sample_every != 0;
        if (tracing) {
          for (std::size_t i = 0; i < messages.size(); ++i) {
            // traced() first: unsampled messages pay only the key hash,
            // never the detail-string build or the clock read.
            if (!traced(messages[i])) continue;
            // The hop-provenance edge (`from=`) is what lets the
            // cross-node PropagationAssembler rebuild the hop graph.
            trace_event(messages[i], "rx",
                        "node=" + std::to_string(node_id()) +
                            ",shard=" + std::to_string(shard) +
                            ",gen=" + std::to_string(generation) +
                            ",from=" + std::to_string(froms[i]));
          }
        }
        // Route through the container's executor: deterministic mode is
        // the old inline call verbatim; parallel mode runs the window on
        // the shard's worker lane (this callback blocks for the verdicts,
        // so the node's WAL/slash hooks never race the relay).
        const std::vector<ValidationOutcome> outcomes =
            validator->validate_batch(shard, messages, received_at);
        if (tracing) {
          for (std::size_t i = 0; i < outcomes.size(); ++i) {
            if (!traced(messages[i])) continue;
            const char* reason = verdict_name(outcomes[i].verdict);
            trace_event(messages[i], "verdict", reason);
            if (outcomes[i].verdict != Verdict::kAccept) {
              trace_finish(messages[i], reason);
            }
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
    if (traced(msg)) {
      trace_event(msg, "deliver", "node=" + std::to_string(node_id()));
      trace_finish(msg, "deliver");
    }
    if (config_.enable_store) {
      store_.archive(msg, network_.sim().now());
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

  // Hop-direction hook: the router is the only layer that sees which
  // peer an outbound publish frame targets ("fwd") or which peer a
  // duplicate receipt came from ("dup"). Both fire after the local span
  // closed (gossipsub delivers locally before relaying; a duplicate by
  // definition follows the first rx), so they annotate the
  // open-or-completed trace rather than opening a junk second span.
  if (obs_clock_ != nullptr && tracer_.config().sample_every != 0) {
    relay_.router().set_trace_hook(
        [this](const char* kind, net::NodeId peer,
               const gossipsub::PubSubMessage& m) {
          WakuMessage msg;
          try {
            msg = WakuMessage::deserialize(m.data);
          } catch (...) {
            return;  // non-Waku frame: never traced
          }
          const obs::TraceKey key = waku::trace_key(msg);
          if (!tracer_.sampled(key)) return;
          const bool fwd = kind[0] == 'f';
          tracer_.annotate(key, obs_clock_->now_ns(), kind,
                           "node=" + std::to_string(node_id()) +
                               (fwd ? ",to=" : ",from=") +
                               std::to_string(peer));
        });
  }

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
          record_flight(current_epoch(), "reshard", "linger_end");
          end_reshard_linger();
        }
        for (const shard::ShardId s : shards_.subscribed()) {
          // The p95 whole-window validation latency joins the load
          // sample: a shard can be latency-bound (deep logs, fallback
          // storms) long before its message rate looks alarming.
          load_tracker_.record(s, shards_.pipeline(s).stats().accepted,
                               shards_.pipeline(s).log().entry_count(), now,
                               shard_p95_validate_ms(s));
        }
        slashing_.expire(current_epoch());
        if (obs_clock_ != nullptr) {
          const std::uint64_t epoch = current_epoch();
          // Backpressure rejects are a lifecycle event, not just a
          // counter: the per-epoch delta joins the flight ring so a
          // postmortem shows WHEN the executor started shedding.
          const std::uint64_t rejected = shards_.executor_stats().rejected;
          if (rejected > executor_rejected_seen_) {
            record_flight(epoch, "backpressure",
                          "rejected_delta=" +
                              std::to_string(rejected -
                                             executor_rejected_seen_));
          }
          executor_rejected_seen_ = rejected;
          evaluate_self_anomalies(epoch);
        }
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
  if (traced(msg)) {
    // Span origin: every other node opens the same trace key at "rx".
    trace_event(msg, "publish",
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
  record_flight(current_epoch(), "reshard",
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
  record_flight(current_epoch(), "reshard",
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
  in.p95_budget_breach = anomaly_.firing(obs::AnomalyRule::kP95BudgetBreach);
  in.propagation_latency_breach =
      anomaly_.firing(obs::AnomalyRule::kPropagationLatency);
  in.current = reshard_.current_config();
  std::optional<OperatorDecision> decision =
      operator_.decide(config_.operator_loop, in);
  if (!decision.has_value()) return;
  // Journal and bookkeeping first, then the flight event, then the act —
  // the fail-closed order the replay relies on.
  operator_.commit(*decision, journal_);
  if (decision->action == OperatorDecision::Action::kAdvance) {
    record_flight(in.epoch, "operator",
                  std::string("advance from=") +
                      shard::reshard_phase_name(reshard_.phase()));
    advance_reshard();
    return;
  }
  record_flight(in.epoch, "operator",
                "begin target=" + std::to_string(decision->target) +
                    " reason=" + in.recommendation.reason);
  begin_reshard(decision->target, std::move(decision->subscribe));
}

void WakuRlnRelayNode::trigger_slash(const Fr& spammer_sk) {
  const std::uint64_t epoch = current_epoch();
  if (const std::optional<std::uint64_t> index =
          slashing_.commit(spammer_sk, group_, epoch)) {
    record_flight(epoch, "slash", "commit index=" + std::to_string(*index));
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
      record_flight(current_epoch(), "slash",
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

void WakuRlnRelayNode::setup_observability() {
  if (!config_.obs.enabled) return;
  if (config_.obs.clock != nullptr) {
    obs_clock_ = config_.obs.clock;
    return;
  }
  // Default: the node's own virtual time (ms scaled to ns). Under the
  // deterministic simulator every execution makes identical clock
  // observations, so telemetry-on runs stay bit-for-bit reproducible;
  // benches/deployments inject obs::steady_clock() for wall time.
  sim_clock_ = std::make_unique<obs::FnClock>(
      [this] { return network_.local_time(node_id()) * 1'000'000ULL; });
  obs_clock_ = sim_clock_.get();
}

PipelineMetrics& WakuRlnRelayNode::metrics_for_shard(shard::ShardId shard) {
  const auto it = pipeline_metrics_.find(shard);
  if (it != pipeline_metrics_.end()) return it->second;
  const std::string shard_label = "shard=\"" + std::to_string(shard) + "\"";
  PipelineMetrics& m = pipeline_metrics_[shard];
  for (const StageRef& stage : kStages) {
    m.*(stage.member) = &telemetry_.histogram(
        "waku_pipeline_stage_seconds",
        std::string("stage=\"") + stage.name + "\"," + shard_label,
        "Per-stage validation latency");
  }
  m.window = &telemetry_.histogram("waku_pipeline_validate_seconds",
                                   shard_label,
                                   "Whole validate_batch window latency");
  return m;
}

bool WakuRlnRelayNode::traced(const WakuMessage& msg) const {
  return obs_clock_ != nullptr && tracer_.config().sample_every != 0 &&
         tracer_.sampled(waku::trace_key(msg));
}

void WakuRlnRelayNode::trace_event(const WakuMessage& msg, const char* stage,
                                   std::string detail) {
  if (obs_clock_ == nullptr || tracer_.config().sample_every == 0) return;
  const obs::TraceKey key = waku::trace_key(msg);
  if (!tracer_.sampled(key)) return;  // no clock read for the N-1 in N
  tracer_.record(key, obs_clock_->now_ns(), stage, std::move(detail));
}

void WakuRlnRelayNode::trace_finish(const WakuMessage& msg,
                                    std::string outcome) {
  if (obs_clock_ == nullptr || tracer_.config().sample_every == 0) return;
  const obs::TraceKey key = waku::trace_key(msg);
  if (!tracer_.sampled(key)) return;
  tracer_.finish(key, obs_clock_->now_ns(), std::move(outcome));
}

std::vector<obs::Trace> WakuRlnRelayNode::trace_dump() const {
  std::vector<obs::Trace> out = tracer_.completed();
  const std::vector<obs::Trace> slow = tracer_.slowest();
  out.insert(out.end(), slow.begin(), slow.end());
  return out;
}

double WakuRlnRelayNode::shard_p95_validate_ms(shard::ShardId shard) const {
  const auto it = pipeline_metrics_.find(shard);
  if (it == pipeline_metrics_.end() || it->second.window == nullptr) {
    return 0.0;
  }
  return static_cast<double>(it->second.window->snapshot().p95) / 1e6;
}

NodeTelemetrySnapshot WakuRlnRelayNode::telemetry_snapshot() const {
  NodeTelemetrySnapshot t;
  t.router = relay_.stats();
  t.node = stats_;
  t.pipeline = shards_.stats();
  t.executor = shards_.executor_stats();
  for (const shard::ShardId s : shards_.subscribed()) {
    t.per_shard.emplace_back(s, shards_.pipeline(s).stats());
  }
  t.graylisted = relay_.router().scores().graylist_count();
  t.pending_validation = relay_.router().pending_validation_total();
  t.trace = tracer_.stats();
  t.trace_open = tracer_.open_count();
  t.operator_loop = operator_.bookkeeping();
  t.flight_recorded = recorder_.recorded();
  t.flight_evicted = recorder_.evicted();
  t.anomalies_fired = anomaly_.fired_total();
  return t;
}

NodeTelemetrySnapshot& NodeTelemetrySnapshot::operator+=(
    const NodeTelemetrySnapshot& o) {
  router.delivered += o.router.delivered;
  router.duplicates += o.router.duplicates;
  router.rejected += o.router.rejected;
  router.ignored += o.router.ignored;
  router.forwarded += o.router.forwarded;
  router.ihave_sent += o.router.ihave_sent;
  router.iwant_served += o.router.iwant_served;
  router.validation_windows_flushed += o.router.validation_windows_flushed;
  node.published += o.node.published;
  node.publish_rate_limited += o.node.publish_rate_limited;
  node.publish_wrong_shard += o.node.publish_wrong_shard;
  node.delivered += o.node.delivered;
  node.slash_commits += o.node.slash_commits;
  node.slash_reveals += o.node.slash_reveals;
  node.slash_rewards += o.node.slash_rewards;
  node.slashes_expired += o.node.slashes_expired;
  pipeline += o.pipeline;
  executor.submitted += o.executor.submitted;
  executor.executed += o.executor.executed;
  executor.rejected += o.executor.rejected;
  executor.blocked += o.executor.blocked;
  executor.workers += o.executor.workers;
  for (const auto& [s, stats] : o.per_shard) {
    auto it = std::lower_bound(
        per_shard.begin(), per_shard.end(), s,
        [](const auto& entry, shard::ShardId id) { return entry.first < id; });
    if (it == per_shard.end() || it->first != s) {
      it = per_shard.insert(it, {s, ValidatorStats{}});
    }
    it->second += stats;
  }
  graylisted += o.graylisted;
  pending_validation += o.pending_validation;
  trace.sampled += o.trace.sampled;
  trace.finished += o.trace.finished;
  trace.evicted += o.trace.evicted;
  trace.truncated += o.trace.truncated;
  trace_open += o.trace_open;
  operator_loop.decisions += o.operator_loop.decisions;
  operator_loop.consecutive_recommend += o.operator_loop.consecutive_recommend;
  operator_loop.last_action_epoch = std::max(
      operator_loop.last_action_epoch, o.operator_loop.last_action_epoch);
  operator_loop.phase_entered_epoch = std::max(
      operator_loop.phase_entered_epoch, o.operator_loop.phase_entered_epoch);
  flight_recorded += o.flight_recorded;
  flight_evicted += o.flight_evicted;
  anomalies_fired += o.anomalies_fired;
  return *this;
}

std::string telemetry_section_json(const NodeTelemetrySnapshot& t,
                                   std::string_view section) {
  std::string out = "{";
  const auto field = [&out](const char* key, std::uint64_t v) {
    if (out.size() > 1) out += ",";
    out.append("\"").append(key).append("\":").append(std::to_string(v));
  };
  if (section == "pipeline") {
    for (const PipelineField& f : kPipelineFields) {
      if (f.json_key != nullptr) field(f.json_key, t.pipeline.*(f.field));
    }
  } else {
    for (const ScalarMetric& m : scalar_metrics(t)) {
      if (m.json_key != nullptr && section == m.section) {
        field(m.json_key, m.value);
      }
    }
  }
  return out + "}";
}

void WakuRlnRelayNode::record_flight(std::uint64_t epoch, const char* kind,
                                     std::string detail) {
  // The recorder follows the obs master switch: disabled telemetry means
  // no clock, and a timestamp-less black box would break the
  // deterministic byte-identity the recorder promises.
  if (obs_clock_ == nullptr) return;
  recorder_.record(obs_clock_->now_ns(), epoch, kind, std::move(detail));
}

obs::NodeHealthSample WakuRlnRelayNode::health_sample() const {
  const NodeTelemetrySnapshot t = telemetry_snapshot();
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
  }
  if (!shards_.subscribed().empty()) {
    s.quota_saturation = static_cast<double>(saturated) /
                         static_cast<double>(shards_.subscribed().size());
  }
  for (const shard::ShardId sh : shards_.subscribed()) {
    s.shards.push_back(obs::ShardHealth{sh, shard_p95_validate_ms(sh)});
  }
  return s;
}

void WakuRlnRelayNode::evaluate_self_anomalies(std::uint64_t epoch) {
  self_fleet_.ingest(health_sample());
  const obs::FleetEpochSeries* row = self_fleet_.close_epoch(epoch);
  if (row == nullptr) return;
  for (const obs::AnomalyVerdict& v : anomaly_.evaluate(*row)) {
    if (!v.changed) continue;
    record_flight(epoch, "anomaly",
                  std::string(obs::anomaly_rule_name(v.rule)) +
                      (v.firing ? " firing" : " cleared") +
                      " observed=" + obs::format_double(v.observed));
    if (v.firing) {
      dump_postmortem(std::string("anomaly:") +
                      obs::anomaly_rule_name(v.rule));
    }
  }
}

void WakuRlnRelayNode::dump_postmortem(const std::string& reason) {
  last_postmortem_ = recorder_.postmortem_json(reason);
  if (config_.persist_dir.empty()) return;
  const std::string path = config_.persist_dir + "/postmortem.json";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;  // best-effort: the in-memory copy survives
  std::fwrite(last_postmortem_.data(), 1, last_postmortem_.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
}

std::string WakuRlnRelayNode::metrics_text() const {
  const NodeTelemetrySnapshot t = telemetry_snapshot();
  obs::PrometheusWriter w;
  const auto shard_label = [](shard::ShardId s) {
    return "shard=\"" + std::to_string(s) + "\"";
  };
  const std::vector<ScalarMetric> scalars = scalar_metrics(t);
  const auto render = [&](std::string_view section) {
    for (const ScalarMetric& m : scalars) {
      if (m.prom_name == nullptr || section != m.section) continue;
      w.help_type(m.prom_name, m.gauge ? "gauge" : "counter", m.help);
      write_sample(w, m.prom_name, m.gauge, "", m.value);
    }
  };
  render("node");
  render("router");

  // Per-shard verdict-reason counters (one family, labelled series), then
  // one family per remaining pipeline field.
  w.help_type("waku_pipeline_verdicts_total", "counter",
              "Validation verdicts by reason, per rate-limit domain");
  for (const auto& [s, stats] : t.per_shard) {
    for (const PipelineField& f : kPipelineFields) {
      if (f.reason == nullptr) continue;
      w.counter("waku_pipeline_verdicts_total",
                shard_label(s) + ",reason=\"" + f.reason + "\"",
                stats.*(f.field));
    }
  }
  for (const PipelineField& f : kPipelineFields) {
    if (f.prom_name == nullptr) continue;
    w.help_type(f.prom_name, f.gauge ? "gauge" : "counter", f.help);
    for (const auto& [s, stats] : t.per_shard) {
      write_sample(w, f.prom_name, f.gauge, shard_label(s), stats.*(f.field));
    }
  }

  for (const ShardCounterFamily& f : kShardCounterFamilies) {
    w.help_type(f.prom_name, "counter", f.help);
    for (const shard::ShardId s : shards_.subscribed()) {
      if (f.root_cache != nullptr) {
        w.counter(f.prom_name, shard_label(s),
                  shards_.pipeline(s).root_cache_stats().*(f.root_cache));
        continue;
      }
      const auto stripes = shards_.pipeline(s).log().stripe_contention();
      for (std::size_t i = 0; i < stripes.size(); ++i) {
        w.counter(f.prom_name,
                  shard_label(s) + ",stripe=\"" + std::to_string(i) + "\"",
                  stripes[i].*(f.stripe));
      }
    }
  }

  // Executor: pool counters plus per-lane queue-wait/service histograms.
  render("executor");
  const std::vector<LaneObsSnapshot> lanes = shards_.executor_lane_stats();
  for (const LaneFamily& f : kLaneFamilies) {
    w.help_type(f.prom_name, f.histogram != nullptr ? "histogram" : "gauge",
                f.help);
    for (const LaneObsSnapshot& lane : lanes) {
      const std::string label = "lane=\"" + std::to_string(lane.lane) + "\"";
      if (f.histogram != nullptr) {
        w.histogram(f.prom_name, label, lane.*(f.histogram), 1e-9);
      } else {
        w.gauge(f.prom_name, label,
                static_cast<double>(lane.depth_high_watermark));
      }
    }
  }

  // Per-stage latency quantiles (the registry's histogram families carry
  // the full buckets; these gauges answer p50/p95/p99 directly).
  w.help_type("waku_pipeline_stage_quantile_seconds", "gauge",
              "Per-stage latency quantiles (<=2x log2-bucket overestimate)");
  for (const auto& [s, m] : pipeline_metrics_) {
    for (const StageRef& stage : kStages) {
      const obs::Histogram* h = m.*(stage.member);
      if (h == nullptr) continue;
      const obs::HistogramSnapshot snap = h->snapshot();
      const std::string base = std::string("stage=\"") + stage.name + "\"," +
                               shard_label(s) + ",quantile=\"";
      w.gauge("waku_pipeline_stage_quantile_seconds", base + "0.5\"",
              static_cast<double>(snap.p50) * 1e-9);
      w.gauge("waku_pipeline_stage_quantile_seconds", base + "0.95\"",
              static_cast<double>(snap.p95) * 1e-9);
      w.gauge("waku_pipeline_stage_quantile_seconds", base + "0.99\"",
              static_cast<double>(snap.p99) * 1e-9);
    }
  }
  w.help_type("waku_shard_p95_validate_seconds", "gauge",
              "p95 whole-window validation latency per shard");
  for (const auto& [s, m] : pipeline_metrics_) {
    w.gauge("waku_shard_p95_validate_seconds", shard_label(s),
            shard_p95_validate_ms(s) * 1e-3);
  }

  render("trace");
  render("operator");

  // The registry renders itself (stage/window latency histograms); the
  // single-node fleet view appends its waku_fleet_* families once the
  // first epoch closed.
  return w.text() + self_fleet_.to_prometheus() + telemetry_.to_prometheus();
}

std::string WakuRlnRelayNode::metrics_json() const {
  const NodeTelemetrySnapshot t = telemetry_snapshot();
  std::string out = "{";
  std::string sep;  // between the fields of the object being written
  const auto begin = [&](const std::string& opener) {
    out += opener;
    sep = "";
  };
  const auto u64 = [&](const char* key, std::uint64_t v) {
    out += sep + "\"" + key + "\":" + std::to_string(v);
    sep = ",";
  };
  const auto section = [&](const char* name) {
    out.append("\"").append(name).append("\":");
    out += telemetry_section_json(t, name) + ",";
  };

  section("node");
  section("router");
  section("pipeline");
  out += "\"per_shard\":[";
  for (std::size_t i = 0; i < t.per_shard.size(); ++i) {
    const auto& [s, stats] = t.per_shard[i];
    begin(i > 0 ? ",{" : "{");
    u64("shard", s);
    u64("accepted", stats.accepted);
    u64("spam_detected", stats.spam_detected);
    u64("stale_root", stats.stale_root);
    u64("log_entries", stats.log_entries);
    char p95[64];
    std::snprintf(p95, sizeof p95, ",\"p95_validate_ms\":%.3f}",
                  shard_p95_validate_ms(s));
    out += p95;
  }
  out += "],";

  section("executor");
  out += "\"executor_lanes\":[";
  const std::vector<LaneObsSnapshot> lanes = shards_.executor_lane_stats();
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    begin(i > 0 ? ",{" : "{");
    u64("lane", lanes[i].lane);
    u64("queue_wait_count", lanes[i].queue_wait.count);
    u64("queue_wait_p95_ns", lanes[i].queue_wait.p95);
    u64("service_count", lanes[i].service.count);
    u64("service_p95_ns", lanes[i].service.p95);
    u64("depth_high_watermark", lanes[i].depth_high_watermark);
    out += "}";
  }
  out += "],";

  section("trace");
  section("operator");
  out += "\"fleet\":" + self_fleet_.timeline_json() + ",";
  out += "\"registry\":" + telemetry_.to_json() + "}";
  return out;
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
      record_flight(d.epoch, "operator",
                    std::string(d.action == OperatorDecision::Action::kBegin
                                    ? "begin"
                                    : "advance") +
                        " target=" + std::to_string(d.target) +
                        " (wal replay)");
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
    record_flight(current_epoch(), "restart",
                  "wal_records=" + std::to_string(wal_records) +
                      " cursor=" + std::to_string(event_cursor_));
    dump_postmortem("crash-restart");
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

#include "rln/validation_pipeline.hpp"

#include "common/expect.hpp"
#include "common/serde.hpp"

namespace waku::rln {

const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kAccept:
      return "accept";
    case Verdict::kIgnoreEpochGap:
      return "ignore-epoch-gap";
    case Verdict::kIgnoreDuplicate:
      return "ignore-duplicate";
    case Verdict::kRejectNoProof:
      return "reject-no-proof";
    case Verdict::kRejectBadProof:
      return "reject-bad-proof";
    case Verdict::kRejectStaleRoot:
      return "reject-stale-root";
    case Verdict::kRejectSpam:
      return "reject-spam";
  }
  return "unknown";
}

namespace {

/// Per-message working state threaded through the stages.
struct Slot {
  std::optional<RateLimitProof> bundle;
  Fr x;                     ///< recomputed message hash H(m)
  std::uint64_t proof_fp = 0;
  bool settled = false;     ///< verdict already written by a cheap stage
  bool verified = false;    ///< survived stage 4
  NullifierLog* log = nullptr;  ///< stage-3/5 log (selector may redirect)
};

/// FNV-1a over the 128 proof bytes. Distinguishes a byte-identical echo
/// (safe to drop without re-verifying) from a replay with tampered proof
/// bytes (must reach the verifier and earn its reject penalty). Not
/// collision-resistant — a collision only downgrades a reject to an
/// ignore for one echo, never accepts anything.
std::uint64_t proof_fingerprint(const zksnark::Proof& proof) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const std::array<std::uint8_t, 32>& part) {
    for (const std::uint8_t b : part) {
      h = (h ^ b) * 0x100000001b3ULL;
    }
  };
  mix(proof.a);
  mix(proof.b);
  mix(proof.c);
  mix(proof.binding);
  return h;
}

/// One clock-read pair around a stage; both ends are skipped entirely
/// when the pipeline has no clock wired (telemetry off). The histogram
/// may independently be null (metrics struct without that stage).
class StageTimer {
 public:
  StageTimer(const obs::Clock* clock, obs::Histogram* sink)
      : clock_(clock), sink_(sink) {
    if (clock_ != nullptr && sink_ != nullptr) {
      start_ns_ = clock_->now_ns();
    }
  }
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;
  ~StageTimer() { stop(); }

  /// Redirects the pending sample (stage 4 decides batch-vs-fallback
  /// only after the verifier returns).
  void set_sink(obs::Histogram* sink) { sink_ = sink; }

  void stop() {
    if (clock_ != nullptr && sink_ != nullptr && !stopped_) {
      sink_->record(clock_->now_ns() - start_ns_);
    }
    stopped_ = true;
  }

 private:
  const obs::Clock* clock_;
  obs::Histogram* sink_;
  std::uint64_t start_ns_ = 0;
  bool stopped_ = false;
};

}  // namespace

ValidationPipeline::ValidationPipeline(const zksnark::VerifyingKey& vk,
                                       const GroupManager& group,
                                       ValidatorConfig config,
                                       std::uint64_t seed)
    : vk_(vk), group_(group), config_(config), rng_(seed) {}

bool ValidationPipeline::root_is_recent(const Fr& root) {
  // Seqlock read shape: sample the version BEFORE copying the window and
  // record the sample, not a re-read. If a membership event lands mid-copy
  // the sample is already stale, so the next check refreshes again —
  // recording a post-copy version instead could pin a torn copy as
  // current. (A pipeline's windows run serially on one executor lane, so
  // this is never reentered.)
  const std::uint64_t version = group_.root_version();
  if (root_version_ != version) {
    roots_.clear();
    for (const Fr& r : group_.recent_roots()) roots_.insert(r);
    root_version_ = version;
    ++root_stats_.refreshes;
  }
  const bool ok = roots_.contains(root);
  ++(ok ? root_stats_.hits : root_stats_.misses);
  return ok;
}

std::vector<ValidationOutcome> ValidationPipeline::validate_batch(
    std::span<const WakuMessage> messages,
    std::span<const std::uint64_t> received_at_ms) {
  WAKU_EXPECTS(received_at_ms.size() == messages.size());
  ++stats_.batches;
  const std::size_t n = messages.size();
  std::vector<ValidationOutcome> out(n);
  std::vector<Slot> slots(n);

  // Per-stage verdicts are independent of the loop structure (each stage
  // reads only its own message's state; the precheck merely peeks), so
  // the stages run as separate passes: one clock-read pair per stage per
  // window instead of per message, and the cheapest-first cost ordering
  // is preserved per pass.
  const PipelineMetrics* m = obs_metrics_;
  StageTimer window_timer(obs_clock_, m ? m->window : nullptr);

  // Stage 1: proof extraction + epoch-gap gate (§III-F item 1), against
  // each message's arrival time.
  {
    StageTimer t(obs_clock_, m ? m->epoch_gate : nullptr);
    for (std::size_t i = 0; i < n; ++i) {
      Slot& slot = slots[i];
      // During a generation cutover the selector routes this message's
      // rate-limit domain to a log shared across both generations'
      // meshes.
      slot.log = &log_;
      if (log_selector_) {
        if (NullifierLog* redirected = log_selector_(messages[i])) {
          slot.log = redirected;
        }
      }
      slot.bundle = extract_proof(messages[i]);
      if (!slot.bundle.has_value()) {
        ++stats_.no_proof;
        out[i] = {Verdict::kRejectNoProof, std::nullopt};
        slot.settled = true;
        continue;
      }
      const std::uint64_t local_epoch =
          config_.epoch.epoch_at(received_at_ms[i]);
      if (epoch_distance(local_epoch, slot.bundle->epoch) >
          config_.max_epoch_gap) {
        ++stats_.epoch_gap;
        out[i] = {Verdict::kIgnoreEpochGap, std::nullopt};
        slot.settled = true;
      }
    }
  }

  // Stage 2: root freshness against the root-window mirror — removed
  // members must not keep proving against trees that still contain them.
  {
    StageTimer t(obs_clock_, m ? m->root_check : nullptr);
    for (std::size_t i = 0; i < n; ++i) {
      Slot& slot = slots[i];
      if (slot.settled) continue;
      if (!root_is_recent(slot.bundle->root)) {
        ++stats_.stale_root;
        out[i] = {Verdict::kRejectStaleRoot, std::nullopt};
        slot.settled = true;
      }
    }
  }

  // Stage 3: hash-bind + nullifier precheck. The share must be bound to
  // this exact message: x = H(m); a mismatch can never verify (x is a
  // public input), so reject before the SNARK. Then a byte-identical
  // gossip echo (same share AND same proof bytes as the entry we already
  // verified) is dropped without re-verifying. A matching share with
  // *different* proof bytes is not short-circuited — it must reach the
  // verifier so a tampered replay still earns its reject penalty. A
  // different recorded share is a double-signal candidate and must also
  // pass the verifier before it becomes slashing material (otherwise
  // garbage shares could frame members).
  {
    StageTimer t(obs_clock_, m ? m->nullifier_precheck : nullptr);
    for (std::size_t i = 0; i < n; ++i) {
      Slot& slot = slots[i];
      if (slot.settled) continue;
      slot.x = message_hash(messages[i]);
      if (slot.x != slot.bundle->share_x) {
        ++stats_.bad_proof;
        out[i] = {Verdict::kRejectBadProof, std::nullopt};
        slot.settled = true;
        continue;
      }
      slot.proof_fp = proof_fingerprint(slot.bundle->proof);
      const std::optional<NullifierLog::Entry> prior =
          slot.log->peek(slot.bundle->epoch, slot.bundle->nullifier);
      if (prior.has_value() && prior->proof_fp == slot.proof_fp &&
          prior->share ==
              sss::Share{slot.bundle->share_x, slot.bundle->share_y}) {
        ++stats_.duplicates;
        ++stats_.precheck_duplicates;
        out[i] = {Verdict::kIgnoreDuplicate, std::nullopt};
        slot.settled = true;
      }
    }
  }

  // Stage 4: batched Groth16 over the survivors.
  std::vector<zksnark::BatchEntry> entries;
  std::vector<std::size_t> entry_slot;
  for (std::size_t i = 0; i < n; ++i) {
    if (slots[i].settled) continue;
    entries.push_back(zksnark::BatchEntry{
        slots[i].bundle->public_inputs(slots[i].x), slots[i].bundle->proof});
    entry_slot.push_back(i);
  }
  if (!entries.empty()) {
    // The sample lands in the batch histogram or the fallback histogram
    // depending on what the verifier actually did with this window.
    StageTimer t(obs_clock_, m ? m->groth16_batch : nullptr);
    const zksnark::BatchVerifyOutcome batch =
        zksnark::verify_batch(vk_, entries, rng_);
    stats_.miller_loops += batch.miller_loops;
    stats_.final_exps += batch.final_exps;
    if (batch.aggregated) {
      ++stats_.batch_aggregated;
    } else {
      ++stats_.batch_fallbacks;
      t.set_sink(m ? m->groth16_fallback : nullptr);
    }
    for (std::size_t k = 0; k < entries.size(); ++k) {
      slots[entry_slot[k]].verified = batch.ok[k];
    }
  }

  // Stage 5: rate limit + double-signal detection, in arrival order so a
  // batch is indistinguishable from the same messages fed one at a time.
  StageTimer stage5_timer(obs_clock_, m ? m->double_signal : nullptr);
  for (std::size_t i = 0; i < n; ++i) {
    Slot& slot = slots[i];
    if (slot.settled) continue;
    const sss::Share share{slot.bundle->share_x, slot.bundle->share_y};
    if (!slot.verified) {
      // Partition invariance: fed one at a time, this message would have
      // been prechecked against a log that already holds the earlier batch
      // entries. A byte-identical recorded entry means it is an echo of an
      // already-proven signal — a duplicate, not a bad proof.
      const std::optional<NullifierLog::Entry> prior =
          slot.log->peek(slot.bundle->epoch, slot.bundle->nullifier);
      if (prior.has_value() && prior->proof_fp == slot.proof_fp &&
          prior->share == share) {
        // Not counted as a precheck duplicate: this one did reach the
        // SNARK stage (its twin hadn't been logged yet at precheck time).
        ++stats_.duplicates;
        out[i] = {Verdict::kIgnoreDuplicate, std::nullopt};
      } else {
        ++stats_.bad_proof;
        out[i] = {Verdict::kRejectBadProof, std::nullopt};
      }
      continue;
    }
    const NullifierLog::Result seen = slot.log->observe(
        slot.bundle->epoch, slot.bundle->nullifier, share, slot.proof_fp);
    switch (seen.outcome) {
      case NullifierLog::Outcome::kNew:
        ++stats_.accepted;
        out[i] = {Verdict::kAccept, std::nullopt};
        if (slot.log != &log_) {
          // Selector-routed: mirror into the own log (it is a subset of
          // the shared domain log, so this observe is always kNew) and
          // let the cutover hook journal the domain-tagged copy.
          (void)log_.observe(slot.bundle->epoch, slot.bundle->nullifier,
                             share, slot.proof_fp);
          if (cutover_observe_hook_) {
            cutover_observe_hook_(messages[i], slot.bundle->epoch,
                                  slot.bundle->nullifier, share,
                                  slot.proof_fp);
          }
        }
        // Journal the observation before the verdict leaves the pipeline:
        // shares exist only in transit, so a crash would otherwise blind
        // the restarted node to double-signals against this entry.
        if (observe_hook_) {
          observe_hook_(slot.bundle->epoch, slot.bundle->nullifier, share,
                        slot.proof_fp);
        }
        break;
      case NullifierLog::Outcome::kDuplicate:
        ++stats_.duplicates;
        out[i] = {Verdict::kIgnoreDuplicate, std::nullopt};
        break;
      case NullifierLog::Outcome::kConflict: {
        ++stats_.spam_detected;
        // Two distinct shares on the same line reconstruct sk (§II-B);
        // the same-x corner is equivocation without slashing material.
        std::optional<Fr> sk;
        if (seen.sk_recoverable) {
          sk = sss::rln_recover_secret(*seen.previous_share, share);
        }
        out[i] = {Verdict::kRejectSpam, sk};
        break;
      }
    }
  }
  return out;
}

ValidationOutcome ValidationPipeline::validate_one(
    const WakuMessage& message, std::uint64_t local_now_ms) {
  return validate_batch(std::span<const WakuMessage>(&message, 1),
                        std::span<const std::uint64_t>(&local_now_ms, 1))[0];
}

void ValidationPipeline::gc(std::uint64_t local_now_ms) {
  log_.gc(config_.epoch.epoch_at(local_now_ms), config_.max_epoch_gap);
}

ValidatorStats ValidationPipeline::stats() const {
  ValidatorStats s = stats_;
  const NullifierLog::Stats ls = log_.stats();
  s.log_entries = ls.entries;
  s.log_buckets = ls.buckets;
  s.log_conflicts = ls.conflicts;
  s.log_min_epoch = ls.min_epoch;
  return s;
}

void ValidationPipeline::inject_observation(std::uint64_t epoch,
                                            const Fr& nullifier,
                                            const sss::Share& share,
                                            std::uint64_t proof_fp) {
  (void)log_.observe(epoch, nullifier, share, proof_fp);
}

Bytes ValidationPipeline::serialize_state() const {
  ByteWriter w;
  w.write_u8(1);  // version
  w.write_bytes(log_.serialize());
  for (const auto field : std::span(kSummedStats).first(kDurableStats)) {
    w.write_u64(stats_.*field);
  }
  return std::move(w).take();
}

void ValidationPipeline::restore_state(BytesView bytes) {
  // Decoded in full before anything is replaced (the log's restore is
  // all-or-nothing too), so corrupt disk bytes leave the pipeline as it was.
  ByteReader r(bytes);
  if (r.read_u8() != 1) {
    throw std::out_of_range("ValidationPipeline: unknown state version");
  }
  const Bytes log_bytes = r.read_bytes();
  ValidatorStats stats;
  for (const auto field : std::span(kSummedStats).first(kDurableStats)) {
    stats.*field = r.read_u64();
  }
  log_.restore(log_bytes);
  stats_ = stats;
}

}  // namespace waku::rln

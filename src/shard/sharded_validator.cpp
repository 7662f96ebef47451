#include "shard/sharded_validator.hpp"

#include <algorithm>
#include <utility>

#include "common/expect.hpp"
#include "common/serde.hpp"

namespace waku::shard {

ShardedValidator::ShardedValidator(const zksnark::VerifyingKey& vk,
                                   const rln::GroupManager& group,
                                   rln::ValidatorConfig config,
                                   ShardConfig shards, std::uint64_t seed)
    : ShardedValidator(vk, group, config, ShardMap(shards),
                       shards.subscribed_shards(), seed) {}

ShardedValidator::ShardedValidator(const zksnark::VerifyingKey& vk,
                                   const rln::GroupManager& group,
                                   rln::ValidatorConfig config, ShardMap map,
                                   std::vector<ShardId> subscribe,
                                   std::uint64_t seed)
    : map_(std::move(map)),
      config_(config),
      subscribed_(std::move(subscribe)) {
  if (subscribed_.empty()) subscribed_ = map_.all_shards();
  std::sort(subscribed_.begin(), subscribed_.end());
  subscribed_.erase(std::unique(subscribed_.begin(), subscribed_.end()),
                    subscribed_.end());
  WAKU_EXPECTS(!subscribed_.empty());
  for (const ShardId shard : subscribed_) {
    WAKU_EXPECTS(shard < map_.num_shards());
    // Distinct per-shard RLC seed: a sender who learns one shard's weight
    // stream must gain nothing on any other shard.
    pipelines_.try_emplace(
        shard, vk, group, config,
        seed ^ (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(shard) +
                                         1)));
  }
  executor_ =
      std::make_unique<rln::ValidationExecutor>(rln::ParallelismConfig{});
}

void ShardedValidator::set_parallelism(rln::ParallelismConfig parallel) {
  // Destroying the old executor drains its queues and joins its pool, so
  // no window of ours can still be running when the new one starts.
  executor_.reset();
  executor_ = std::make_unique<rln::ValidationExecutor>(parallel);
  executor_->set_clock(executor_clock_);
}

std::vector<rln::ValidationOutcome> ShardedValidator::validate_batch(
    ShardId shard, std::span<const WakuMessage> messages,
    std::span<const std::uint64_t> received_at_ms) {
  return executor_->validate(shard, pipeline(shard), messages,
                             received_at_ms);
}

bool ShardedValidator::submit(ShardId shard,
                              std::span<const WakuMessage> messages,
                              std::span<const std::uint64_t> received_at_ms,
                              rln::ValidationExecutor::Completion done) {
  return executor_->submit(shard, pipeline(shard), messages,
                           {received_at_ms.begin(), received_at_ms.end()},
                           std::move(done));
}

bool ShardedValidator::submit(ShardId shard,
                              std::span<const WakuMessage> messages,
                              std::uint64_t now_ms,
                              rln::ValidationExecutor::Completion done) {
  return executor_->submit(shard, pipeline(shard), messages,
                           std::vector<std::uint64_t>(messages.size(), now_ms),
                           std::move(done));
}

rln::ValidationPipeline& ShardedValidator::pipeline(ShardId shard) {
  const auto it = pipelines_.find(shard);
  WAKU_EXPECTS(it != pipelines_.end());
  return it->second;
}

const rln::ValidationPipeline& ShardedValidator::pipeline(
    ShardId shard) const {
  const auto it = pipelines_.find(shard);
  WAKU_EXPECTS(it != pipelines_.end());
  return it->second;
}

rln::ValidatorStats ShardedValidator::stats() const {
  rln::ValidatorStats total;
  for (const auto& [shard, pipeline] : pipelines_) {
    total += pipeline.stats();
  }
  return total;
}

void ShardedValidator::gc(std::uint64_t local_now_ms) {
  for (auto& [shard, pipeline] : pipelines_) pipeline.gc(local_now_ms);
}

std::vector<ShardWatermark> ShardedValidator::nullifier_watermarks(
    std::span<const ShardId> only) const {
  std::vector<ShardWatermark> out;
  out.reserve(pipelines_.size());
  for (const auto& [shard, pipeline] : pipelines_) {
    if (!only.empty() &&
        std::find(only.begin(), only.end(), shard) == only.end()) {
      continue;
    }
    out.push_back(ShardWatermark{shard, pipeline.log().stats().min_epoch});
  }
  return out;
}

void ShardedValidator::seed_nullifier_watermarks(
    std::span<const ShardWatermark> watermarks) {
  for (const ShardWatermark& wm : watermarks) {
    const auto it = pipelines_.find(wm.shard);
    if (it == pipelines_.end()) continue;  // not subscribed here
    it->second.seed_nullifier_watermark(wm.min_epoch);
  }
}

void ShardedValidator::inject_observation(ShardId shard, std::uint64_t epoch,
                                          const Fr& nullifier,
                                          const sss::Share& share,
                                          std::uint64_t proof_fp) {
  const auto it = pipelines_.find(shard);
  if (it == pipelines_.end()) return;  // resharded away between runs
  it->second.inject_observation(epoch, nullifier, share, proof_fp);
}

Bytes ShardedValidator::serialize_state() const {
  ByteWriter w;
  w.write_u8(1);  // version
  w.write_u16(static_cast<std::uint16_t>(pipelines_.size()));
  for (const auto& [shard, pipeline] : pipelines_) {
    w.write_u16(shard);
    w.write_bytes(pipeline.serialize_state());
  }
  return std::move(w).take();
}

void ShardedValidator::restore_state(BytesView bytes) {
  ByteReader r(bytes);
  if (r.read_u8() != 1) {
    throw std::out_of_range("ShardedValidator: unknown state version");
  }
  // Every shard's entry is read before any pipeline is touched, so a
  // truncated blob leaves all of them as they were.
  std::vector<std::pair<ShardId, Bytes>> states(
      r.bounded_count(r.read_u16(), 2 + 4));  // u16 shard, u32 length
  for (auto& [shard, state] : states) {
    shard = r.read_u16();
    state = r.read_bytes();
  }
  for (const auto& [shard, state] : states) {
    const auto it = pipelines_.find(shard);
    // A shard persisted by a previous configuration but no longer
    // subscribed is dropped — its log belongs to a mesh we are not in.
    if (it == pipelines_.end()) continue;
    it->second.restore_state(state);
  }
}

}  // namespace waku::shard

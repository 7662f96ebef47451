#include "shard/reshard.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/expect.hpp"
#include "common/serde.hpp"

namespace waku::shard {

const char* reshard_phase_name(ReshardPhase phase) {
  switch (phase) {
    case ReshardPhase::kStable:
      return "stable";
    case ReshardPhase::kAnnounce:
      return "announce";
    case ReshardPhase::kOverlap:
      return "overlap";
    case ReshardPhase::kDrain:
      return "drain";
  }
  return "unknown";
}

ReshardPhase reshard_phase_from_byte(std::uint8_t byte) {
  if (byte > static_cast<std::uint8_t>(ReshardPhase::kDrain)) {
    throw std::out_of_range("reshard phase byte " + std::to_string(byte) +
                            " out of range");
  }
  return static_cast<ReshardPhase>(byte);
}

ReshardCoordinator::ReshardCoordinator(const ShardConfig& current)
    : current_(current), current_map_(current) {}

const ShardMap& ReshardCoordinator::next_map() const {
  WAKU_EXPECTS(next_map_.has_value());
  return *next_map_;
}

const ShardConfig& ReshardCoordinator::next_config() const {
  WAKU_EXPECTS(next_.has_value());
  return *next_;
}

bool ReshardCoordinator::begin(std::uint16_t target_num_shards,
                               std::vector<ShardId> subscribe) {
  if (phase_ != ReshardPhase::kStable) return false;
  // Back-to-back reshards must wait the linger out: the domain logs are
  // keyed by the PREVIOUS generation and a second cutover would need its
  // own domain keyed by the current one.
  if (lingering()) return false;
  if (target_num_shards <= current_.num_shards ||
      target_num_shards % current_.num_shards != 0) {
    return false;
  }
  const auto factor =
      static_cast<std::uint16_t>(target_num_shards / current_.num_shards);
  for (const ShardId s : subscribe) {
    if (s >= target_num_shards) return false;
  }

  ShardConfig next;
  next.num_shards = target_num_shards;
  next.generation = current_.generation + 1;
  next.subscribe = std::move(subscribe);
  // The refinement check that makes the shared domain log enforceable:
  // every new home must sit in the family of a subscribed old home, or
  // this node would mesh a new-gen shard whose old-gen counterpart it
  // cannot see.
  const std::vector<ShardId> old_homes = current_.subscribed_shards();
  for (const ShardId s : next.subscribed_shards()) {
    const auto family =
        static_cast<ShardId>(s % current_.num_shards);
    if (std::find(old_homes.begin(), old_homes.end(), family) ==
        old_homes.end()) {
      return false;
    }
  }

  next_ = std::move(next);
  next_map_ = current_map_.split(factor);
  phase_ = ReshardPhase::kAnnounce;
  return true;
}

bool ReshardCoordinator::advance(std::uint64_t linger_until_epoch) {
  switch (phase_) {
    case ReshardPhase::kStable:
      return false;
    case ReshardPhase::kAnnounce:
      // Dual-subscribe begins: the domain logs are keyed by the layout
      // that is about to stop being the only one.
      domain_map_ = current_map_;
      phase_ = ReshardPhase::kOverlap;
      return true;
    case ReshardPhase::kOverlap:
      phase_ = ReshardPhase::kDrain;
      return true;
    case ReshardPhase::kDrain:
      // Drop-old: generation G+1 becomes the node's layout; the domain
      // state lingers until the epoch gate retires the cutover era.
      current_ = std::move(*next_);
      current_map_ = std::move(*next_map_);
      next_.reset();
      next_map_.reset();
      linger_until_epoch_ = linger_until_epoch;
      phase_ = ReshardPhase::kStable;
      return true;
  }
  return false;
}

rln::NullifierLog* ReshardCoordinator::domain_log(
    std::string_view content_topic) {
  if (!domain_map_.has_value()) return nullptr;
  return &domain_logs_[domain_map_->shard_of(content_topic)];
}

std::optional<ShardId> ReshardCoordinator::domain_of(
    std::string_view content_topic) const {
  if (!domain_map_.has_value()) return std::nullopt;
  return domain_map_->shard_of(content_topic);
}

void ReshardCoordinator::seed_domain_log(ShardId shard, BytesView log_bytes) {
  WAKU_EXPECTS(domain_map_.has_value());
  domain_logs_[shard].restore(log_bytes);
}

void ReshardCoordinator::inject_domain_observation(
    ShardId shard, std::uint64_t epoch, const Fr& nullifier,
    const sss::Share& share, std::uint64_t proof_fp) {
  // Records outliving their cutover (post-linger WAL tail) are dead by
  // construction — the epoch gate already refuses their whole era.
  if (!domain_map_.has_value()) return;
  (void)domain_logs_[shard].observe(epoch, nullifier, share, proof_fp);
}

void ReshardCoordinator::gc(std::uint64_t current_epoch, std::uint64_t thr) {
  for (auto& [shard, log] : domain_logs_) log.gc(current_epoch, thr);
}

void ReshardCoordinator::end_linger() {
  domain_map_.reset();
  domain_logs_.clear();
  linger_until_epoch_ = 0;
}

std::size_t ReshardCoordinator::domain_entries() const {
  std::size_t n = 0;
  for (const auto& [shard, log] : domain_logs_) n += log.entry_count();
  return n;
}

namespace {

void write_shard_config(ByteWriter& w, const ShardConfig& config) {
  w.write_u16(config.num_shards);
  w.write_u32(config.generation);
  w.write_u16(static_cast<std::uint16_t>(config.subscribe.size()));
  for (const ShardId s : config.subscribe) w.write_u16(s);
}

ShardConfig read_shard_config(ByteReader& r) {
  // A layout no ShardMap or validator accepts is a decode error here, not
  // a precondition failure once the coordinator has been replaced.
  ShardConfig config;
  config.num_shards = r.read_u16();
  if (config.num_shards == 0) {
    throw std::out_of_range("ReshardCoordinator: config names no shards");
  }
  config.generation = r.read_u32();
  const std::uint16_t n = r.read_u16();
  config.subscribe.reserve(n);
  for (std::uint16_t i = 0; i < n; ++i) {
    const ShardId s = r.read_u16();
    if (s >= config.num_shards) {
      throw std::out_of_range("ReshardCoordinator: subscribed shard " +
                              std::to_string(s) + " out of range");
    }
    config.subscribe.push_back(s);
  }
  return config;
}

}  // namespace

Bytes ReshardCoordinator::serialize() const {
  ByteWriter w;
  w.write_u8(1);  // version
  w.write_u8(static_cast<std::uint8_t>(phase_));
  write_shard_config(w, current_);
  w.write_bytes(current_map_.serialize());
  w.write_u8(next_.has_value() ? 1 : 0);
  if (next_.has_value()) {
    write_shard_config(w, *next_);
    w.write_bytes(next_map_->serialize());
  }
  w.write_u8(domain_map_.has_value() ? 1 : 0);
  if (domain_map_.has_value()) {
    w.write_bytes(domain_map_->serialize());
  }
  w.write_u64(linger_until_epoch_);
  w.write_u16(static_cast<std::uint16_t>(domain_logs_.size()));
  for (const auto& [shard, log] : domain_logs_) {
    w.write_u16(shard);
    w.write_bytes(log.serialize());
  }
  return std::move(w).take();
}

void ReshardCoordinator::restore(BytesView bytes) {
  ByteReader r(bytes);
  if (r.read_u8() != 1) {
    throw std::out_of_range("ReshardCoordinator: unknown version");
  }
  // Parsed into a fresh coordinator, committed once the whole input decoded.
  const ReshardPhase phase = reshard_phase_from_byte(r.read_u8());
  ReshardCoordinator parsed(read_shard_config(r));
  parsed.phase_ = phase;
  parsed.current_map_ = ShardMap::deserialize(r.read_bytes());
  if (r.read_u8() != 0) {
    parsed.next_ = read_shard_config(r);
    parsed.next_map_ = ShardMap::deserialize(r.read_bytes());
  }
  if (r.read_u8() != 0) {
    parsed.domain_map_ = ShardMap::deserialize(r.read_bytes());
  }
  parsed.linger_until_epoch_ = r.read_u64();
  const std::uint16_t logs = r.read_u16();
  for (std::uint16_t i = 0; i < logs; ++i) {
    const ShardId shard = r.read_u16();
    const Bytes log_bytes = r.read_bytes();
    parsed.domain_logs_[shard].restore(log_bytes);
  }
  *this = std::move(parsed);
}

// -- Load-driven rebalancing --------------------------------------------------

void ShardLoadTracker::record(ShardId shard, std::uint64_t accepted_total,
                              std::size_t log_entries, std::uint64_t now_ms,
                              double p95_validate_ms) {
  PerShard& state = shards_[shard];
  state.log_entries = log_entries;
  state.p95_validate_ms = p95_validate_ms;
  state.window.push_back(Sample{now_ms, accepted_total});
  while (state.window.size() > 1 &&
         now_ms - state.window.front().at_ms > config_.window_ms) {
    state.window.pop_front();
  }
}

double ShardLoadTracker::rate_msgs_per_sec(ShardId shard) const {
  const auto it = shards_.find(shard);
  if (it == shards_.end() || it->second.window.size() < 2) return 0;
  const Sample& first = it->second.window.front();
  const Sample& last = it->second.window.back();
  if (last.at_ms <= first.at_ms) return 0;
  return static_cast<double>(last.accepted_total - first.accepted_total) *
         1000.0 / static_cast<double>(last.at_ms - first.at_ms);
}

std::size_t ShardLoadTracker::log_entries(ShardId shard) const {
  const auto it = shards_.find(shard);
  return it == shards_.end() ? 0 : it->second.log_entries;
}

double ShardLoadTracker::p95_validate_ms(ShardId shard) const {
  const auto it = shards_.find(shard);
  return it == shards_.end() ? 0 : it->second.p95_validate_ms;
}

RebalanceRecommendation ShardLoadTracker::recommend(
    const ShardMap& map, std::span<const std::string> active_topics) const {
  RebalanceRecommendation rec;
  rec.current_shards = map.num_shards();
  rec.target_shards = map.num_shards();

  double total = 0;
  for (const ShardId shard : map.all_shards()) {
    const double rate = rate_msgs_per_sec(shard);
    total += rate;
    rec.max_rate_msgs_per_sec = std::max(rec.max_rate_msgs_per_sec, rate);
    rec.max_log_entries = std::max(rec.max_log_entries, log_entries(shard));
    rec.max_p95_validate_ms =
        std::max(rec.max_p95_validate_ms, p95_validate_ms(shard));
  }
  rec.mean_rate_msgs_per_sec = total / map.num_shards();
  rec.skew = rec.mean_rate_msgs_per_sec > 0
                 ? rec.max_rate_msgs_per_sec / rec.mean_rate_msgs_per_sec
                 : 1.0;

  const bool overloaded =
      rec.max_rate_msgs_per_sec > config_.overload_msgs_per_sec;
  // Skew alone only matters when the hot shard carries real load — a
  // near-idle deployment with one chatty topic is not worth a migration.
  const bool skewed =
      rec.skew > config_.skew_threshold &&
      rec.max_rate_msgs_per_sec > config_.overload_msgs_per_sec / 2;
  const bool log_pressure = rec.max_log_entries > config_.log_entries_soft_cap;
  // Latency pressure comes from node telemetry (pipeline latency
  // histograms); shards that never reported a p95 stay at 0 and cannot
  // trip it.
  const bool latency_pressure =
      config_.p95_budget_ms > 0 &&
      rec.max_p95_validate_ms > config_.p95_budget_ms;
  if (!overloaded && !skewed && !log_pressure && !latency_pressure) return rec;

  rec.reshard_recommended = true;
  // Power-of-two split factor sized so the hot shard's load, spread over
  // its family, fits the budget again (capped: one reshard at most 8×).
  std::uint16_t factor = 2;
  while (factor < 8 &&
         rec.max_rate_msgs_per_sec / factor > config_.overload_msgs_per_sec) {
    factor = static_cast<std::uint16_t>(factor * 2);
  }
  rec.target_shards = static_cast<std::uint16_t>(map.num_shards() * factor);
  if (overloaded) {
    rec.reason = "shard over throughput budget";
  } else if (skewed) {
    rec.reason = "load skew over threshold";
  } else if (log_pressure) {
    rec.reason = "nullifier log over soft cap";
  } else {
    rec.reason = "validation p95 over latency budget";
  }
  if (!active_topics.empty()) {
    std::vector<std::string> topics(active_topics.begin(),
                                    active_topics.end());
    rec.predicted_moved_topics =
        ShardMap::moved_topics(map, map.split(factor), topics).size();
  }
  return rec;
}

}  // namespace waku::shard

#include "shard/shard_map.hpp"

#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "common/expect.hpp"
#include "common/serde.hpp"
#include "hash/keccak256.hpp"

namespace waku::shard {

/// Bounded topic->shard memo. Relays resolve the same handful of live
/// content topics on every message, while the uncached walk costs one
/// keccak per split-lineage layer — so the memo turns the deepening hot
/// path back into a hash lookup. Full clear on overflow (no LRU links to
/// maintain): the working set of live topics is far below capacity, so a
/// flush is a cold-start blip, not a steady-state cost.
struct ShardMap::Memo {
  /// Heterogeneous lookup: find by string_view without materializing a
  /// std::string per message.
  struct Hash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  static constexpr std::size_t kCapacity = 4096;

  mutable std::mutex mu;
  std::unordered_map<std::string, ShardId, Hash, std::equal_to<>> cache;
  MemoStats stats;
};

std::vector<ShardId> ShardConfig::subscribed_shards() const {
  if (!subscribe.empty()) return subscribe;
  std::vector<ShardId> all(num_shards);
  for (std::uint16_t s = 0; s < num_shards; ++s) all[s] = s;
  return all;
}

ShardMap::ShardMap(std::uint16_t num_shards, std::uint32_t generation)
    : num_shards_(num_shards),
      generation_(generation),
      memo_(std::make_shared<Memo>()) {
  WAKU_EXPECTS(num_shards >= 1);
}

namespace {

std::uint64_t topic_hash(std::uint32_t generation,
                         std::string_view content_topic) {
  ByteWriter w;
  w.write_string("waku-shard-map-v1");
  w.write_u32(generation);
  w.write_string(content_topic);
  const hash::Keccak256Digest digest = hash::keccak256(w.data());
  // Fold the first 8 digest bytes; keccak output is uniform, and mod by a
  // small shard count keeps the assignment balanced for arbitrary topics.
  std::uint64_t h = 0;
  for (std::size_t i = 0; i < 8; ++i) h = (h << 8) | digest[i];
  return h;
}

}  // namespace

ShardId ShardMap::shard_of(std::string_view content_topic) const {
  {
    std::lock_guard lk(memo_->mu);
    const auto it = memo_->cache.find(content_topic);
    if (it != memo_->cache.end()) {
      ++memo_->stats.hits;
      return it->second;
    }
    ++memo_->stats.misses;
  }
  const ShardId shard = compute_shard_of(content_topic);
  std::lock_guard lk(memo_->mu);
  if (memo_->cache.size() >= Memo::kCapacity) {
    memo_->cache.clear();
    ++memo_->stats.flushes;
  }
  memo_->cache.emplace(std::string(content_topic), shard);
  return shard;
}

ShardMap::MemoStats ShardMap::memo_stats() const {
  std::lock_guard lk(memo_->mu);
  return memo_->stats;
}

ShardId ShardMap::compute_shard_of(std::string_view content_topic) const {
  if (parent_ != nullptr) {
    // Refinement: the old shard picks the family, this generation's hash
    // picks the slot within it — shard_of(T) % parent N == parent shard.
    const ShardId base = parent_->shard_of(content_topic);
    const std::uint16_t factor = num_shards_ / parent_->num_shards_;
    const auto sub = static_cast<std::uint16_t>(
        topic_hash(generation_, content_topic) % factor);
    return static_cast<ShardId>(base + parent_->num_shards_ * sub);
  }
  if (num_shards_ == 1) return 0;
  return static_cast<ShardId>(topic_hash(generation_, content_topic) %
                              num_shards_);
}

ShardMap ShardMap::split(std::uint16_t factor) const {
  WAKU_EXPECTS(factor >= 2);
  // The lineage is load-bearing (every layer adds one keccak per
  // shard_of) and serializes its depth as a u8; refuse silly chains
  // loudly instead of wrapping silently. Deployments that approach this
  // run a flat migration to ShardMap(n, generation + 1) to compact the
  // lineage (ROADMAP).
  std::size_t depth = 1;
  for (const ShardMap* m = parent_.get(); m != nullptr;
       m = m->parent_.get()) {
    ++depth;
  }
  WAKU_EXPECTS(depth < 32);
  ShardMap next(static_cast<std::uint16_t>(num_shards_ * factor),
                generation_ + 1);
  next.parent_ = std::make_shared<const ShardMap>(*this);
  return next;
}

std::string ShardMap::pubsub_topic(ShardId shard) const {
  WAKU_EXPECTS(shard < num_shards_);
  return "/waku/2/rs/" + std::to_string(generation_) + "/" +
         std::to_string(shard);
}

std::optional<ShardId> ShardMap::parse_pubsub_topic(
    std::string_view pubsub_topic) const {
  const std::string prefix =
      "/waku/2/rs/" + std::to_string(generation_) + "/";
  if (!pubsub_topic.starts_with(prefix)) return std::nullopt;
  const std::string_view tail = pubsub_topic.substr(prefix.size());
  if (tail.empty() || tail.size() > 5) return std::nullopt;
  std::uint32_t value = 0;
  for (const char c : tail) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<std::uint32_t>(c - '0');
  }
  if (value >= num_shards_) return std::nullopt;
  return static_cast<ShardId>(value);
}

std::vector<ShardId> ShardMap::all_shards() const {
  std::vector<ShardId> all(num_shards_);
  for (std::uint16_t s = 0; s < num_shards_; ++s) all[s] = s;
  return all;
}

std::string content_topic_for_shard(const ShardMap& map, ShardId shard,
                                    std::string_view prefix) {
  WAKU_EXPECTS(shard < map.num_shards());
  for (std::uint64_t n = 0;; ++n) {
    std::string topic = std::string(prefix) + std::to_string(n) + "/proto";
    if (map.shard_of(topic) == shard) return topic;
    // Uniform assignment: the expected probe count is num_shards, and the
    // loop terminates with probability 1.
  }
}

Bytes ShardMap::serialize() const {
  // Lineage root-first: each layer is (num_shards, generation); layer k>0
  // is a split of layer k-1.
  std::vector<const ShardMap*> chain;
  for (const ShardMap* m = this; m != nullptr; m = m->parent_.get()) {
    chain.push_back(m);
  }
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(chain.size()));
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    w.write_u16((*it)->num_shards_);
    w.write_u32((*it)->generation_);
  }
  return std::move(w).take();
}

ShardMap ShardMap::deserialize(BytesView bytes) {
  // The bytes come from disk: a lineage split() could not have built is a
  // decode error, thrown as the truncation errors of ByteReader are.
  const auto reject = [](const char* what) {
    throw std::out_of_range(std::string("ShardMap: ") + what);
  };
  ByteReader r(bytes);
  const std::uint8_t layers = r.read_u8();
  // split() refuses to deepen a lineage past 32 layers.
  if (layers < 1 || layers > 32) reject("layer count out of range");
  const std::uint16_t base_num = r.read_u16();
  const std::uint32_t base_gen = r.read_u32();
  if (base_num < 1) reject("no shards");
  ShardMap map(base_num, base_gen);
  for (std::uint8_t k = 1; k < layers; ++k) {
    const std::uint16_t num = r.read_u16();
    const std::uint32_t gen = r.read_u32();
    if (gen != map.generation_ + 1) reject("broken generation chain");
    if (num % map.num_shards_ != 0 || num <= map.num_shards_) {
      reject("bad split factor");
    }
    map = map.split(static_cast<std::uint16_t>(num / map.num_shards_));
  }
  return map;
}

std::vector<std::string> ShardMap::moved_topics(
    const ShardMap& from, const ShardMap& to,
    std::span<const std::string> topics) {
  std::vector<std::string> moved;
  for (const std::string& topic : topics) {
    if (from.shard_of(topic) != to.shard_of(topic)) moved.push_back(topic);
  }
  return moved;
}

}  // namespace waku::shard

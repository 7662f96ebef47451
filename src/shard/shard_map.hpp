// ShardMap: deterministic partition of the relay into N shards.
//
// The paper's single RLN-gated pubsub topic makes the whole network one
// rate-limit domain and one gossip mesh; production Waku splits the relay
// into shards (one gossipsub mesh per shard, RFC 51/WAKU2-RELAY-SHARDING)
// so throughput, nullifier state, and adversarial blast radius scale with
// shard count. This map is the one authority every layer shares:
//
//   * content topic -> shard: keccak(generation || topic) mod N. Every
//     peer computes the same assignment with no coordination, and the
//     assignment is uniform over shards for arbitrary topic strings.
//   * shard -> pubsub topic: "/waku/2/rs/<generation>/<shard>" — the
//     shard-qualified gossipsub topics the meshes form over (rs =
//     relay-shard, mirroring Waku's /waku/2/rs/<cluster>/<index> form).
//   * resharding is config-driven: a new ShardConfig{num_shards,
//     generation} re-keys the whole assignment (the generation salts the
//     hash AND renames the pubsub topics, so peers on the old layout
//     cannot accidentally mesh with peers on the new one mid-migration).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"

namespace waku::shard {

using ShardId = std::uint16_t;

/// Static sharding layout plus this node's subscription subset; rides in
/// NodeConfig so a whole deployment shares one layout by configuration.
struct ShardConfig {
  std::uint16_t num_shards = 1;
  /// Resharding generation: bumping it re-keys topic->shard assignment and
  /// renames every shard's pubsub topic (see file comment).
  std::uint32_t generation = 0;
  /// Shards this node subscribes to (meshes joined, validators installed,
  /// nullifier logs kept). Empty = all shards.
  std::vector<ShardId> subscribe;

  /// The effective subscription set: `subscribe`, or all shards if empty.
  [[nodiscard]] std::vector<ShardId> subscribed_shards() const;
};

/// One (shard, watermark) pair of a serving peer's nullifier GC state —
/// what shard-scoped checkpoints carry per subscribed shard.
struct ShardWatermark {
  ShardId shard = 0;
  std::uint64_t min_epoch = 0;

  friend bool operator==(const ShardWatermark&,
                         const ShardWatermark&) = default;
};

class ShardMap {
 public:
  explicit ShardMap(std::uint16_t num_shards = 1,
                    std::uint32_t generation = 0);
  explicit ShardMap(const ShardConfig& config)
      : ShardMap(config.num_shards, config.generation) {}

  /// Deterministic content-topic assignment (identical on every peer).
  /// Amortized O(1): the keccak-per-lineage-layer walk runs only on a memo
  /// miss; repeated lookups of live topics hit a bounded topic->shard memo
  /// (thread-safe, shared across copies of the same map, and naturally
  /// invalidated by resharding — split(), deserialize and a flat
  /// ShardMap(n, generation + 1) are new maps, and a new map starts with a
  /// fresh memo).
  [[nodiscard]] ShardId shard_of(std::string_view content_topic) const;

  /// Memo effectiveness counters (hits/misses/flushes) for benches and the
  /// O(1)-amortized-lookup assertion.
  struct MemoStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t flushes = 0;  ///< capacity-triggered full clears
  };
  [[nodiscard]] MemoStats memo_stats() const;

  /// Shard-qualified gossipsub topic for `shard`.
  [[nodiscard]] std::string pubsub_topic(ShardId shard) const;

  /// Inverse of pubsub_topic for *this* map's generation; nullopt for
  /// foreign topics (other generations, non-shard topics).
  [[nodiscard]] std::optional<ShardId> parse_pubsub_topic(
      std::string_view pubsub_topic) const;

  [[nodiscard]] std::uint16_t num_shards() const { return num_shards_; }
  [[nodiscard]] std::uint32_t generation() const { return generation_; }
  [[nodiscard]] std::vector<ShardId> all_shards() const;

  /// Hierarchical reshard: `factor`× more shards, next generation, and the
  /// refinement guarantee the LIVE reshard engine depends on:
  ///
  ///   split().shard_of(T) % num_shards() == shard_of(T)   for every T.
  ///
  /// A topic can only move within its old shard's family {s, s+N, s+2N,
  /// ...}, so a node subscribed to (old home s, new home s') with
  /// s' ≡ s (mod N) sees BOTH generations' meshes of every topic it
  /// hosts — which is what lets it enforce the shared cutover rate-limit
  /// domain without any cross-node coordination (see shard/reshard.hpp).
  [[nodiscard]] ShardMap split(std::uint16_t factor) const;

  [[nodiscard]] bool is_split() const { return parent_ != nullptr; }
  /// The map this one was split from (nullptr for flat maps).
  [[nodiscard]] const ShardMap* parent() const { return parent_.get(); }

  /// Topics whose assignment differs between two maps — the migration
  /// work-list an operator sizes a reshard by.
  static std::vector<std::string> moved_topics(
      const ShardMap& from, const ShardMap& to,
      std::span<const std::string> topics);

  /// Canonical serialization (split lineage included) — reshard
  /// coordinator snapshots carry maps across restarts.
  [[nodiscard]] Bytes serialize() const;
  /// Inverse of serialize(). Throws std::out_of_range on truncated input
  /// or a lineage split() cannot build: no layers or over 32, a layer of
  /// 0 shards, a generation that is not its parent's + 1, or a shard count
  /// that is not a multiple (>= 2x) of its parent's.
  static ShardMap deserialize(BytesView bytes);

  /// Value equality including the split lineage (a split map never equals
  /// a flat map, even at matching (num_shards, generation)): the lineage
  /// changes shard_of.
  friend bool operator==(const ShardMap& a, const ShardMap& b) {
    if (a.num_shards_ != b.num_shards_ || a.generation_ != b.generation_) {
      return false;
    }
    if ((a.parent_ == nullptr) != (b.parent_ == nullptr)) return false;
    return a.parent_ == nullptr || *a.parent_ == *b.parent_;
  }

 private:
  /// The uncached assignment walk (one keccak per lineage layer).
  [[nodiscard]] ShardId compute_shard_of(std::string_view content_topic) const;

  std::uint16_t num_shards_;
  std::uint32_t generation_;
  /// Split lineage; shared (immutable) so copies stay cheap.
  std::shared_ptr<const ShardMap> parent_;
  /// Bounded topic->shard memo (defined in the .cpp). Shared across copies
  /// — copies denote the same layout, so they may share warm entries; any
  /// layout change constructs a new map and with it a fresh memo.
  struct Memo;
  std::shared_ptr<Memo> memo_;
};

/// Deterministically finds a content topic assigned to `shard` under
/// `map` by probing "<prefix><n>/proto" for n = 0, 1, ... — traffic
/// generators and tests use it to aim messages at a specific shard.
std::string content_topic_for_shard(const ShardMap& map, ShardId shard,
                                    std::string_view prefix = "/waku/2/app-");

}  // namespace waku::shard

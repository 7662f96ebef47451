// Untrusted element counts in the membership decoders: a count read from
// peer or disk bytes is checked against the bytes that remain before any
// allocation is sized from it. Each decoder must throw its typed error on
// an inflated count, and must not first reserve memory for that count.
// The snapshot readers of the validation and shard layers throw the same
// typed error on corrupt bytes, and leave the object they restore as it
// was.
//
// Unsanitized builds replace the global operator new in this binary to
// record the largest single allocation a decode makes. Sanitized builds
// keep the sanitizer's allocator, so there only the exception type is
// checked.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>

#include "chain/types.hpp"
#include "common/expect.hpp"
#include "common/serde.hpp"
#include "rln/checkpoint.hpp"
#include "rln/group_manager.hpp"
#include "rln/nullifier_log.hpp"
#include "rln/validation_pipeline.hpp"
#include "shard/reshard.hpp"
#include "shard/shard_map.hpp"
#include "shard/sharded_validator.hpp"
#include "zksnark/rln_circuit.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define WAKU_TRACK_ALLOCATIONS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define WAKU_TRACK_ALLOCATIONS 0
#endif
#endif
#ifndef WAKU_TRACK_ALLOCATIONS
#define WAKU_TRACK_ALLOCATIONS 1
#endif

namespace {

std::atomic<bool> g_tracking{false};
std::atomic<std::size_t> g_largest{0};

[[maybe_unused]] void note_allocation(std::size_t n) {
  if (!g_tracking.load(std::memory_order_relaxed)) return;
  std::size_t seen = g_largest.load(std::memory_order_relaxed);
  while (n > seen &&
         !g_largest.compare_exchange_weak(seen, n, std::memory_order_relaxed)) {
  }
}

}  // namespace

#if WAKU_TRACK_ALLOCATIONS
// GCC pairs the inlined free() below with the replaced operator new and
// warns about a mismatch; the pair is malloc/free, which is consistent.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  note_allocation(n);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  note_allocation(n);
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
#pragma GCC diagnostic pop
#endif

namespace waku {
namespace {

/// Generous ceiling for what decoding a few dozen bytes may allocate.
constexpr std::size_t kSmallAllocation = 4096;

/// Runs `decode`, which must throw E; returns the largest single
/// allocation made meanwhile (0 where allocations are not tracked).
template <typename E>
std::size_t largest_allocation_while_throwing(
    const std::function<void()>& decode) {
  g_largest.store(0, std::memory_order_relaxed);
  g_tracking.store(true, std::memory_order_relaxed);
  bool threw = false;
  try {
    decode();
  } catch (const E&) {
    threw = true;
  }
  g_tracking.store(false, std::memory_order_relaxed);
  EXPECT_TRUE(threw);
  return g_largest.load(std::memory_order_relaxed);
}

TEST(DecoderBounds, ByteReaderBoundedCount) {
  const Bytes bytes(64, 0);
  ByteReader r(bytes);
  EXPECT_EQ(r.bounded_count(2, 32), 2u);
  EXPECT_EQ(r.bounded_count(0, 32), 0u);
  EXPECT_THROW((void)r.bounded_count(3, 32), std::out_of_range);
  EXPECT_THROW((void)r.bounded_count(~std::uint64_t{0}, 1), std::out_of_range);
  EXPECT_THROW((void)r.bounded_count(1, 0), std::out_of_range);
}

TEST(DecoderBounds, EventTopicCountIsBoundedByInput) {
  // 41 bytes: address, a 13-byte name, then a topic count of 2^32 - 1
  // with no topics behind it (a 128 GB reserve if trusted).
  ByteWriter w;
  w.write_raw(Bytes(20, 0xAB));
  w.write_string("MemberSlashed");
  w.write_u32(0xFFFFFFFFu);
  const Bytes bytes = std::move(w).take();
  ASSERT_EQ(bytes.size(), 41u);
  EXPECT_LT(largest_allocation_while_throwing<std::out_of_range>(
                [&] { (void)chain::deserialize_event(bytes); }),
            kSmallAllocation);

  // 2^20 topics would have reserved 32 MB before the truncation error.
  ByteWriter w2;
  w2.write_raw(Bytes(20, 0xAB));
  w2.write_string("MemberRegistered");
  w2.write_u32(1u << 20);
  w2.write_raw(Bytes(64, 0x01));
  const Bytes bytes2 = std::move(w2).take();
  EXPECT_LT(largest_allocation_while_throwing<std::out_of_range>(
                [&] { (void)chain::deserialize_event(bytes2); }),
            kSmallAllocation);
}

Bytes checkpoint_prefix() {
  ByteWriter w;
  w.write_u8(2);    // version
  w.write_u64(7);   // event_cursor
  w.write_u64(3);   // member_count
  w.write_u64(0);   // removed_count
  return std::move(w).take();
}

TEST(DecoderBounds, CheckpointCountsAreBoundedByInput) {
  // Watermark count 65535 (10 B each) with nothing behind it.
  Bytes watermarks = checkpoint_prefix();
  ByteWriter w;
  w.write_u16(0xFFFF);
  const Bytes tail = std::move(w).take();
  watermarks.insert(watermarks.end(), tail.begin(), tail.end());
  EXPECT_LT(largest_allocation_while_throwing<std::out_of_range>(
                [&] { (void)rln::Checkpoint::deserialize(watermarks); }),
            kSmallAllocation);

  // No watermarks, then a root count of 2^32 - 1 (a 128 GB reserve).
  Bytes roots = checkpoint_prefix();
  ByteWriter w2;
  w2.write_u16(0);
  w2.write_u32(0xFFFFFFFFu);
  w2.write_raw(Bytes(96, 0x02));
  const Bytes tail2 = std::move(w2).take();
  roots.insert(roots.end(), tail2.begin(), tail2.end());
  EXPECT_LT(largest_allocation_while_throwing<std::out_of_range>(
                [&] { (void)rln::Checkpoint::deserialize(roots); }),
            kSmallAllocation);
}

TEST(DecoderBounds, DeltaCheckpointWatermarkCountIsBoundedByInput) {
  ByteWriter w;
  w.write_u8(1);                  // version
  w.write_u64(7);                 // from_cursor
  w.write_raw(Bytes(32, 0x03));   // from_root
  w.write_u64(9);                 // to_cursor
  w.write_u64(3);                 // member_count
  w.write_u64(0);                 // removed_count
  w.write_u16(0xFFFF);            // watermark count, none present
  const Bytes bytes = std::move(w).take();
  EXPECT_LT(largest_allocation_while_throwing<std::out_of_range>(
                [&] { (void)rln::DeltaCheckpoint::deserialize(bytes); }),
            kSmallAllocation);
}

TEST(DecoderBounds, NullifierLogEntryCountIsBoundedByInput) {
  // A valid empty log, then one bucket claiming 2^40 entries.
  const Bytes empty = rln::NullifierLog().serialize();
  ByteReader header(empty);
  ByteWriter w;
  w.write_u64(header.read_u64());  // min_epoch
  w.write_u64(header.read_u64());  // conflicts
  w.write_u64(1);                  // bucket_count
  w.write_u64(5);                  // epoch
  w.write_u64(std::uint64_t{1} << 40);
  const Bytes bytes = std::move(w).take();
  rln::NullifierLog log;
  EXPECT_LT(largest_allocation_while_throwing<std::out_of_range>(
                [&] { log.restore(bytes); }),
            kSmallAllocation);
}

TEST(DecoderBounds, MembersRegisteredCountOverflowIsAContractViolation) {
  // n * 32 wraps to 32 for n = 2^59 + 1, so a 32-byte payload matched an
  // unchecked size test and the reserve for n pks then threw
  // std::length_error. The count is now bounded by the payload first.
  chain::Event ev;
  ev.name = "MembersRegistered";
  const std::uint64_t n = (std::uint64_t{1} << 59) + 1;
  ev.topics = {ff::U256{0}, ff::U256{n}};
  ev.data = Bytes(32, 0x04);
  rln::GroupManager group(10, rln::TreeMode::kFullTree);
  const ff::Fr root = group.root();
  EXPECT_LT(largest_allocation_while_throwing<ContractViolation>(
                [&] { group.on_event(ev); }),
            kSmallAllocation);
  EXPECT_EQ(group.member_count(), 0u);
  EXPECT_EQ(group.root(), root);
}

// -- Snapshot readers: corrupt disk bytes are typed decode errors --------

constexpr std::size_t kPipelineDepth = 4;

rln::ValidatorConfig snapshot_validator_config() {
  return rln::ValidatorConfig{
      .epoch = rln::EpochConfig{.epoch_length_ms = 1000}, .max_epoch_gap = 2};
}

/// A pipeline with one observation, so its state differs from a fresh one.
void observe_one(rln::ValidationPipeline& pipeline) {
  pipeline.inject_observation(
      7, ff::Fr::from_u64(9),
      sss::Share{ff::Fr::from_u64(5), ff::Fr::from_u64(6)}, 77);
}

TEST(DecoderBounds, PipelineStateVersionIsATypedErrorAndKeepsState) {
  rln::GroupManager group(kPipelineDepth, rln::TreeMode::kFullTree);
  rln::ValidationPipeline pipeline(zksnark::rln_keypair(kPipelineDepth).vk,
                                   group, snapshot_validator_config(), 1);
  const Bytes empty = pipeline.serialize_state();
  observe_one(pipeline);
  const Bytes before = pipeline.serialize_state();
  ASSERT_NE(before, empty);

  Bytes bad_version = empty;
  bad_version[0] = 2;
  EXPECT_THROW(pipeline.restore_state(bad_version), std::out_of_range);
  EXPECT_EQ(pipeline.serialize_state(), before);
  // Cut inside the stats that follow the log: the log is not replaced.
  const Bytes truncated(empty.begin(), empty.end() - 1);
  EXPECT_THROW(pipeline.restore_state(truncated), std::out_of_range);
  EXPECT_EQ(pipeline.serialize_state(), before);
}

TEST(DecoderBounds, ShardedValidatorStateVersionIsATypedErrorAndKeepsState) {
  rln::GroupManager group(kPipelineDepth, rln::TreeMode::kFullTree);
  shard::ShardConfig layout;
  layout.num_shards = 2;
  shard::ShardedValidator validator(zksnark::rln_keypair(kPipelineDepth).vk,
                                    group, snapshot_validator_config(), layout,
                                    1);
  const Bytes empty = validator.serialize_state();
  observe_one(validator.pipeline(0));
  observe_one(validator.pipeline(1));
  const Bytes before = validator.serialize_state();

  Bytes bad_version = empty;
  bad_version[0] = 0;
  EXPECT_THROW(validator.restore_state(bad_version), std::out_of_range);
  EXPECT_EQ(validator.serialize_state(), before);
  // Cut inside shard 1's entry: shard 0 is not restored either.
  const Bytes truncated(empty.begin(), empty.end() - 1);
  EXPECT_THROW(validator.restore_state(truncated), std::out_of_range);
  EXPECT_EQ(validator.serialize_state(), before);
}

/// A ShardMap blob: (num_shards, generation) per lineage layer, root first.
Bytes shard_map_bytes(
    std::uint8_t layers,
    std::initializer_list<std::pair<std::uint16_t, std::uint32_t>> chain) {
  ByteWriter w;
  w.write_u8(layers);
  for (const auto& [num, gen] : chain) {
    w.write_u16(num);
    w.write_u32(gen);
  }
  return std::move(w).take();
}

TEST(DecoderBounds, ShardMapLineageErrorsAreTyped) {
  // The well-formed blob decodes; each corruption of it is a typed error.
  EXPECT_EQ(shard::ShardMap::deserialize(
                shard_map_bytes(2, {{2, 5}, {4, 6}})),
            shard::ShardMap(2, 5).split(2));
  for (const Bytes& bad : {
           shard_map_bytes(0, {{2, 5}}),             // no layers
           shard_map_bytes(33, {{2, 5}}),            // deeper than split()
           shard_map_bytes(1, {{0, 5}}),             // a layer of no shards
           shard_map_bytes(2, {{2, 5}, {4, 7}}),     // generation skips
           shard_map_bytes(2, {{2, 5}, {4, 5}}),     // generation repeats
           shard_map_bytes(2, {{2, 5}, {3, 6}}),     // not a multiple
           shard_map_bytes(2, {{2, 5}, {2, 6}}),     // factor 1
           shard_map_bytes(2, {{4, 5}, {2, 6}}),     // shrinks
       }) {
    EXPECT_THROW((void)shard::ShardMap::deserialize(bad), std::out_of_range)
        << to_hex(bad);
  }
}

TEST(DecoderBounds, CoordinatorConfigOfNoShardsIsATypedError) {
  shard::ShardConfig layout;
  layout.num_shards = 2;
  shard::ReshardCoordinator coord(layout);
  ASSERT_TRUE(coord.begin(4, {}));
  const Bytes before = coord.serialize();
  // version | phase | config (u16 num_shards at offset 2, u32 generation,
  // u16 subscribe count, ...) — as ReshardCoordinator::serialize writes it.
  const Bytes good = shard::ReshardCoordinator(layout).serialize();
  ASSERT_EQ(good[2] | (good[3] << 8), 2);
  Bytes no_shards = good;
  no_shards[2] = 0;
  EXPECT_THROW(coord.restore(no_shards), std::out_of_range);
  EXPECT_EQ(coord.serialize(), before);
  // A subscription naming a shard the config does not have.
  shard::ShardConfig subscribed = layout;
  subscribed.subscribe = {1};
  Bytes out_of_range_shard = shard::ReshardCoordinator(subscribed).serialize();
  ASSERT_EQ(out_of_range_shard[10], 1);  // the subscribed id's low byte
  out_of_range_shard[10] = 2;
  EXPECT_THROW(coord.restore(out_of_range_shard), std::out_of_range);
  EXPECT_EQ(coord.serialize(), before);
}

}  // namespace
}  // namespace waku

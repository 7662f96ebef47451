// StateStore: the facade the node talks to. Owns one directory holding a
// write-ahead log (`wal.log`) and a generation-numbered snapshot set, and
// owns the snapshot/compaction policy: every `snapshot_every_records` WAL
// appends the registered provider is asked for a full-state payload, a new
// snapshot generation is written atomically, and the WAL is truncated.
//
// Restore protocol (what a restarting owner runs, in order):
//   1. load_snapshot()  — newest intact snapshot payload, if any;
//   2. replay_wal(fn)   — records appended *after* that snapshot (LSN
//                         filtering makes this exact even if the crash
//                         landed between snapshot write and WAL reset);
//   3. resume the external event stream from whatever cursor the snapshot
//      payload recorded.
//
// The store itself is payload-agnostic: record types and snapshot layout
// belong to the owner (see rln/node_journal.hpp for the node's schema).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "persist/snapshot.hpp"
#include "persist/wal.hpp"

namespace waku::persist {

struct StateStoreConfig {
  /// WAL appends between automatic snapshots (0 disables the automatic
  /// policy; force_snapshot() still works).
  std::size_t snapshot_every_records = 512;
  /// WAL size (bytes) that triggers a snapshot regardless of record count
  /// (0 disables). The record-count policy alone mis-sizes compaction when
  /// record payloads vary by orders of magnitude — a million-leaf group
  /// whose churn arrives as batched events writes few but huge records, so
  /// the WAL balloons long before `snapshot_every_records` fires. Either
  /// threshold crossing compacts; both counters reset on snapshot.
  std::size_t snapshot_every_bytes = 0;
  /// Snapshot generations retained on disk.
  std::size_t keep_snapshots = 2;
  /// WAL flush cadence: flush to the OS after every N appends. 1 (the
  /// default) keeps the historical always-flush write-ahead guarantee;
  /// larger values trade a bounded crash-loss window (at most N-1 records)
  /// for fewer syscalls on hot append paths. Snapshots always flush first,
  /// so the loss window never spans a snapshot boundary.
  std::size_t fsync_every_n_records = 1;
};

class StateStore {
 public:
  using SnapshotProvider = std::function<Bytes()>;
  /// `shard` is the relay-shard tag the record was appended under (0 for
  /// unsharded owners) — sharded owners use it to route each replayed
  /// record into the right per-shard state.
  using ReplayHandler = std::function<void(
      std::uint8_t type, std::uint16_t shard, BytesView payload)>;

  /// Creates `dir` if needed and opens (or creates) the WAL inside it.
  explicit StateStore(std::string dir, StateStoreConfig config = {});

  // -- Restore --------------------------------------------------------------

  /// Payload of the newest intact snapshot, if any.
  [[nodiscard]] std::optional<Bytes> load_snapshot() const;

  /// Replays WAL records not yet folded into the loaded snapshot.
  void replay_wal(const ReplayHandler& fn) const;

  // -- Operation ------------------------------------------------------------

  /// Installs the callback that renders the owner's full state when the
  /// snapshot policy fires.
  void set_snapshot_provider(SnapshotProvider provider) {
    provider_ = std::move(provider);
  }

  /// Journals one record (durable before return) and runs the snapshot
  /// policy. `shard` tags the record for per-shard recovery (see
  /// ReplayHandler); unsharded owners omit it.
  std::uint64_t append(std::uint8_t type, BytesView payload,
                       std::uint16_t shard = 0);

  /// Takes a snapshot now (no-op without a provider).
  void force_snapshot();

  /// Flushes buffered WAL appends now (see fsync_every_n_records).
  void flush_wal();

  struct Stats {
    std::uint64_t wal_records = 0;
    std::uint64_t wal_bytes = 0;
    std::uint64_t snapshot_generation = 0;
    std::uint64_t snapshots_written = 0;
    std::uint64_t torn_bytes_dropped = 0;
    std::uint64_t wal_flushes = 0;
    std::uint64_t wal_unflushed = 0;  ///< crash-loss window right now
  };
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  StateStoreConfig config_;
  SnapshotEngine engine_;
  WriteAheadLog wal_;
  SnapshotProvider provider_;
  /// Highest LSN covered by the snapshot set (loaded or written).
  std::uint64_t snapshot_lsn_ = 0;
  std::size_t appends_since_snapshot_ = 0;
};

}  // namespace waku::persist

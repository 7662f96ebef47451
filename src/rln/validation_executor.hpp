// Multithreaded validation executor: drains per-shard batch windows on a
// fixed worker pool so proof verification — the binding cost of RLN spam
// filtering — uses real cores instead of one simulated thread.
//
// Topology (the mpsc command/worker shape of the channel-based relays this
// mirrors): every submitted window is an MPSC queue entry owned by exactly
// one worker. A shard is pinned to one worker (shard % workers), so
//
//   * windows of ONE shard execute serially, in submission order, and
//     their completion callbacks fire in that same order — per-shard
//     verdict streams are indistinguishable from single-threaded runs;
//   * windows of DIFFERENT shards execute concurrently — aggregate
//     throughput scales with min(worker count, hosted shards, cores).
//
// Shared stages stay correct under that concurrency because the shared
// state itself is synchronized: each shard's NullifierLog sits behind its
// own mutex (one lane writes it; the lock covers the owner's gc and the
// reshard domain logs), and the GroupManager root window is published
// behind an atomic version counter that each pipeline polls before reading
// its own mirror of the window — a mirror read and refreshed only on the
// lane that runs the pipeline's windows.
//
// The default ParallelismConfig is deterministic: no threads are started
// and submit() runs the window inline on the caller — bit-for-bit the
// pre-executor semantics, which is what tier-1 tests and the deterministic
// simulator run. Benches and soak runs opt into workers explicitly.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "rln/validation_pipeline.hpp"

namespace waku::rln {

/// Worker-pool shape of a validator container. Defaults reproduce the
/// single-threaded semantics exactly; benches and tests opt a container
/// into worker lanes with ShardedValidator::set_parallelism.
struct ParallelismConfig {
  /// No threads; submit() executes inline on the caller. The simulator and
  /// tier-1 tests stay bit-for-bit reproducible under this default.
  bool deterministic = true;
  /// Worker threads (parallel mode); 0 = std::thread::hardware_concurrency.
  std::size_t workers = 0;
  /// Max windows queued per shard before backpressure applies.
  std::size_t queue_depth = 64;
  /// What submit() does when a shard's queue is full: block the producer
  /// (lossless; the relay's own buffering bounds memory) or refuse the
  /// window (the caller sheds load explicitly — submit returns false).
  enum class Backpressure { kBlock, kReject };
  Backpressure backpressure = Backpressure::kBlock;
};

struct ExecutorStats {
  std::uint64_t submitted = 0;  ///< windows accepted (queued or inline)
  std::uint64_t executed = 0;   ///< windows completed
  std::uint64_t rejected = 0;   ///< windows refused by kReject backpressure
  std::uint64_t blocked = 0;    ///< submits that waited on a full queue
  std::size_t workers = 0;      ///< pool size (0 = deterministic/inline)
};

/// Point-in-time observability view of one worker lane: how long windows
/// sat queued vs how long they ran, plus the deepest the lane's queue has
/// ever been. Lane 0 doubles as the pseudo-lane of deterministic/inline
/// execution (service time only — nothing ever queues inline).
struct LaneObsSnapshot {
  std::size_t lane = 0;
  obs::HistogramSnapshot queue_wait;  ///< ns from enqueue to pop
  obs::HistogramSnapshot service;     ///< ns running the window
  std::uint64_t depth_high_watermark = 0;  ///< max queued windows ever
};

class ValidationExecutor {
 public:
  /// Fires on the worker that ran the window (or inline in deterministic
  /// mode), after the pipeline produced the verdicts. Per shard, callbacks
  /// fire in submission order.
  using Completion = std::function<void(std::vector<ValidationOutcome>)>;

  explicit ValidationExecutor(ParallelismConfig config);
  /// Drains every queued window, then joins the pool.
  ~ValidationExecutor();

  ValidationExecutor(const ValidationExecutor&) = delete;
  ValidationExecutor& operator=(const ValidationExecutor&) = delete;

  /// Enqueues one window of `shard` against `pipeline`, with one arrival
  /// time per message (moved into the job). `messages` must stay alive
  /// until `done` fires — the executor does not copy message payloads.
  /// Returns false only when kReject backpressure refused the window (the
  /// completion never fires). Callers must not submit one shard's windows
  /// from multiple threads at once if they rely on per-shard submission
  /// order being meaningful.
  bool submit(std::uint16_t shard, ValidationPipeline& pipeline,
              std::span<const WakuMessage> messages,
              std::vector<std::uint64_t> received_at_ms, Completion done);

  /// Blocking convenience: submit + wait for that window's verdicts.
  /// Deterministic mode runs inline; parallel mode still serializes after
  /// every window already queued for the shard, so interleaving blocking
  /// and async submits keeps the per-shard order.
  std::vector<ValidationOutcome> validate(
      std::uint16_t shard, ValidationPipeline& pipeline,
      std::span<const WakuMessage> messages,
      std::span<const std::uint64_t> received_at_ms);

  /// Waits until every window submitted so far has completed.
  void drain();

  [[nodiscard]] const ParallelismConfig& config() const { return config_; }
  /// Pool size; 0 in deterministic mode.
  [[nodiscard]] std::size_t worker_count() const { return threads_.size(); }
  [[nodiscard]] ExecutorStats stats() const;

  /// Wires queue-wait/service timing. nullptr (the default) disables
  /// every clock read: zero instrumentation cost in deterministic tier-1
  /// runs. Safe to call while workers run (atomic pointer swap); the
  /// clock must outlive the executor or be cleared first.
  void set_clock(const obs::Clock* clock) {
    obs_clock_.store(clock, std::memory_order_release);
  }

  /// One snapshot per lane (a single pseudo-lane in deterministic mode).
  [[nodiscard]] std::vector<LaneObsSnapshot> lane_stats() const;

 private:
  struct Job {
    std::uint16_t shard = 0;
    ValidationPipeline* pipeline = nullptr;
    std::span<const WakuMessage> messages;
    std::vector<std::uint64_t> received_at_ms;
    std::uint64_t enqueued_ns = 0;  ///< clock read at enqueue (0 = no clock)
    Completion done;
  };

  /// Per-lane observability sinks, fixed at construction so the record
  /// path indexes an immutable vector (no locks). Histograms are
  /// internally atomic; the high-watermark is a CAS-max.
  struct LaneObs {
    obs::Histogram queue_wait;
    obs::Histogram service;
    std::atomic<std::uint64_t> depth_hwm{0};

    void raise_hwm(std::uint64_t depth) noexcept {
      std::uint64_t seen = depth_hwm.load(std::memory_order_relaxed);
      while (depth > seen && !depth_hwm.compare_exchange_weak(
                                 seen, depth, std::memory_order_relaxed)) {
      }
    }
  };

  /// One worker's MPSC lane: its own lock, queue, and per-shard depth
  /// accounting (a shard lives on exactly one lane, so depth counters
  /// never need cross-lane coordination). Depth entries are never erased
  /// — references into the map stay valid for waiting producers, and the
  /// map is bounded by the number of shards ever submitted.
  struct Lane {
    std::mutex mu;
    std::condition_variable cv;        ///< worker wakeup
    std::condition_variable room_cv;   ///< producer backpressure wakeup
    std::deque<Job> queue;
    std::unordered_map<std::uint16_t, std::size_t> shard_depth;
  };

  /// `force_block` overrides kReject (the blocking validate() waits for
  /// room instead of dropping — running the window inline would reorder
  /// it ahead of already-queued windows of the same shard).
  bool enqueue(Job job, bool force_block);
  void run_job(Job& job);
  void worker_loop(std::size_t lane_index);

  ParallelismConfig config_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::unique_ptr<LaneObs>> lane_obs_;  ///< max(1, lanes)
  std::atomic<const obs::Clock*> obs_clock_{nullptr};
  std::vector<std::thread> threads_;
  /// Set once in the destructor; workers re-check it under their lane
  /// lock, and the destructor notifies while holding each lane lock, so a
  /// worker can never sleep through shutdown.
  std::atomic<bool> stop_{false};

  // Drain bookkeeping + counters, shared across lanes.
  mutable std::mutex stats_mu_;
  std::condition_variable drained_cv_;
  std::size_t in_flight_ = 0;
  ExecutorStats stats_;
};

}  // namespace waku::rln

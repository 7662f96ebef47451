#include "rln/validation_executor.hpp"

#include <algorithm>

#include "common/expect.hpp"

namespace waku::rln {

ValidationExecutor::ValidationExecutor(ParallelismConfig config)
    : config_(config) {
  WAKU_EXPECTS(config_.queue_depth >= 1);
  if (config_.deterministic) {
    // Pseudo-lane 0 records inline service time so metrics always have
    // lane data, threaded or not.
    lane_obs_.push_back(std::make_unique<LaneObs>());
    return;
  }
  std::size_t n = config_.workers;
  if (n == 0) n = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  lanes_.reserve(n);
  lane_obs_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    lanes_.push_back(std::make_unique<Lane>());
    lane_obs_.push_back(std::make_unique<LaneObs>());
  }
  stats_.workers = n;
  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ValidationExecutor::~ValidationExecutor() {
  if (threads_.empty()) return;
  drain();
  stop_.store(true, std::memory_order_release);
  for (auto& lane : lanes_) {
    std::lock_guard lk(lane->mu);
    lane->cv.notify_all();
  }
  for (std::thread& t : threads_) t.join();
}

bool ValidationExecutor::submit(std::uint16_t shard,
                                ValidationPipeline& pipeline,
                                std::span<const WakuMessage> messages,
                                std::vector<std::uint64_t> received_at_ms,
                                Completion done) {
  WAKU_EXPECTS(received_at_ms.size() == messages.size());
  return enqueue(Job{.shard = shard,
                     .pipeline = &pipeline,
                     .messages = messages,
                     .received_at_ms = std::move(received_at_ms),
                     .enqueued_ns = 0,
                     .done = std::move(done)},
                 /*force_block=*/false);
}

void ValidationExecutor::run_job(Job& job) {
  std::vector<ValidationOutcome> outcomes =
      job.pipeline->validate_batch(job.messages, job.received_at_ms);
  if (job.done) job.done(std::move(outcomes));
}

bool ValidationExecutor::enqueue(Job job, bool force_block) {
  const obs::Clock* clock = obs_clock_.load(std::memory_order_acquire);
  if (threads_.empty()) {
    // Deterministic mode: the window runs inline on the caller — the
    // exact pre-executor code path (same thread, same order, same state).
    {
      std::lock_guard lk(stats_mu_);
      ++stats_.submitted;
    }
    if (clock != nullptr) {
      const std::uint64_t t0 = clock->now_ns();
      run_job(job);
      lane_obs_[0]->service.record(clock->now_ns() - t0);
    } else {
      run_job(job);
    }
    std::lock_guard lk(stats_mu_);
    ++stats_.executed;
    return true;
  }

  if (clock != nullptr) job.enqueued_ns = clock->now_ns();
  Lane& lane = *lanes_[job.shard % lanes_.size()];
  LaneObs& lane_obs = *lane_obs_[job.shard % lanes_.size()];
  std::unique_lock lk(lane.mu);
  std::size_t& depth = lane.shard_depth[job.shard];
  if (depth >= config_.queue_depth) {
    if (!force_block &&
        config_.backpressure == ParallelismConfig::Backpressure::kReject) {
      std::lock_guard slk(stats_mu_);
      ++stats_.rejected;
      return false;
    }
    {
      std::lock_guard slk(stats_mu_);
      ++stats_.blocked;
    }
    lane.room_cv.wait(lk, [&] { return depth < config_.queue_depth; });
  }
  ++depth;
  // in_flight_ rises before the job becomes visible to any worker (both
  // under the lane lock), so drain() can never observe a popped-but-not-
  // yet-counted window. Lock order everywhere: lane.mu before stats_mu_.
  {
    std::lock_guard slk(stats_mu_);
    ++stats_.submitted;
    ++in_flight_;
  }
  lane.queue.push_back(std::move(job));
  lane_obs.raise_hwm(lane.queue.size());
  lane.cv.notify_one();
  return true;
}

void ValidationExecutor::worker_loop(std::size_t lane_index) {
  Lane& lane = *lanes_[lane_index];
  LaneObs& lane_obs = *lane_obs_[lane_index];
  for (;;) {
    Job job;
    {
      std::unique_lock lk(lane.mu);
      lane.cv.wait(lk, [&] {
        return !lane.queue.empty() || stop_.load(std::memory_order_acquire);
      });
      if (lane.queue.empty()) return;  // stop requested and lane drained
      job = std::move(lane.queue.front());
      lane.queue.pop_front();
      --lane.shard_depth[job.shard];
      lane.room_cv.notify_all();
    }
    const obs::Clock* clock = obs_clock_.load(std::memory_order_acquire);
    if (clock != nullptr) {
      const std::uint64_t t0 = clock->now_ns();
      if (job.enqueued_ns != 0) {
        lane_obs.queue_wait.record(t0 - job.enqueued_ns);
      }
      run_job(job);
      lane_obs.service.record(clock->now_ns() - t0);
    } else {
      run_job(job);
    }
    {
      std::lock_guard slk(stats_mu_);
      ++stats_.executed;
      --in_flight_;
      if (in_flight_ == 0) drained_cv_.notify_all();
    }
  }
}

std::vector<ValidationOutcome> ValidationExecutor::validate(
    std::uint16_t shard, ValidationPipeline& pipeline,
    std::span<const WakuMessage> messages,
    std::span<const std::uint64_t> received_at_ms) {
  WAKU_EXPECTS(received_at_ms.size() == messages.size());
  // Deterministic mode completes inside enqueue, so the wait below
  // returns at once; parallel mode waits for the shard's lane.
  struct Sync {
    std::mutex mu;
    std::condition_variable cv;
    bool ready = false;
    std::vector<ValidationOutcome> result;
  };
  Sync sync;
  enqueue(Job{.shard = shard,
              .pipeline = &pipeline,
              .messages = messages,
              .received_at_ms = {received_at_ms.begin(), received_at_ms.end()},
              .enqueued_ns = 0,
              .done =
                  [&sync](std::vector<ValidationOutcome> outcomes) {
                    std::lock_guard lk(sync.mu);
                    sync.result = std::move(outcomes);
                    sync.ready = true;
                    sync.cv.notify_one();
                  }},
          /*force_block=*/true);
  std::unique_lock lk(sync.mu);
  sync.cv.wait(lk, [&] { return sync.ready; });
  return std::move(sync.result);
}

void ValidationExecutor::drain() {
  std::unique_lock lk(stats_mu_);
  drained_cv_.wait(lk, [&] { return in_flight_ == 0; });
}

ExecutorStats ValidationExecutor::stats() const {
  std::lock_guard lk(stats_mu_);
  return stats_;
}

std::vector<LaneObsSnapshot> ValidationExecutor::lane_stats() const {
  std::vector<LaneObsSnapshot> out;
  out.reserve(lane_obs_.size());
  for (std::size_t i = 0; i < lane_obs_.size(); ++i) {
    LaneObsSnapshot snap;
    snap.lane = i;
    snap.queue_wait = lane_obs_[i]->queue_wait.snapshot();
    snap.service = lane_obs_[i]->service.snapshot();
    snap.depth_high_watermark =
        lane_obs_[i]->depth_hwm.load(std::memory_order_relaxed);
    out.push_back(std::move(snap));
  }
  return out;
}

}  // namespace waku::rln

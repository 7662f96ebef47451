// Deterministic discrete-event simulator — the substrate that stands in
// for real libp2p transports (see docs/ARCHITECTURE.md, "Substitutions",
// item 1). All protocol behaviour above this layer (gossip meshes, RLN
// validation, block mining) is driven by events scheduled here, so every
// experiment is reproducible from a seed.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

namespace waku::net {

/// Simulated wall-clock milliseconds since simulation start.
using TimeMs = std::uint64_t;

class Simulator {
 public:
  using Callback = std::function<void()>;
  using TaskId = std::uint64_t;

  [[nodiscard]] TimeMs now() const { return now_; }

  /// Schedules `fn` at absolute simulated time `t` (>= now).
  TaskId schedule_at(TimeMs t, Callback fn);

  /// Schedules `fn` after `delay` ms.
  TaskId schedule_after(TimeMs delay, Callback fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Schedules `fn` every `interval` ms, first firing at now + interval.
  /// Returns an id usable with cancel().
  TaskId schedule_every(TimeMs interval, Callback fn);

  /// Cancels a pending (or repeating) task.
  void cancel(TaskId id) { cancelled_.insert(id); }

  /// Executes the next event. Returns false if the queue is empty.
  bool step();

  /// Runs events until simulated time would exceed `t`; the clock ends at
  /// `t`, or stays where it is when `t` is already past (it never rewinds).
  void run_until(TimeMs t);

  /// Runs until no events remain (repeating tasks run forever — prefer
  /// run_until for simulations with heartbeats).
  void run_all();

  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

 private:
  /// Queues the next repetition of a schedule_every task.
  void push_repeating(TaskId id, TimeMs interval, Callback fn);
  void push(TimeMs t, TaskId id, Callback fn);

  struct Scheduled {
    TimeMs time;
    std::uint64_t seq;  // FIFO tie-break for equal timestamps
    TaskId id;
    Callback fn;
  };
  struct Later {
    bool operator()(const Scheduled& a, const Scheduled& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };

  TimeMs now_ = 0;
  std::uint64_t seq_ = 0;
  TaskId next_id_ = 1;
  std::uint64_t executed_ = 0;
  /// Binary heap under Later (std::push_heap / std::pop_heap), so step()
  /// can move the earliest event out instead of copying its callback.
  std::vector<Scheduled> queue_;
  std::unordered_set<TaskId> cancelled_;
};

}  // namespace waku::net

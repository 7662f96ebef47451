#include "net/simulator.hpp"

#include <algorithm>

#include "common/expect.hpp"

namespace waku::net {

void Simulator::push(TimeMs t, TaskId id, Callback fn) {
  queue_.push_back(Scheduled{t, seq_++, id, std::move(fn)});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
}

Simulator::TaskId Simulator::schedule_at(TimeMs t, Callback fn) {
  WAKU_EXPECTS(t >= now_);
  const TaskId id = next_id_++;
  push(t, id, std::move(fn));
  return id;
}

Simulator::TaskId Simulator::schedule_every(TimeMs interval, Callback fn) {
  WAKU_EXPECTS(interval > 0);
  const TaskId id = next_id_++;
  push_repeating(id, interval, std::move(fn));
  return id;
}

void Simulator::push_repeating(TaskId id, TimeMs interval, Callback fn) {
  // Self-rescheduling wrapper; keeps the same public id so cancel() works
  // across repetitions. The callback is owned by the queue entry and moved
  // into the next repetition — no self-referencing shared state (a strong
  // self-capture would be a reference cycle that never frees).
  push(now_ + interval, id,
       [this, id, interval, fn = std::move(fn)]() mutable {
         if (cancelled_.contains(id)) {
           cancelled_.erase(id);
           return;
         }
         fn();
         push_repeating(id, interval, std::move(fn));
       });
}

bool Simulator::step() {
  while (!queue_.empty()) {
    std::pop_heap(queue_.begin(), queue_.end(), Later{});
    Scheduled ev = std::move(queue_.back());
    queue_.pop_back();
    if (cancelled_.contains(ev.id)) {
      cancelled_.erase(ev.id);
      continue;
    }
    WAKU_ASSERT(ev.time >= now_);
    now_ = ev.time;
    ++executed_;
    ev.fn();
    return true;
  }
  return false;
}

void Simulator::run_until(TimeMs t) {
  while (!queue_.empty() && queue_.front().time <= t) {
    step();
  }
  now_ = std::max(now_, t);
}

void Simulator::run_all() {
  while (step()) {
  }
}

}  // namespace waku::net

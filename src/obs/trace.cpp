#include "trace.hpp"

#include <algorithm>
#include <cinttypes>

#include "obs/json.hpp"

namespace waku::obs {

std::string Trace::to_json() const {
  JsonWriter w;
  w.obj().key("key").fmt("\"%016" PRIx64 "\"", key);
  w.key("start_ns").u64(start_ns).key("end_ns").u64(end_ns);
  w.key("duration_ns").u64(duration_ns()).key("outcome").str(outcome);
  w.key("events").arr();
  for (const auto& ev : events) {
    w.obj().key("at_ns").u64(ev.at_ns).key("stage").str(ev.stage);
    w.key("detail").str(ev.detail).end();
  }
  return std::move(w).take();
}

void TraceCollector::record(TraceKey key, std::uint64_t at_ns,
                            std::string stage, std::string detail) {
  if (!sampled(key)) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = open_.find(key);
  if (it == open_.end()) {
    // Opening a new trace; evict the oldest open one if at the cap so a
    // burst of never-finished messages cannot grow the map unboundedly.
    while (open_.size() >= config_.max_open && !open_order_.empty()) {
      const TraceKey victim = open_order_.front();
      open_order_.pop_front();
      auto vit = open_.find(victim);
      if (vit == open_.end()) continue;
      Trace t = std::move(vit->second);
      open_.erase(vit);
      ++stats_.truncated;
      close_locked(std::move(t), at_ns, "truncated");
    }
    Trace t;
    t.key = key;
    t.start_ns = at_ns;
    it = open_.emplace(key, std::move(t)).first;
    open_order_.push_back(key);
    ++stats_.sampled;
  }
  if (it->second.events.size() < config_.max_events_per_trace) {
    it->second.events.push_back(
        TraceEvent{at_ns, std::move(stage), std::move(detail)});
  }
}

void TraceCollector::finish(TraceKey key, std::uint64_t at_ns,
                            std::string outcome) {
  if (!sampled(key)) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = open_.find(key);
  if (it == open_.end()) return;
  Trace t = std::move(it->second);
  open_.erase(it);
  // Lazy removal from open_order_ (the deque may still hold the key;
  // stale entries are skipped during eviction).
  ++stats_.finished;
  close_locked(std::move(t), at_ns, std::move(outcome));
}

void TraceCollector::annotate(TraceKey key, std::uint64_t at_ns,
                              std::string stage, std::string detail) {
  if (!sampled(key)) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (const auto it = open_.find(key); it != open_.end()) {
    if (it->second.events.size() < config_.max_events_per_trace) {
      it->second.events.push_back(
          TraceEvent{at_ns, std::move(stage), std::move(detail)});
    }
    return;
  }
  // Newest completed entry wins: a key reused across ring generations
  // annotates the span it actually belongs to.
  for (auto it = completed_.rbegin(); it != completed_.rend(); ++it) {
    if (it->key != key) continue;
    if (it->events.size() < config_.max_events_per_trace) {
      it->events.push_back(
          TraceEvent{at_ns, std::move(stage), std::move(detail)});
    }
    return;
  }
}

void TraceCollector::close_locked(Trace trace, std::uint64_t at_ns,
                                  std::string outcome) {
  trace.end_ns = at_ns;
  trace.outcome = std::move(outcome);

  if (config_.slow_ring > 0) {
    // Insert into the sorted-worst-first slow ring if it qualifies.
    const std::uint64_t d = trace.duration_ns();
    if (slow_.size() < config_.slow_ring || d > slow_.back().duration_ns()) {
      auto pos = std::upper_bound(
          slow_.begin(), slow_.end(), d,
          [](std::uint64_t lhs, const Trace& rhs) {
            return lhs > rhs.duration_ns();
          });
      slow_.insert(pos, trace);
      if (slow_.size() > config_.slow_ring) slow_.pop_back();
    }
  }

  completed_.push_back(std::move(trace));
  while (completed_.size() > config_.completed_ring) {
    completed_.pop_front();
    ++stats_.evicted;
  }
}

TraceCollectorStats TraceCollector::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t TraceCollector::open_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return open_.size();
}

std::vector<Trace> TraceCollector::completed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {completed_.begin(), completed_.end()};
}

std::vector<Trace> TraceCollector::slowest() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slow_;
}

std::string TraceCollector::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonWriter w;
  w.obj().key("completed").arr();
  for (const auto& t : completed_) w.raw(t.to_json());
  w.end().key("slowest").arr();
  for (const auto& t : slow_) w.raw(t.to_json());
  w.end().key("stats").obj().key("sampled").u64(stats_.sampled);
  w.key("finished").u64(stats_.finished).key("evicted").u64(stats_.evicted);
  w.key("truncated").u64(stats_.truncated).key("open").u64(open_.size());
  return std::move(w).take();
}

}  // namespace waku::obs

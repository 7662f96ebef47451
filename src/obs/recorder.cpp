#include "obs/recorder.hpp"

#include "obs/json.hpp"

namespace waku::obs {

std::string FlightEvent::to_json() const {
  JsonWriter w;
  w.obj().key("at_ns").u64(at_ns).key("epoch").u64(epoch);
  w.key("kind").str(kind).key("detail").str(detail);
  return std::move(w).take();
}

void FlightRecorder::record(std::uint64_t at_ns, std::uint64_t epoch,
                            std::string kind, std::string detail) {
  const std::lock_guard<std::mutex> lock(mu_);
  ring_.push_back(FlightEvent{at_ns, epoch, std::move(kind),
                              std::move(detail)});
  ++recorded_;
  while (ring_.size() > config_.capacity) {
    ring_.pop_front();
    ++evicted_;
  }
}

std::vector<FlightEvent> FlightRecorder::events() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return {ring_.begin(), ring_.end()};
}

std::uint64_t FlightRecorder::recorded() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return recorded_;
}

std::uint64_t FlightRecorder::evicted() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return evicted_;
}

std::string FlightRecorder::postmortem_json(const std::string& reason) const {
  const std::lock_guard<std::mutex> lock(mu_);
  JsonWriter w;
  w.obj().key("reason").str(reason);
  w.key("recorded").u64(recorded_).key("evicted").u64(evicted_);
  w.key("events").arr();
  for (const FlightEvent& ev : ring_) w.raw(ev.to_json());
  return std::move(w).take();
}

}  // namespace waku::obs

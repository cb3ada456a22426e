#include "net/sim.hpp"

#include <algorithm>
#include <utility>

namespace edr::net {

void Simulator::schedule_at(SimTime when, Task task) {
  queue_.push_back({std::max(when, now_), next_seq_++, std::move(task)});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
  events_scheduled_metric_.add(1);
}

void Simulator::schedule_after(SimTime delay, Task task) {
  schedule_at(now_ + std::max(delay, 0.0), std::move(task));
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  // Task must be moved out before execution: the task may schedule new
  // events and reallocate the queue.
  std::pop_heap(queue_.begin(), queue_.end(), Later{});
  Event event = std::move(queue_.back());
  queue_.pop_back();
  now_ = event.time;
  ++executed_;
  events_executed_metric_.add(1);
  queue_depth_metric_.set(static_cast<double>(queue_.size()));
  sim_time_metric_.set(now_);
  event.task();
  return true;
}

std::size_t Simulator::run(std::size_t limit) {
  std::size_t count = 0;
  while (count < limit && step()) ++count;
  return count;
}

std::size_t Simulator::run_until(SimTime horizon) {
  std::size_t count = 0;
  while (!queue_.empty() && queue_.front().time <= horizon) {
    step();
    ++count;
  }
  now_ = std::max(now_, horizon);
  return count;
}

void Simulator::attach_telemetry(telemetry::Telemetry& telemetry) {
  auto& metrics = telemetry.metrics();
  events_executed_metric_ = metrics.counter("sim.events_executed");
  events_scheduled_metric_ = metrics.counter("sim.events_scheduled");
  queue_depth_metric_ = metrics.gauge("sim.queue_depth");
  sim_time_metric_ = metrics.gauge("sim.time_s");
  telemetry.tracer().set_clock([this] { return now_; });
}

}  // namespace edr::net

#include "net/sim.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace edr::net {

void Simulator::schedule_at(SimTime when, Task task) {
  if (std::isnan(when))
    throw std::invalid_argument("Simulator: NaN event time");
  heap_.push(
      {std::max(when, now_), next_seq_++, tasks_.insert(std::move(task))});
  events_scheduled_metric_.add(1);
}

void Simulator::schedule_after(SimTime delay, Task task) {
  schedule_at(now_ + std::max(delay, 0.0), std::move(task));
}

bool Simulator::step() {
  if (heap_.empty()) return false;
  const Key key = heap_.top();
  heap_.pop();
  Task task = tasks_.take(key.slot);
  now_ = key.time;
  ++executed_;
  events_executed_metric_.add(1);
  queue_depth_metric_.set(static_cast<double>(heap_.size()));
  sim_time_metric_.set(now_);
  task();
  return true;
}

std::size_t Simulator::run(std::size_t limit) {
  std::size_t count = 0;
  while (count < limit && step()) ++count;
  return count;
}

std::size_t Simulator::run_until(SimTime horizon) {
  std::size_t count = 0;
  while (!heap_.empty() && heap_.top().time <= horizon) {
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

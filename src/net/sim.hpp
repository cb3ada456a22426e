// Deterministic discrete-event simulator.
//
// This is the substrate that replaces the paper's physical SystemG cluster:
// everything time-dependent (message delivery, solver rounds, heartbeats,
// file transfers, power sampling) runs as events on this queue.  Ties are
// broken by insertion order, so a run is a pure function of its inputs and
// seeds — the property every reproduction test leans on.
//
// Storage: tasks sit in a Slab (net/slab.hpp), and the binary heap orders
// only trivially copyable {time, seq, slot} keys, so a sift moves 24 bytes,
// never a task.  A task is taken out of its slot, which frees the slot,
// before it runs: it may schedule more tasks and grow the slab.  Scheduling
// allocates nothing once the slab and heap have reached the run's peak
// depth (beyond what a task's own std::function needs).
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/units.hpp"
#include "net/slab.hpp"
#include "telemetry/telemetry.hpp"

namespace edr::net {

class Simulator {
 public:
  using Task = std::function<void()>;

  /// Current simulated time in seconds.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule `task` at absolute time `when` (clamped to now for past
  /// times — events cannot run in the past).  A NaN time has no place in
  /// the (time, seq) order: std::invalid_argument.
  void schedule_at(SimTime when, Task task);

  /// Schedule `task` after `delay` seconds.
  void schedule_after(SimTime delay, Task task);

  /// Run a single event; returns false when the queue is empty.
  bool step();

  /// Run until the queue drains or `limit` events have executed.
  /// Returns the number of events executed.
  std::size_t run(std::size_t limit = SIZE_MAX);

  /// Run events with time ≤ horizon; the clock is left at
  /// min(horizon, time of last executed event's successor).  Events beyond
  /// the horizon remain queued.
  std::size_t run_until(SimTime horizon);

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  /// Wire the event-loop metrics (events executed, queue depth, clock
  /// position) and the tracer clock into `telemetry`.  The caller must keep
  /// the context alive for the simulator's lifetime; the clock should be
  /// detached (set_clock(nullptr)) before the simulator dies.
  void attach_telemetry(telemetry::Telemetry& telemetry);

 private:
  /// Heap entry: when the task in tasks_[slot] runs; ties broken by seq
  /// (insertion order).
  struct Key {
    SimTime time;
    std::uint64_t seq;
    std::size_t slot;
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// Min-heap on (time, seq), one key per queued task.
  std::priority_queue<Key, std::vector<Key>, Later> heap_;
  Slab<Task> tasks_;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  // Sink handles until attach_telemetry (see telemetry/registry.hpp).
  telemetry::Counter events_executed_metric_;
  telemetry::Counter events_scheduled_metric_;
  telemetry::Gauge queue_depth_metric_;
  telemetry::Gauge sim_time_metric_;
};

}  // namespace edr::net

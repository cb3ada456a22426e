#include "net/sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"

namespace edr::net {
namespace {

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, ScheduleAfterIsRelative) {
  Simulator sim;
  double fired_at = -1.0;
  sim.schedule_at(5.0, [&] {
    sim.schedule_after(2.5, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(Simulator, PastTimesClampToNow) {
  Simulator sim;
  double fired_at = -1.0;
  sim.schedule_at(5.0, [&] {
    sim.schedule_at(1.0, [&] { fired_at = sim.now(); });  // in the past
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int chain = 0;
  std::function<void()> next = [&] {
    if (++chain < 100) sim.schedule_after(1.0, next);
  };
  sim.schedule_at(0.0, next);
  sim.run();
  EXPECT_EQ(chain, 100);
  EXPECT_DOUBLE_EQ(sim.now(), 99.0);
}

TEST(Simulator, RunUntilLeavesLaterEventsQueued) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(2.0, [&] { ++fired; });
  sim.schedule_at(10.0, [&] { ++fired; });
  const auto executed = sim.run_until(5.0);
  EXPECT_EQ(executed, 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunWithLimitStopsEarly) {
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 10; ++i) sim.schedule_at(i, [&] { ++fired; });
  EXPECT_EQ(sim.run(4), 4u);
  EXPECT_EQ(fired, 4);
}

TEST(Simulator, StepOnEmptyQueueReturnsFalse) {
  Simulator sim;
  EXPECT_FALSE(sim.step());
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.executed(), 0u);
}

/// Callable that counts how often it is copied (moves are free).
struct CopyCounter {
  int* copies;
  int* runs;
  CopyCounter(int* copies_in, int* runs_in)
      : copies(copies_in), runs(runs_in) {}
  CopyCounter(const CopyCounter& other)
      : copies(other.copies), runs(other.runs) {
    ++*copies;
  }
  CopyCounter(CopyCounter&&) noexcept = default;
  CopyCounter& operator=(const CopyCounter&) = delete;
  CopyCounter& operator=(CopyCounter&&) = delete;
  ~CopyCounter() = default;
  void operator()() const { ++*runs; }
};

TEST(Simulator, TasksRunWithoutBeingCopied) {
  Simulator sim;
  int copies = 0;
  int runs = 0;
  // Enough events, at mixed times, that the heap sifts tasks around on
  // both push and pop.
  for (int i = 0; i < 64; ++i)
    sim.schedule_at((i * 37) % 11, CopyCounter{&copies, &runs});
  sim.run();
  EXPECT_EQ(runs, 64);
  EXPECT_EQ(copies, 0);
}

TEST(Simulator, RejectsNanTimes) {
  Simulator sim;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  int fired = 0;
  EXPECT_THROW(sim.schedule_at(nan, [&] { ++fired; }), std::invalid_argument);
  EXPECT_THROW(sim.schedule_after(nan, [&] { ++fired; }),
               std::invalid_argument);
  EXPECT_TRUE(sim.empty());
  // A rejected time consumes no sequence number: ties still run in
  // insertion order.
  std::vector<int> order;
  sim.schedule_at(1.0, [&] { order.push_back(0); });
  EXPECT_THROW(sim.schedule_at(nan, [&] { ++fired; }), std::invalid_argument);
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  EXPECT_EQ(sim.pending(), 2u);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(fired, 0);
}

/// Drives a Simulator with a random schedule and checks every execution
/// against a reference queue sorted on (clamped time, insertion order).
class OrderModel {
 public:
  explicit OrderModel(std::uint64_t seed) : rng_(seed) {}

  void run() {
    const auto initial = rng_.uniform_int(0, 8);
    for (std::int64_t i = 0; i < initial; ++i) schedule(pick_time(), 2);
    for (int op = 0; op < 24; ++op) {
      switch (rng_.uniform_int(0, 3)) {
        case 0:
          schedule(pick_time(), 2);
          break;
        case 1: {
          const bool queued = !reference_.empty();
          EXPECT_EQ(sim_.step(), queued);
          break;
        }
        case 2: {
          const SimTime before = sim_.now();
          const SimTime horizon = pick_time();
          sim_.run_until(horizon);
          // Nothing at or before the horizon is left behind.
          for (const auto& entry : reference_) EXPECT_GT(entry.time, horizon);
          EXPECT_EQ(sim_.now(), std::max(before, horizon));
          break;
        }
        default:
          sim_.run(static_cast<std::size_t>(rng_.uniform_int(0, 4)));
          break;
      }
      EXPECT_EQ(sim_.pending(), reference_.size());
      EXPECT_EQ(sim_.empty(), reference_.empty());
    }
    sim_.run();
    EXPECT_TRUE(reference_.empty());
    EXPECT_EQ(sim_.executed(), scheduled_);
  }

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    std::uint64_t id;
  };

  /// Half-second grid around now, some of it in the past (clamped), so
  /// exact-time ties are common.
  SimTime pick_time() {
    return sim_.now() + 0.5 * static_cast<double>(rng_.uniform_int(-2, 6));
  }

  void schedule(SimTime when, int depth) {
    const std::uint64_t id = scheduled_++;
    reference_.push_back({std::max(when, sim_.now()), id, id});
    depth_.push_back(depth);
    // A 16-byte capture, which std::function stores inline (inside the
    // slab), read again after fire() has scheduled more tasks.
    sim_.schedule_at(when, [this, id] {
      fire(id);
      EXPECT_EQ(fired_.back(), id);
    });
  }

  void fire(std::uint64_t id) {
    const auto next = std::min_element(
        reference_.begin(), reference_.end(),
        [](const Entry& a, const Entry& b) {
          return a.time != b.time ? a.time < b.time : a.seq < b.seq;
        });
    ASSERT_NE(next, reference_.end());
    EXPECT_EQ(id, next->id);
    EXPECT_EQ(sim_.now(), next->time);
    reference_.erase(next);
    EXPECT_EQ(sim_.pending(), reference_.size());
    fired_.push_back(id);
    // Sometimes a burst big enough to grow the task slab while this task
    // is running.
    const int depth = depth_[id];
    const auto children =
        depth > 0 ? rng_.uniform_int(0, rng_.uniform_int(0, 7) == 0 ? 40 : 3)
                  : 0;
    for (std::int64_t i = 0; i < children; ++i)
      schedule(pick_time(), depth - 1);
  }

  Rng rng_;
  Simulator sim_;
  std::vector<Entry> reference_;
  std::vector<int> depth_;  // by id: how many generations may still spawn
  std::vector<std::uint64_t> fired_;
  std::uint64_t scheduled_ = 0;
};

TEST(Simulator, RandomSchedulesRunInTimeThenInsertionOrder) {
  // Ties, past times, run_until horizons that leave tasks queued, and
  // tasks that schedule bursts while running.
  for (std::uint64_t seed = 1; seed <= 10'000; ++seed) {
    OrderModel model(seed);
    model.run();
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "first failing seed: " << seed;
      return;
    }
  }
}

}  // namespace
}  // namespace edr::net

// Index-stable object pool for the simulator's hot paths.
//
// Values live in one vector; a freed index goes on a free list and the next
// insert reuses it (last freed first), so a steady stream of inserts and
// takes allocates nothing once the slab has reached its peak occupancy.
// Indices stay valid while the vector grows, which is what lets a small key
// or closure stand in for a value that a running callback may outlive.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace edr::net {

template <typename T>
class Slab {
 public:
  /// Store `value` and return its index.
  std::size_t insert(T value) {
    if (free_.empty()) {
      items_.push_back(std::move(value));
      return items_.size() - 1;
    }
    const std::size_t index = free_.back();
    free_.pop_back();
    items_[index] = std::move(value);
    return index;
  }

  /// Move the value at `index` out and free the index.  Callers take a
  /// value before acting on it: acting may insert and grow the slab.
  T take(std::size_t index) {
    T value = std::move(items_[index]);
    free_.push_back(index);
    return value;
  }

 private:
  std::vector<T> items_;  // a freed entry holds a moved-from value
  std::vector<std::size_t> free_;
};

}  // namespace edr::net

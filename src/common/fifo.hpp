// Fifo: a queue for per-endpoint buffers that are almost always empty.
//
// A stream's outbox (sends before the handshake), its inbox (arrivals
// before a handler is set) and a broker client's pre-handshake publishes
// each hold a few items for a moment and then nothing for the rest of the
// endpoint's life. libstdc++'s std::deque allocates a ~512-byte block and
// a 64-byte map as soon as it is constructed, so five of them made up
// over half of what a receiver cost (DESIGN.md "Endpoint footprint").
// Fifo is a vector plus a head index: it allocates nothing while empty,
// pop() is O(1), and the buffer is freed the moment the last item is
// popped. Items are moved out by value, so a consumer may push, pop or
// drain the same Fifo re-entrantly while it handles the item it got.
//
// A queue that fills and drains all run long is a Ring instead
// (common/ring.hpp), which keeps its buffer.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace gmmcs {

template <class T>
class Fifo {
 public:
  [[nodiscard]] bool empty() const { return head_ == items_.size(); }
  [[nodiscard]] std::size_t size() const { return items_.size() - head_; }

  void push(T item) {
    // Reclaim the popped prefix once it is half the buffer: each moved
    // item is paid for by a pop, so push stays amortized O(1).
    if (head_ != 0 && head_ * 2 >= items_.size()) {
      items_.erase(items_.begin(), items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    items_.push_back(std::move(item));
  }

  /// Removes and returns the front item. Precondition: !empty().
  T pop() {
    T item = std::move(items_[head_++]);
    if (empty()) {
      std::vector<T>().swap(items_);
      head_ = 0;
    }
    return item;
  }

 private:
  std::vector<T> items_;
  std::size_t head_ = 0;
};

}  // namespace gmmcs

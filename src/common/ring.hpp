// Ring: a FIFO for steady-state queues that fill and drain all run long.
//
// A host's NIC egress queue and a dispatch pool's job queue hold from a
// few to thousands of small records, refilled after nearly every pop.
// Ring keeps them in a power-of-two circular buffer that never shrinks:
// once warmed it allocates nothing, a push or pop touches one record, and
// the buffer is exactly as large as the longest the queue has been,
// rounded up to a power of two. (A vector plus a head index must move or
// trim its live tail to reuse its front, and grows to twice the live
// length before it can.)
//
// The other queue rule is Fifo's (common/fifo.hpp): a buffer that is
// almost always empty, held once per endpoint, frees its storage when it
// drains. A ring that kept its buffer would cost every endpoint; one that
// freed it would allocate per packet on a NIC that empties after nearly
// every packet.
//
// Items are plain records (trivially copyable): a popped slot holds
// nothing to release. front() and operator[] give them in place, so a
// consumer may update the front record and pop it later.
#pragma once

#include <cstddef>
#include <type_traits>
#include <vector>

namespace gmmcs {

template <class T>
class Ring {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Records the buffer holds without growing: 0 or a power of two.
  [[nodiscard]] std::size_t capacity() const { return buf_.size(); }

  /// The i-th record from the front. Precondition: i < size().
  [[nodiscard]] T& operator[](std::size_t i) { return buf_[(head_ + i) & mask()]; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return buf_[(head_ + i) & mask()]; }
  /// Precondition: !empty().
  [[nodiscard]] T& front() { return buf_[head_]; }
  [[nodiscard]] const T& front() const { return buf_[head_]; }

  void push_back(const T& item) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & mask()] = item;
    ++size_;
  }

  /// Drops the front record. Precondition: !empty().
  void pop_front() {
    head_ = (head_ + 1) & mask();
    --size_;
  }

  /// Drops every record; the buffer keeps its capacity.
  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  static constexpr std::size_t kFirstCapacity = 16;

  [[nodiscard]] std::size_t mask() const { return buf_.size() - 1; }

  /// Doubles the buffer, unwrapping the records to its start.
  void grow() {
    std::vector<T> bigger(buf_.empty() ? kFirstCapacity : 2 * buf_.size());
    for (std::size_t i = 0; i < size_; ++i) bigger[i] = (*this)[i];
    buf_.swap(bigger);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace gmmcs

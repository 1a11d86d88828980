// SlotPool: recycled storage whose slots never move.
//
// The simulator parks per-event state in slots and lets a loop event
// carry only the slot index: the EventLoop's callbacks, Network's
// in-flight datagrams and ServiceCenter's job callables. Each of them
// runs or delivers the parked object in place, and that code may
// schedule, send or submit more, which acquires more slots. So the
// storage grows in chunks that are never reallocated: a reference to a
// slot stays valid until the pool dies, however many slots are acquired
// meanwhile. The first chunk holds 16 slots and each further chunk is
// twice the size of the one before, so a pool that never holds more than
// a few objects stays small, and a deep one is a handful of allocations.
//
// A slot's object is constructed the first time the slot is handed out
// (so a chunk's untouched tail costs address space, not resident memory,
// just like a vector's spare capacity) and destroyed with the pool;
// release() only returns the index to a LIFO free list (the most
// recently freed slot is the cache-warm one). Callers reset what a slot
// holds before releasing it.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

namespace gmmcs::sim {

template <class T>
class SlotPool {
 public:
  SlotPool() = default;
  SlotPool(const SlotPool&) = delete;
  SlotPool& operator=(const SlotPool&) = delete;
  ~SlotPool() {
    for (std::uint32_t slot = 0; slot < used_; ++slot) std::destroy_at(&locate(slot));
    for (unsigned k = 0; k < chunk_count_; ++k) {
      std::allocator<T>{}.deallocate(chunks_[k], chunk_size(k));
    }
  }

  /// A free slot: the most recently released one, else a fresh one (which
  /// may allocate a new chunk).
  std::uint32_t acquire() {
    if (!free_.empty()) {
      const std::uint32_t slot = free_.back();
      free_.pop_back();
      return slot;
    }
    if (used_ == capacity_) grow();
    std::construct_at(&locate(used_));
    return used_++;
  }
  /// Returns `slot` to the free list; its object stays constructed.
  void release(std::uint32_t slot) { free_.push_back(slot); }

  T& operator[](std::uint32_t slot) { return locate(slot); }
  const T& operator[](std::uint32_t slot) const { return locate(slot); }

  /// Slots ever handed out: every index below this one is valid.
  [[nodiscard]] std::uint32_t size() const { return used_; }

 private:
  static constexpr unsigned kFirstBits = 4;  // the first chunk holds 16 slots

  static std::size_t chunk_size(unsigned k) { return std::size_t{1} << (kFirstBits + k); }

  // Chunk k holds 16 << k slots and starts at index 16 * (2^k - 1), so
  // slot s lives in the chunk named by the top bit of s + 16.
  T& locate(std::uint32_t slot) const {
    const std::uint64_t u = std::uint64_t{slot} + (std::uint64_t{1} << kFirstBits);
    const unsigned top = static_cast<unsigned>(std::bit_width(u)) - 1;
    return chunks_[top - kFirstBits][u - (std::uint64_t{1} << top)];
  }

  void grow() {
    const std::size_t size = chunk_size(chunk_count_);
    chunks_[chunk_count_++] = std::allocator<T>{}.allocate(size);
    capacity_ += static_cast<std::uint32_t>(size);
  }

  std::array<T*, 33 - kFirstBits> chunks_{};
  unsigned chunk_count_ = 0;
  std::uint32_t capacity_ = 0;
  std::uint32_t used_ = 0;
  std::vector<std::uint32_t> free_;
};

}  // namespace gmmcs::sim

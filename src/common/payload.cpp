#include "common/payload.hpp"

namespace gmmcs {

namespace {
// Process-wide sums over every simulation in the process. Atomic
// (relaxed: only the totals matter) so independent simulations may run on
// separate threads of one bench binary without racing on them.
std::atomic<std::uint64_t> g_payload_copies{0};
std::atomic<std::uint64_t> g_payload_bytes_copied{0};
}  // namespace

Payload Payload::copy_of(std::span<const std::uint8_t> data) {
  g_payload_copies.fetch_add(1, std::memory_order_relaxed);
  g_payload_bytes_copied.fetch_add(data.size(), std::memory_order_relaxed);
  return Payload(Bytes(data.begin(), data.end()));
}

Payload Payload::slice(std::size_t offset, std::size_t len) const {
  if (offset > size_) return {};
  if (len > size_ - offset) len = size_ - offset;
  return Payload(buf_, data_ + offset, len);
}

Bytes Payload::to_bytes() const {
  g_payload_copies.fetch_add(1, std::memory_order_relaxed);
  g_payload_bytes_copied.fetch_add(size_, std::memory_order_relaxed);
  return Bytes(data_, data_ + size_);
}

std::uint64_t payload_copy_count() {
  return g_payload_copies.load(std::memory_order_relaxed);
}

std::uint64_t payload_bytes_copied() {
  return g_payload_bytes_copied.load(std::memory_order_relaxed);
}

}  // namespace gmmcs

#include "common/payload.hpp"

#include <atomic>
#include <cstring>
#include <new>
#include <stdexcept>

namespace gmmcs {

namespace {
// Process-wide sums over every simulation in the process. Atomic
// (relaxed: only the totals matter) so independent simulations may run on
// separate threads of one bench binary without racing on them. A copy is
// the rare path; no handle copy or drop touches these.
std::atomic<std::uint64_t> g_payload_copies{0};
std::atomic<std::uint64_t> g_payload_bytes_copied{0};

void count_copy(std::size_t bytes) {
  g_payload_copies.fetch_add(1, std::memory_order_relaxed);
  g_payload_bytes_copied.fetch_add(bytes, std::memory_order_relaxed);
}
}  // namespace

struct Payload::AdoptedBlock : Block {
  explicit AdoptedBlock(Bytes&& adopted) : bytes(std::move(adopted)) { this->adopted = true; }
  Bytes bytes;
};

Payload::Payload(Bytes&& bytes) {
  auto* block = new AdoptedBlock(std::move(bytes));
  block_ = block;
  data_ = block->bytes.data();
  size_ = block->bytes.size();
}

Payload::Block* Payload::allocate(std::size_t size) {
  // Header, headroom byte, then the frame: one allocation.
  return ::new (::operator new(sizeof(Block) + 1 + size)) Block{};
}

void Payload::destroy(Block* block) noexcept {
  if (block->adopted) {
    delete static_cast<AdoptedBlock*>(block);
  } else {
    block->~Block();
    ::operator delete(block);
  }
}

Payload Payload::copy_of(std::span<const std::uint8_t> data) {
  count_copy(data.size());
  Block* block = allocate(data.size());
  if (!data.empty()) std::memcpy(block->body(), data.data(), data.size());
  return Payload(block, block->body(), data.size());
}

Payload Payload::slice(std::size_t offset, std::size_t len) const {
  if (offset > size_) return {};
  if (len > size_ - offset) len = size_ - offset;
  if (block_ != nullptr) ++block_->refs;
  return Payload(block_, data_ + offset, len);
}

Payload Payload::prepend(std::uint8_t byte) const {
  if (block_ != nullptr && !block_->adopted && data_ == block_->body() &&
      (!block_->head_filled || *block_->head() == byte)) {
    *block_->head() = byte;
    block_->head_filled = true;
    ++block_->refs;
    return Payload(block_, block_->head(), size_ + 1);
  }
  // No free headroom in front of this view: frame it into a fresh block.
  count_copy(size_);
  Block* block = allocate(size_ + 1);
  block->body()[0] = byte;
  if (size_ != 0) std::memcpy(block->body() + 1, data_, size_);
  return Payload(block, block->body(), size_ + 1);
}

Bytes Payload::to_bytes() const {
  count_copy(size_);
  return Bytes(data_, data_ + size_);
}

FrameWriter::FrameWriter(std::size_t size) : block_(Payload::allocate(size)), size_(size) {}

FrameWriter::~FrameWriter() {
  if (block_ != nullptr) Payload::destroy(block_);
}

void FrameWriter::overflow() {
  throw std::logic_error("FrameWriter: frame overflows its size");
}

void FrameWriter::raw(std::span<const std::uint8_t> data) {
  std::uint8_t* p = reserve(data.size());
  if (!data.empty()) std::memcpy(p, data.data(), data.size());
}

void FrameWriter::str(std::string_view s) {
  std::uint8_t* p = reserve(s.size());
  if (!s.empty()) std::memcpy(p, s.data(), s.size());
}

void FrameWriter::lstr(std::string_view s) {
  u16(static_cast<std::uint16_t>(s.size()));
  str(s);
}

Payload FrameWriter::take() {
  if (pos_ != size_) throw std::logic_error("FrameWriter: frame shorter than its size");
  Payload::Block* block = std::exchange(block_, nullptr);
  return Payload(block, block->body(), size_);
}

std::uint64_t payload_copy_count() {
  return g_payload_copies.load(std::memory_order_relaxed);
}

std::uint64_t payload_bytes_copied() {
  return g_payload_bytes_copied.load(std::memory_order_relaxed);
}

}  // namespace gmmcs

// Counting replacement of the global allocation functions. Counters are
// thread-local so the count costs no atomic and stays race-free; the
// simulation runs on the calling thread, which is the one that reads them.
#include <cstdlib>
#include <new>

#include "ledger.hpp"

namespace {
thread_local std::uint64_t t_allocs = 0;
thread_local std::uint64_t t_bytes = 0;

void* counted_alloc(std::size_t size) {
  ++t_allocs;
  t_bytes += size;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
}  // namespace

namespace perfbench {
AllocCount thread_allocs() { return {t_allocs, t_bytes}; }
}  // namespace perfbench

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

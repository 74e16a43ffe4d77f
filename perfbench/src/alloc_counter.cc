// Replaces the global allocation functions with counting ones, so the
// traced run can report heap allocations per replayed search. Kept in its
// own file: nothing here allocates through the standard containers.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "common.h"

namespace {
std::atomic<uint64_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mweaver::perfbench {

uint64_t HeapAllocations() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

}  // namespace mweaver::perfbench

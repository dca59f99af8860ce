// Heap-allocation probe for hem_bench: link-time replacement of the global
// operator new/delete, counting every allocation with one relaxed atomic
// increment. Allocations per invocation are the support layer's headline
// count. Kept in its own translation unit so the replaced operators are never
// inlined into their callers.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}

namespace concert::hem {
std::uint64_t heap_allocs() { return g_heap_allocs.load(std::memory_order_relaxed); }
}  // namespace concert::hem

void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

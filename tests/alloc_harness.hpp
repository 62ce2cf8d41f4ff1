// Counting global allocator for zero-allocation and footprint assertions.
//
// Including this header replaces the global operator new/delete with
// counting versions and provides CountAllocations() to measure a scoped
// block, and LiveHeapBytes() for the bytes operator new holds right now.
// Bytes are counted by malloc_usable_size at both ends, so they include the
// allocator's rounding (exact request sizes under AddressSanitizer, whose
// allocator rounds nothing) and need no size at delete. Replacement allocation functions must be defined exactly once per
// binary, so include this from exactly one translation unit of a test
// executable (each add_tdtcp_test target is a single .cpp, which makes
// that automatic).
//
// The counters are relaxed atomics: some tests in a binary that includes
// this header run experiments on a ParallelFor pool, and every thread's
// allocations funnel through these counters. CountAllocations itself is
// only meaningful around a single-threaded block.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <malloc.h>

namespace tdtcp::test {

inline std::atomic<std::uint64_t> g_news{0};
inline std::atomic<std::uint64_t> g_deletes{0};
inline std::atomic<std::uint64_t> g_new_bytes{0};
inline std::atomic<std::uint64_t> g_deleted_bytes{0};

// Heap bytes obtained through operator new and not yet deleted.
inline std::int64_t LiveHeapBytes() {
  return static_cast<std::int64_t>(
      g_new_bytes.load(std::memory_order_relaxed) -
      g_deleted_bytes.load(std::memory_order_relaxed));
}

struct AllocDelta {
  std::uint64_t news;
  std::uint64_t deletes;
  std::int64_t live_bytes;  // change in LiveHeapBytes()
};

template <typename F>
AllocDelta CountAllocations(F&& f) {
  const std::uint64_t n0 = g_news.load(std::memory_order_relaxed);
  const std::uint64_t d0 = g_deletes.load(std::memory_order_relaxed);
  const std::int64_t b0 = LiveHeapBytes();
  f();
  return AllocDelta{g_news.load(std::memory_order_relaxed) - n0,
                    g_deletes.load(std::memory_order_relaxed) - d0,
                    LiveHeapBytes() - b0};
}

inline void* CountNew(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  g_news.fetch_add(1, std::memory_order_relaxed);
  g_new_bytes.fetch_add(malloc_usable_size(p), std::memory_order_relaxed);
  return p;
}

inline void CountDelete(void* p) {
  if (p == nullptr) return;
  g_deletes.fetch_add(1, std::memory_order_relaxed);
  g_deleted_bytes.fetch_add(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}

}  // namespace tdtcp::test

// All forms funnel through malloc/free so the aligned overloads used by the
// event core's heap buffer are counted too. None may be inlined: GCC's
// -Wmismatched-new-delete treats an out-of-line call to the replaced
// operator new as the library's, so seeing one half of the pair inlined
// (malloc or free) next to the other as an opaque call reads as a mismatch
// although every path pairs malloc/aligned_alloc with free.
[[gnu::noinline]]
void* operator new(std::size_t n) {
  return tdtcp::test::CountNew(std::malloc(n ? n : 1));
}
[[gnu::noinline]]
void* operator new(std::size_t n, std::align_val_t al) {
  return tdtcp::test::CountNew(std::aligned_alloc(
      static_cast<std::size_t>(al),
      (n + static_cast<std::size_t>(al) - 1) &
          ~(static_cast<std::size_t>(al) - 1)));
}
[[gnu::noinline]]
void operator delete(void* p) noexcept { tdtcp::test::CountDelete(p); }
[[gnu::noinline]]
void operator delete(void* p, std::size_t) noexcept {
  tdtcp::test::CountDelete(p);
}
[[gnu::noinline]]
void operator delete(void* p, std::align_val_t) noexcept {
  tdtcp::test::CountDelete(p);
}
[[gnu::noinline]]
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  tdtcp::test::CountDelete(p);
}

#include "alloc_hook.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

// Counters are sharded per thread (64 cache-line-padded shards) so the
// traced run does not turn every allocation into a contended atomic.
constexpr int kShards = 64;

struct alignas(64) Shard {
  std::atomic<int64_t> calls{0};
  std::atomic<int64_t> bytes{0};
};

Shard g_shards[kShards];
std::atomic<bool> g_counting{false};
std::atomic<int> g_next_shard{0};

Shard& MyShard() {
  thread_local int index =
      g_next_shard.fetch_add(1, std::memory_order_relaxed) % kShards;
  return g_shards[index];
}

void Count(std::size_t n) {
  if (!g_counting.load(std::memory_order_relaxed)) return;
  Shard& s = MyShard();
  s.calls.fetch_add(1, std::memory_order_relaxed);
  s.bytes.fetch_add(static_cast<int64_t>(n), std::memory_order_relaxed);
}

void* Allocate(std::size_t n) {
  Count(n);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* AllocateAligned(std::size_t n, std::align_val_t align) {
  Count(n);
  std::size_t a = static_cast<std::size_t>(align);
  if (a < sizeof(void*)) a = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, a, n == 0 ? 1 : n) != 0) throw std::bad_alloc();
  return p;
}

void* AllocateNoThrow(std::size_t n) noexcept {
  Count(n);
  return std::malloc(n == 0 ? 1 : n);
}

}  // namespace

void SetAllocCounting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

AllocCounts ReadAllocCounts() {
  AllocCounts c;
  for (const Shard& s : g_shards) {
    c.calls += s.calls.load(std::memory_order_relaxed);
    c.bytes += s.bytes.load(std::memory_order_relaxed);
  }
  return c;
}

}  // namespace perfbench

void* operator new(std::size_t n) { return perfbench::Allocate(n); }
void* operator new[](std::size_t n) { return perfbench::Allocate(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return perfbench::AllocateAligned(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return perfbench::AllocateAligned(n, a);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return perfbench::AllocateNoThrow(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return perfbench::AllocateNoThrow(n);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

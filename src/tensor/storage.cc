#include "tensor/storage.h"

#include <cstdlib>
#include <vector>

#include "util/logging.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define BOOTLEG_POISON(p, n) ASAN_POISON_MEMORY_REGION((p), (n))
#define BOOTLEG_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION((p), (n))
#else
#define BOOTLEG_POISON(p, n) ((void)(p), (void)(n))
#define BOOTLEG_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace bootleg::tensor::storage {

namespace {

constexpr int kMinClassShift = 4;  // log2(kMinClassFloats)
constexpr int kNumClasses = 11;    // kMinClassFloats << 10 == kMaxClassFloats
static_assert(kMinClassFloats == int64_t{1} << kMinClassShift);
static_assert((kMinClassFloats << (kNumClasses - 1)) == kMaxClassFloats);

/// Smallest class whose blocks hold `numel` floats; numel <= kMaxClassFloats.
int ClassOf(int64_t numel) {
  if (numel <= kMinClassFloats) return 0;
  const int bits = 64 - __builtin_clzll(static_cast<uint64_t>(numel - 1));
  return bits - kMinClassShift;
}

size_t ClassBytes(int c) {
  return sizeof(float) * static_cast<size_t>(kMinClassFloats << c);
}

float* HeapAlloc(size_t bytes) {
  auto* p = static_cast<float*>(std::malloc(bytes));
  BOOTLEG_CHECK_MSG(p != nullptr, "tensor storage: out of memory");
  return p;
}

/// Trivially destructible, so it stays readable after the cache below is
/// destroyed: thread exit, and static destructors on the main thread.
thread_local bool t_cache_gone = false;

/// Parked blocks are listed outside the blocks themselves, so a parked block
/// stays poisoned whole and LeakSanitizer still sees the lists' pointers.
struct ThreadCache {
  std::vector<float*> parked[kNumClasses];
  int64_t bytes = 0;

  ThreadCache() = default;
  ThreadCache(const ThreadCache&) = delete;
  ThreadCache& operator=(const ThreadCache&) = delete;
  ~ThreadCache() {
    t_cache_gone = true;
    for (int c = 0; c < kNumClasses; ++c) {
      for (float* block : parked[c]) {
        BOOTLEG_UNPOISON(block, ClassBytes(c));
        std::free(block);
      }
    }
  }
};

thread_local ThreadCache t_cache;

}  // namespace

float* Allocate(int64_t numel) {
  if (numel <= 0) return nullptr;
  const auto bytes = sizeof(float) * static_cast<size_t>(numel);
  if (numel > kMaxClassFloats) return HeapAlloc(bytes);
  const int c = ClassOf(numel);
  float* block = nullptr;
  if (!t_cache_gone && !t_cache.parked[c].empty()) {
    block = t_cache.parked[c].back();
    t_cache.parked[c].pop_back();
    t_cache.bytes -= static_cast<int64_t>(ClassBytes(c));
  } else {
    // Always the full class size: the block may be parked and reused for
    // any request of its class, on whatever thread frees it.
    block = HeapAlloc(ClassBytes(c));
    BOOTLEG_POISON(block, ClassBytes(c));
  }
  BOOTLEG_UNPOISON(block, bytes);
  return block;
}

void Release(float* block, int64_t numel) {
  if (block == nullptr) return;
  if (numel > kMaxClassFloats) {
    std::free(block);
    return;
  }
  const int c = ClassOf(numel);
  const auto class_bytes = static_cast<int64_t>(ClassBytes(c));
  if (t_cache_gone || t_cache.bytes + class_bytes > kThreadCacheBytes) {
    BOOTLEG_UNPOISON(block, ClassBytes(c));
    std::free(block);
    return;
  }
  BOOTLEG_POISON(block, ClassBytes(c));
  t_cache.parked[c].push_back(block);
  t_cache.bytes += class_bytes;
}

int64_t ThreadCachedBytes() { return t_cache_gone ? 0 : t_cache.bytes; }

}  // namespace bootleg::tensor::storage

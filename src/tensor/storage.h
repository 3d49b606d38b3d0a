#ifndef BOOTLEG_TENSOR_STORAGE_H_
#define BOOTLEG_TENSOR_STORAGE_H_

#include <cstdint>

namespace bootleg::tensor::storage {

/// Float storage behind every Tensor. A training step builds and frees
/// hundreds of small tensors per sentence, so each thread keeps the blocks
/// it frees and hands them back out instead of going through malloc/free.
///
///   - Blocks of up to kMaxClassFloats floats come in power-of-two size
///     classes starting at kMinClassFloats; a request is rounded up to its
///     class, so any parked block of a class serves any request in it.
///   - A thread parks at most kThreadCacheBytes; a block freed past that cap
///     goes back to the heap. Parked memory is therefore bounded by the cap
///     times the number of threads that ever freed a tensor (plus the lists
///     of parked pointers: at most an eighth of that, for 64-byte blocks).
///   - Larger blocks (parameter tables, Adam moments, big inference
///     batches) are exact-size heap allocations and never parked.
///   - A block may be freed on any thread: it joins that thread's cache.
///   - A thread's cache is released at thread exit. A block freed after
///     that (a thread_local or static Tensor destroyed late) goes to the
///     heap.
///
/// Every block is a plain heap allocation, so sending one to the heap is
/// always valid. Under AddressSanitizer a parked block is poisoned, and a
/// handed-out block stays poisoned past its requested size, so a read
/// through a freed or overrun tensor still reports.
inline constexpr int64_t kMinClassFloats = 16;
inline constexpr int64_t kMaxClassFloats = int64_t{1} << 14;
inline constexpr int64_t kThreadCacheBytes = int64_t{2} << 20;

/// An uninitialized block for `numel` floats; nullptr when numel is 0.
float* Allocate(int64_t numel);

/// Returns `block`, which Allocate(numel) produced (on any thread).
void Release(float* block, int64_t numel);

/// Bytes parked in the calling thread's cache (0 once it is released).
int64_t ThreadCachedBytes();

}  // namespace bootleg::tensor::storage

#endif  // BOOTLEG_TENSOR_STORAGE_H_

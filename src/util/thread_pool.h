#ifndef BOOTLEG_UTIL_THREAD_POOL_H_
#define BOOTLEG_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace bootleg::util {

/// Persistent worker pool behind every parallel code path in the repo:
/// blocked matmul kernels, row-wise tensor ops, data-parallel training and
/// parallel evaluation all dispatch onto one shared pool.
///
/// Concurrency model:
///   - A pool with `num_threads` total parallelism owns `num_threads - 1`
///     background workers; the calling thread always participates, so
///     ThreadPool(1) spawns nothing and every primitive degrades to a plain
///     serial loop on the caller.
///   - Calls made from inside a pool task run inline (serial). Nested
///     parallelism never deadlocks and never oversubscribes: the data-parallel
///     trainer fans sentences out to workers while the tensor kernels those
///     workers invoke stay serial.
///   - ParallelFor partitions [begin, end) into contiguous chunks. Each index
///     is processed exactly once by exactly one thread, so any kernel whose
///     per-index computation is independent of the partition produces
///     bit-identical results at every thread count.
class ThreadPool {
 public:
  /// Spawns max(0, num_threads - 1) workers. num_threads < 1 is treated as 1.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism including the calling thread.
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs fn(lo, hi) over a partition of [begin, end) into contiguous chunks
  /// of at least `grain` indices (the final chunk may be smaller). Blocks
  /// until every chunk completes. Runs serially when the range is small, the
  /// pool has one thread, or the caller is itself a pool task.
  void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                   const std::function<void(int64_t, int64_t)>& fn);

  /// Runs fn(worker) for worker in [0, n). The caller executes worker 0 and
  /// helps drain the remaining tasks, so this works at any pool size. Used by
  /// the data-parallel trainer, where `worker` indexes gradient scopes and
  /// forked RNGs.
  ///
  /// Both blocking primitives end the same way: once the queue is empty the
  /// caller sleeps on the dispatch's completion condition variable until the
  /// last task finishes, so a caller that finishes early burns no CPU.
  void RunWorkers(int n, const std::function<void(int)>& fn);

  /// True on a thread currently executing a pool task (used to run nested
  /// parallel sections inline).
  static bool InWorker();

  /// True when ParallelFor(0, n, grain, ...) would actually fan out. Kernels
  /// check this first and run their loop directly otherwise, skipping the
  /// std::function conversion that a ParallelFor call requires — that
  /// allocation dominates small-tensor ops if paid on every call.
  bool WouldParallelize(int64_t n, int64_t grain) const {
    return num_threads() > 1 && n > (grain < 1 ? 1 : grain) && !InWorker();
  }

  /// Process-wide pool, created on first use with DefaultThreads() threads.
  /// Never destroyed before exit; tests may call Reset to resize it.
  static ThreadPool* Global();

  /// Replaces the global pool (e.g. to honor a --threads flag after
  /// startup). Not safe while parallel work is in flight.
  static void ResetGlobal(int num_threads);

  /// BOOTLEG_THREADS env var if set and positive, else
  /// std::thread::hardware_concurrency().
  static int DefaultThreads();

  /// BOOTLEG_THREADS env var if set and positive, else 0. Callers choose the
  /// fallback: the global pool falls back to hardware concurrency, while the
  /// trainer and evaluator fall back to 1 (serial) so default runs stay
  /// bit-identical to the pre-parallel code.
  static int EnvThreads();

 private:
  /// Completion state shared by one blocking dispatch.
  struct DispatchState;

  void WorkerLoop();
  /// The caller's share of a blocking dispatch after its own chunk: runs
  /// queued tasks until the queue is empty (progress with zero free
  /// workers), then sleeps until every task of `state` has finished.
  void Join(DispatchState* state);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
};

}  // namespace bootleg::util

#endif  // BOOTLEG_UTIL_THREAD_POOL_H_

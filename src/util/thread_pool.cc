#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>

#include "util/logging.h"

namespace bootleg::util {

namespace {

/// Set while the current thread is executing pool work (a queued task or the
/// caller's inline share of a dispatch). Nested parallel primitives check it
/// and run serially.
thread_local bool t_in_task = false;

struct InTaskScope {
  bool prev;
  InTaskScope() : prev(t_in_task) { t_in_task = true; }
  ~InTaskScope() { t_in_task = prev; }
};

}  // namespace

/// Completion state shared by one blocking dispatch.
struct ThreadPool::DispatchState {
  std::atomic<int> remaining;
  std::mutex mu;
  std::condition_variable done;

  explicit DispatchState(int n) : remaining(n) {}

  void Finish() {
    if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(mu);
      done.notify_all();
    }
  }
};

ThreadPool::ThreadPool(int num_threads) {
  const int spawn = num_threads > 1 ? num_threads - 1 : 0;
  workers_.reserve(static_cast<size_t>(spawn));
  for (int i = 0; i < spawn; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    InTaskScope scope;
    task();
  }
}

void ThreadPool::Join(DispatchState* state) {
  // Drain first: run whatever is queued (this dispatch's tasks or another
  // caller's) so the dispatch completes even when every worker is busy.
  for (;;) {
    std::function<void()> task;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (queue_.empty()) break;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    InTaskScope scope;
    task();
  }
  // The queue is empty, so every task of this dispatch is running or done on
  // some thread; sleep until the last one calls Finish. Finish decrements
  // outside `mu` but takes `mu` before notifying, so the decrement to zero
  // cannot fall between this predicate check and the wait.
  std::unique_lock<std::mutex> lock(state->mu);
  state->done.wait(lock, [state] {
    return state->remaining.load(std::memory_order_acquire) == 0;
  });
}

void ThreadPool::ParallelFor(int64_t begin, int64_t end, int64_t grain,
                             const std::function<void(int64_t, int64_t)>& fn) {
  if (end <= begin) return;
  const int64_t n = end - begin;
  if (grain < 1) grain = 1;
  const int p = num_threads();
  if (p == 1 || t_in_task || n <= grain) {
    fn(begin, end);
    return;
  }
  int64_t chunks = (n + grain - 1) / grain;
  if (chunks > p) chunks = p;
  const int64_t chunk = (n + chunks - 1) / chunks;

  auto state = std::make_shared<DispatchState>(static_cast<int>(chunks) - 1);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int64_t c = 1; c < chunks; ++c) {
      const int64_t lo = begin + c * chunk;
      const int64_t hi = std::min(end, lo + chunk);
      queue_.emplace_back([state, &fn, lo, hi] {
        fn(lo, hi);
        state->Finish();
      });
    }
  }
  // One wakeup per queued chunk: notify_all would also wake workers that
  // will find the queue empty and go straight back to sleep.
  for (int64_t c = 1; c < chunks; ++c) cv_.notify_one();

  {
    // The caller takes the first chunk, then helps drain the queue so the
    // dispatch completes even if every worker is busy elsewhere.
    InTaskScope scope;
    fn(begin, std::min(end, begin + chunk));
  }
  Join(state.get());
}

void ThreadPool::RunWorkers(int n, const std::function<void(int)>& fn) {
  if (n <= 0) return;
  if (n == 1 || t_in_task) {
    for (int i = 0; i < n; ++i) {
      InTaskScope scope;
      fn(i);
    }
    return;
  }
  auto state = std::make_shared<DispatchState>(n - 1);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int i = 1; i < n; ++i) {
      queue_.emplace_back([state, &fn, i] {
        fn(i);
        state->Finish();
      });
    }
  }
  for (int i = 1; i < n; ++i) cv_.notify_one();
  {
    InTaskScope scope;
    fn(0);
  }
  Join(state.get());
}

bool ThreadPool::InWorker() { return t_in_task; }

namespace {
std::mutex g_global_mu;
// Leaked intentionally: workers live to process exit. Atomic so the hot
// Global() read is lock-free — it runs on every kernel call.
std::atomic<ThreadPool*> g_global{nullptr};
}  // namespace

ThreadPool* ThreadPool::Global() {
  ThreadPool* pool = g_global.load(std::memory_order_acquire);
  if (pool != nullptr) return pool;
  std::lock_guard<std::mutex> lock(g_global_mu);
  pool = g_global.load(std::memory_order_relaxed);
  if (pool == nullptr) {
    pool = new ThreadPool(DefaultThreads());
    g_global.store(pool, std::memory_order_release);
  }
  return pool;
}

void ThreadPool::ResetGlobal(int num_threads) {
  std::lock_guard<std::mutex> lock(g_global_mu);
  ThreadPool* old = g_global.exchange(new ThreadPool(num_threads),
                                      std::memory_order_acq_rel);
  delete old;
}

int ThreadPool::DefaultThreads() {
  const int env = EnvThreads();
  if (env > 0) return env;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

int ThreadPool::EnvThreads() {
  if (const char* env = std::getenv("BOOTLEG_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
    BOOTLEG_LOG(Warning) << "ignoring invalid BOOTLEG_THREADS=" << env;
  }
  return 0;
}

}  // namespace bootleg::util

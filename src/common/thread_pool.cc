#include "src/common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <limits>
#include <memory>
#include <utility>

#include "src/common/logging.h"

namespace tdp {
namespace {

// Set while a thread is executing a ParallelFor shard; nested calls from
// inside a shard run inline instead of re-entering the pool.
thread_local bool in_parallel_region = false;

int EnvNumThreads() {
  const char* env = std::getenv("TDP_NUM_THREADS");
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != nullptr && *end == '\0' && v >= 1 && v <= 1024) {
      return static_cast<int>(v);
    }
    TDP_LOG(Warning) << "ignoring invalid TDP_NUM_THREADS='" << env << "'";
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

std::unique_ptr<ThreadPool>& GlobalSlot() {
  static std::unique_ptr<ThreadPool>* slot = new std::unique_ptr<ThreadPool>;
  return *slot;
}

std::mutex& GlobalMutex() {
  static std::mutex* mu = new std::mutex;
  return *mu;
}

// Lock-free fast path for Global(): nested kernel calls (e.g. BMM invoking
// the per-matrix matmul per batch item) would otherwise contend on
// GlobalMutex thousands of times per operator.
std::atomic<ThreadPool*> g_pool_cache{nullptr};

}  // namespace

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(num_threads, 1)) {
  workers_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int i = 0; i < num_threads_ - 1; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front().fn);
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(int64_t begin, int64_t end, int64_t grain,
                             const std::function<void(int64_t, int64_t)>& fn) {
  const int64_t n = end - begin;
  if (n <= 0) return;
  grain = std::max<int64_t>(grain, 1);

  const int64_t max_shards = (n + grain - 1) / grain;
  const int64_t want_shards =
      std::min<int64_t>({max_shards, num_threads_,
                         in_parallel_region ? int64_t{1}
                                            : std::numeric_limits<int64_t>::max()});
  if (want_shards <= 1) {
    fn(begin, end);
    return;
  }

  const int64_t chunk = (n + want_shards - 1) / want_shards;
  // Recompute from the rounded-up chunk so every shard is non-empty (with
  // want_shards=7 over 8 items, chunk=2 yields only 4 real shards).
  const int64_t shards = (n + chunk - 1) / chunk;
  struct SharedState {
    std::mutex mu;
    std::condition_variable done_cv;
    int64_t pending;
    std::exception_ptr first_error;
  };
  auto state = std::make_shared<SharedState>();
  state->pending = shards - 1;

  // RAII so the thread-local unwinds even when fn throws; a leaked flag
  // would silently serialize every later ParallelFor on this thread.
  struct RegionGuard {
    bool saved = in_parallel_region;
    RegionGuard() { in_parallel_region = true; }
    ~RegionGuard() { in_parallel_region = saved; }
  };
  auto run_shard = [&fn](int64_t b, int64_t e) {
    RegionGuard guard;
    fn(b, e);
  };

  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int64_t s = 1; s < shards; ++s) {
      const int64_t b = begin + s * chunk;
      const int64_t e = std::min(end, b + chunk);
      queue_.push_back(Task{state.get(), [state, run_shard, b, e] {
        try {
          run_shard(b, e);
        } catch (...) {
          std::lock_guard<std::mutex> slock(state->mu);
          if (!state->first_error) state->first_error = std::current_exception();
        }
        std::lock_guard<std::mutex> slock(state->mu);
        if (--state->pending == 0) state->done_cv.notify_one();
      }});
    }
  }
  cv_.notify_all();

  // The caller runs the first shard, then drains this call's remaining
  // queued shards while waiting — help-first scheduling that also makes
  // ParallelFor correct when workers are saturated. Only own shards are
  // taken: helping a foreign call would couple this call's latency to
  // arbitrarily expensive unrelated work.
  std::exception_ptr caller_error;
  try {
    run_shard(begin, std::min(end, begin + chunk));
  } catch (...) {
    caller_error = std::current_exception();
  }
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if (it->tag == state.get()) {
          task = std::move(it->fn);
          queue_.erase(it);
          break;
        }
      }
    }
    if (!task) break;
    task();
  }
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->done_cv.wait(lock, [&state] { return state->pending == 0; });
    if (caller_error) std::rethrow_exception(caller_error);
    if (state->first_error) std::rethrow_exception(state->first_error);
  }
}

ThreadPool& ThreadPool::Global() {
  ThreadPool* cached = g_pool_cache.load(std::memory_order_acquire);
  if (cached != nullptr) return *cached;
  std::lock_guard<std::mutex> lock(GlobalMutex());
  std::unique_ptr<ThreadPool>& pool = GlobalSlot();
  if (!pool) pool = std::make_unique<ThreadPool>(EnvNumThreads());
  g_pool_cache.store(pool.get(), std::memory_order_release);
  return *pool;
}

void ThreadPool::SetGlobalNumThreads(int num_threads) {
  std::lock_guard<std::mutex> lock(GlobalMutex());
  // Clear the cache before the old pool dies; concurrent ParallelFor during
  // a resize is documented as unsupported, this just keeps the window tidy.
  g_pool_cache.store(nullptr, std::memory_order_release);
  GlobalSlot() = std::make_unique<ThreadPool>(num_threads);
  g_pool_cache.store(GlobalSlot().get(), std::memory_order_release);
}

ScopedNumThreads::ScopedNumThreads(int num_threads)
    : saved_(ThreadPool::Global().num_threads()) {
  ThreadPool::SetGlobalNumThreads(num_threads);
}

ScopedNumThreads::~ScopedNumThreads() {
  ThreadPool::SetGlobalNumThreads(saved_);
}

void ParallelForOnPool(int64_t begin, int64_t end, int64_t grain,
                       const std::function<void(int64_t, int64_t)>& fn) {
  // Nested calls run inline anyway; skip the Global() lookup entirely so
  // per-item nested kernels (BMM's inner matmuls) stay contention-free.
  if (in_parallel_region) {
    if (end > begin) fn(begin, end);
    return;
  }
  ThreadPool::Global().ParallelFor(begin, end, grain, fn);
}

}  // namespace tdp

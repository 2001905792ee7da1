#ifndef TDP_COMMON_THREAD_POOL_H_
#define TDP_COMMON_THREAD_POOL_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include <condition_variable>

namespace tdp {

/// A fixed-size pool of worker threads used by the tensor kernels and the
/// query operators for morsel-style intra-operator parallelism.
///
/// Design notes:
///   - Static partitioning only: `ParallelFor` splits `[begin, end)` into at
///     most `num_threads()` contiguous shards and hands each shard to one
///     worker. There is no work stealing; kernels with uniform per-element
///     cost (elementwise loops, matmul rows, conv batches) are the targets.
///   - The calling thread executes the first shard itself, so a pool of size
///     N uses N OS threads total, not N+1, and a pool of size 1 never leaves
///     the calling thread (bit-for-bit identical to the serial code).
///   - Nested `ParallelFor` calls run inline on the calling worker. This
///     keeps arbitrary kernel composition deadlock-free (workers never block
///     waiting for other workers).
///   - Exceptions thrown by `fn` are captured and the first one is rethrown
///     on the calling thread after all shards finish.
///
/// Determinism: parallelizing over independent output elements never changes
/// results. Kernels that *reduce* floating-point values across the index
/// space must instead accumulate fixed-size blocks (independent of the
/// thread count) and combine the partials in block order — see `Sum` in
/// `src/tensor/ops_reduce.cc`. With that discipline, results are identical
/// for every value of `TDP_NUM_THREADS`.
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` total threads (minimum 1). A pool of
  /// size 1 spawns no workers.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total threads participating in a ParallelFor (workers + caller).
  int num_threads() const { return num_threads_; }

  /// Runs `fn(shard_begin, shard_end)` over a static partition of
  /// `[begin, end)`. Each shard spans at least `grain` indices (except
  /// possibly the last), so small ranges run inline on the caller with no
  /// synchronization. `fn` must be safe to invoke concurrently on disjoint
  /// shards. Blocks until every shard has finished.
  void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                   const std::function<void(int64_t, int64_t)>& fn);

  /// The process-wide pool used by the kernels. Sized on first use from the
  /// `TDP_NUM_THREADS` environment variable, defaulting to
  /// `std::thread::hardware_concurrency()`. Set `TDP_NUM_THREADS=1` for
  /// fully serial, deterministic-by-construction execution (the ctest
  /// harness does this).
  static ThreadPool& Global();

  /// Replaces the global pool with one of `num_threads` threads. Intended
  /// for benchmarks and tests that compare thread counts within a single
  /// process; not safe to call while another thread is inside ParallelFor.
  static void SetGlobalNumThreads(int num_threads);

 private:
  /// A queued shard, tagged with its originating ParallelFor call so the
  /// caller's help-loop can pick up its own shards without executing (and
  /// blocking on) work submitted by unrelated concurrent calls.
  struct Task {
    const void* tag;
    std::function<void()> fn;
  };

  void WorkerLoop();

  int num_threads_;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Task> queue_;
  bool stop_ = false;
};

/// RAII override of the global pool size for tests and benchmarks that
/// compare thread counts within one process. On destruction the pool is
/// rebuilt at its previous size, so overrides nest correctly and cannot
/// leak into unrelated code.
class ScopedNumThreads {
 public:
  explicit ScopedNumThreads(int num_threads);
  ~ScopedNumThreads();

  ScopedNumThreads(const ScopedNumThreads&) = delete;
  ScopedNumThreads& operator=(const ScopedNumThreads&) = delete;

 private:
  int saved_;
};

/// `ThreadPool::Global().ParallelFor(...)` behind the lock-free nested
/// check; `ParallelFor` below is the entry point.
void ParallelForOnPool(int64_t begin, int64_t end, int64_t grain,
                       const std::function<void(int64_t, int64_t)>& fn);

/// Convenience wrapper: `ThreadPool::Global().ParallelFor(...)`. A range of
/// at most one grain is one shard, which runs inline on the caller anyway;
/// it skips type-erasing `fn` into a std::function (a heap allocation for
/// most captures) — the fixed cost of every small kernel call.
template <typename F>
void ParallelFor(int64_t begin, int64_t end, int64_t grain, const F& fn) {
  if (end - begin <= std::max<int64_t>(grain, 1)) {
    if (end > begin) fn(begin, end);
    return;
  }
  ParallelForOnPool(begin, end, grain, fn);
}

/// Grain size such that each shard performs at least `min_shard_work` units
/// of work, given that one loop index costs `per_index_cost` units. Keeps
/// ParallelFor from splitting loops too small to amortize dispatch.
inline int64_t GrainForCost(int64_t per_index_cost,
                            int64_t min_shard_work = int64_t{1} << 15) {
  return std::max<int64_t>(
      1, min_shard_work / std::max<int64_t>(per_index_cost, 1));
}

/// Saturating product of non-negative cost factors: clamps to INT64_MAX
/// instead of wrapping. Cost estimates feed `GrainForCost`, where
/// adversarially large shapes (e.g. a [2^21 x 2^21] x [2^21 x 2^21]
/// matmul's m*k*n) would otherwise signed-overflow — UB — before the pool
/// ever shards the loop. Any clamped value already means "one index is
/// more than enough work per shard", so precision past the clamp is moot.
inline int64_t SaturatingCostProduct(int64_t a, int64_t b) {
  int64_t out = 0;
  if (__builtin_mul_overflow(a, b, &out)) {
    return std::numeric_limits<int64_t>::max();
  }
  return out;
}

inline int64_t SaturatingCostProduct(int64_t a, int64_t b, int64_t c) {
  return SaturatingCostProduct(SaturatingCostProduct(a, b), c);
}

}  // namespace tdp

#endif  // TDP_COMMON_THREAD_POOL_H_

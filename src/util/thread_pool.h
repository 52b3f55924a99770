// A small fixed-size thread pool for the corpus-wide experiments.
//
// The paper's evaluation sweeps ~100 topologies with several traffic-matrix
// instances each; every instance is an independent optimization, so the
// corpus is embarrassingly parallel. The pool keeps orchestration dumb on
// purpose: ParallelFor hands out indices through an atomic counter and the
// caller writes results into pre-sized, index-addressed slots, so the output
// is bitwise identical regardless of worker count or scheduling order.
//
// Worker count comes from the LDR_THREADS environment variable (capped at
// kMaxThreads; default: hardware concurrency), mirroring the
// LDR_BENCH_SCALE knob. Nested ParallelFor calls — e.g. per-topology
// parallelism inside a corpus-level sweep — run inline on the calling
// worker instead of deadlocking or oversubscribing.
#ifndef LDR_UTIL_THREAD_POOL_H_
#define LDR_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace ldr {

// Ceiling on an LDR_THREADS request. The value comes from outside the
// program and sizes both the shared pool's OS threads and the corpus
// runner's per-worker KSP caches, so a huge value must not turn into that
// many threads.
inline constexpr size_t kMaxThreads = 256;

// Worker count from LDR_THREADS clamped to [1, kMaxThreads], or hardware
// concurrency when unset/invalid (never 0).
size_t DefaultThreadCount();

class ThreadPool {
 public:
  // Spawns `threads` persistent workers (0 is clamped to 1).
  explicit ThreadPool(size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t thread_count() const { return threads_.size(); }

  // Runs fn(i) for every i in [0, n); blocks until all calls return.
  // Indices are claimed dynamically for load balance; determinism is the
  // caller's job (write to slot i, don't accumulate). Runs inline when the
  // pool has one worker or when invoked from inside a worker thread.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  // Same, but fn also receives a dense worker slot in [0, thread_count())
  // stable for the duration of the call — the hook for per-worker scratch
  // state (e.g. one KspCache per worker instead of one per item). The
  // inline/serial path always reports worker 0.
  void ParallelForWorker(size_t n,
                         const std::function<void(size_t, size_t)>& fn);

  // Enqueues a single task.
  void Submit(std::function<void()> task);

  // Blocks until the queue is drained and all workers are idle.
  void Wait();

  // True on a pool worker thread (any pool).
  static bool InWorker();

 private:
  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait for tasks
  std::condition_variable idle_cv_;   // Wait() waits for drain
  size_t active_ = 0;
  bool stop_ = false;
};

// ParallelFor on a process-wide pool sized by LDR_THREADS. The pool is
// (re)built when the requested size changes, so tests can toggle the env var
// between calls.
void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

// Worker-slot variant on the same process-wide pool; worker ids are dense in
// [0, DefaultThreadCount()).
void ParallelForWorker(size_t n, const std::function<void(size_t, size_t)>& fn);

}  // namespace ldr

#endif  // LDR_UTIL_THREAD_POOL_H_

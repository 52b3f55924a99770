#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>

namespace ldr {

namespace {

thread_local bool t_in_worker = false;

}  // namespace

size_t DefaultThreadCount() {
  const char* env = std::getenv("LDR_THREADS");
  if (env != nullptr) {
    long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return std::min(static_cast<size_t>(v), kMaxThreads);
  }
  size_t hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

ThreadPool::ThreadPool(size_t threads) {
  if (threads == 0) threads = 1;
  threads_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::WorkerLoop() {
  t_in_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
      ++active_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

bool ThreadPool::InWorker() { return t_in_worker; }

void ThreadPool::ParallelForWorker(
    size_t n, const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  if (n == 1 || thread_count() == 1 || InWorker()) {
    for (size_t i = 0; i < n; ++i) fn(0, i);
    return;
  }
  // One claiming task per worker; indices are handed out dynamically so a
  // slow item (one huge topology) doesn't stall a statically-chunked worker.
  auto next = std::make_shared<std::atomic<size_t>>(0);
  size_t workers = std::min(n, thread_count());
  for (size_t w = 0; w < workers; ++w) {
    Submit([next, n, w, &fn] {
      for (;;) {
        size_t i = next->fetch_add(1);
        if (i >= n) return;
        fn(w, i);
      }
    });
  }
  Wait();
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  ParallelForWorker(n, [&fn](size_t, size_t i) { fn(i); });
}

namespace {

// Handed out by value: a caller mid-ParallelFor keeps its pool alive even if
// another thread triggers a rebuild (LDR_THREADS changed between calls), so
// the rebuild can never tear a pool down under a concurrent caller. The
// replaced pool joins its workers when the last in-flight caller releases it.
std::shared_ptr<ThreadPool> SharedPool() {
  static std::mutex pool_mu;
  static std::shared_ptr<ThreadPool> pool;
  std::lock_guard<std::mutex> lock(pool_mu);
  size_t want = DefaultThreadCount();
  if (pool == nullptr || pool->thread_count() != want) {
    pool = std::make_shared<ThreadPool>(want);
  }
  return pool;
}

}  // namespace

void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n <= 1 || ThreadPool::InWorker()) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  SharedPool()->ParallelFor(n, fn);
}

void ParallelForWorker(size_t n,
                       const std::function<void(size_t, size_t)>& fn) {
  if (n <= 1 || ThreadPool::InWorker()) {
    for (size_t i = 0; i < n; ++i) fn(0, i);
    return;
  }
  SharedPool()->ParallelForWorker(n, fn);
}

}  // namespace ldr

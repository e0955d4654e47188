// Fixed-size worker pool: the project's single sanctioned owner of raw
// std::thread (tools/analyze enforces this). Deliberately work-stealing-free:
// one mutex-protected FIFO feeds every worker, which is plenty for the
// coarse-grained tasks the engine submits (whole queries, shard
// sub-searches) and keeps the termination reasoning trivial to audit. The
// queue discipline is machine-checked: every field below carries a
// CIRANK_GUARDED_BY annotation and the `tsa` preset fails to compile any
// access outside pool_mu_ (DESIGN.md §12). pool_mu_ is the lowest level of
// the declared lock hierarchy (engine → cache-shard → pool): no other
// project lock may be acquired while holding it.
#ifndef CIRANK_UTIL_THREAD_POOL_H_
#define CIRANK_UTIL_THREAD_POOL_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/annotations.h"
#include "util/mutex.h"

namespace cirank {

class ThreadPool {
 public:
  // Counters for the observability layer (DESIGN.md §11): queue pressure
  // and how long tasks sat waiting for a worker. Snapshot via stats().
  struct Stats {
    int64_t submitted = 0;          // tasks ever enqueued
    int64_t executed = 0;           // tasks finished
    size_t peak_queue_depth = 0;    // max tasks simultaneously waiting
    double total_wait_seconds = 0;  // sum of submit→dequeue delays
    double max_wait_seconds = 0;
  };

  // Spawns `num_threads` workers immediately; values < 1 are clamped to 1.
  explicit ThreadPool(int num_threads);

  // Drains nothing: pending tasks are still executed, then workers join.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  // Enqueues a task. Tasks must not throw (the project is exception-free)
  // and must not block waiting on a later-submitted task.
  void Submit(std::function<void()> task) CIRANK_EXCLUDES(pool_mu_);

  // Blocks until every submitted task has finished and no worker is busy.
  void WaitIdle() CIRANK_EXCLUDES(pool_mu_);

  // Runs fn(0) .. fn(n-1), distributing indices dynamically over the pool's
  // workers plus the calling thread. Blocks until every call returned.
  // Distinct indices may run concurrently; fn must be safe for that.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn)
      CIRANK_EXCLUDES(pool_mu_);

  // std::thread::hardware_concurrency with a floor of 1.
  static int HardwareThreads();

  // Aggregate queue/wait counters since construction.
  Stats stats() const CIRANK_EXCLUDES(pool_mu_);

  // Called with each task's submit→dequeue wait (seconds) just before the
  // task runs, from the worker thread, outside the pool lock. Install
  // before submitting work (typically right after construction; the setter
  // itself is not synchronized against in-flight Submit calls). The engine
  // points this at a latency histogram.
  void SetTaskWaitObserver(std::function<void(double)> observer)
      CIRANK_EXCLUDES(pool_mu_);

 private:
  struct QueuedTask {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued;
  };

  void WorkerMain() CIRANK_EXCLUDES(pool_mu_);

  mutable Mutex pool_mu_;
  CondVar work_cv_;  // workers: "a task or stop arrived"
  CondVar idle_cv_;  // WaitIdle: "a task finished"
  std::deque<QueuedTask> tasks_ CIRANK_GUARDED_BY(pool_mu_);
  std::vector<std::thread> workers_;  // written only by ctor/dtor
  size_t active_ CIRANK_GUARDED_BY(pool_mu_) = 0;  // tasks executing now
  bool stopping_ CIRANK_GUARDED_BY(pool_mu_) = false;
  Stats stats_ CIRANK_GUARDED_BY(pool_mu_);
  // Copied out under pool_mu_, invoked outside it (must not serialize).
  std::function<void(double)> wait_observer_ CIRANK_GUARDED_BY(pool_mu_);
};

}  // namespace cirank

#endif  // CIRANK_UTIL_THREAD_POOL_H_

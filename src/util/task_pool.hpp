#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace kspot::util {

/// A persistent fork-join worker pool for index-parallel jobs.
///
/// One pool serves any number of sequential ParallelFor calls; the worker
/// threads are spawned once and parked between jobs, so per-call overhead is
/// a notify + join barrier instead of thread creation. The trial fan-out of
/// runner::ExperimentEngine runs on this pool.
///
/// ParallelFor is a barrier: it returns only when every index has executed.
/// Indices are claimed from an atomic counter, so work is distributed
/// dynamically; callers needing deterministic *results* must make each
/// index's work independent of claim order (the engine's trials are).
class TaskPool {
 public:
  /// Creates a pool with `threads` workers; 0 = hardware concurrency.
  /// A pool of 1 runs every job inline on the calling thread.
  explicit TaskPool(size_t threads = 0);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Worker count (>= 1; the calling thread participates in every job).
  size_t thread_count() const { return worker_count_ + 1; }

  /// Runs `fn(i)` for every i in [0, count), distributing indices over the
  /// workers plus the calling thread, and returns when all have finished.
  /// Exceptions thrown by `fn` propagate to the caller (first one wins).
  void ParallelFor(size_t count, const std::function<void(size_t)>& fn);

 private:
  struct Job {
    const std::function<void(size_t)>* fn = nullptr;
    size_t count = 0;
    /// Wall-clock publish time (obs::NowMicros) when metrics were enabled at
    /// publish, 0 otherwise; workers read it (after the mutex handoff) to
    /// record their claim latency.
    uint64_t publish_us = 0;
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    std::exception_ptr error;
    std::mutex error_mu;
  };

  void WorkerLoop();
  void RunIndices(Job& job);

  std::vector<std::thread> workers_;
  size_t worker_count_ = 0;

  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  uint64_t generation_ = 0;
  std::shared_ptr<Job> job_;
  bool stop_ = false;
};

}  // namespace kspot::util

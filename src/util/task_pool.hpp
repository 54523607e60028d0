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

/// A persistent fork-join worker pool: every job runs index i on thread i.
///
/// One pool serves any number of sequential RunPerThread calls; the worker
/// threads are spawned once and wait between jobs, so per-call overhead is
/// a notify + join barrier instead of thread creation. An idle worker (and
/// a caller at the barrier) polls for up to two milliseconds before parking
/// on a condition variable, so a caller that fans out every few
/// milliseconds never pays a park/wake round trip. The coordinator's
/// concurrent epochs, split converge-casts and the bench harness's trial
/// fan-out run on this pool; a caller that wants dynamic distribution claims
/// its work items from its own counter inside the job.
///
/// RunPerThread is a barrier: it returns only when every index has executed.
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

  /// Runs `fn(i)` for every i in [0, count) with index i on thread i (0 is
  /// the calling thread), so whatever a thread keeps from call to call — its
  /// allocator arena, warm caches — stays with the index, and returns when
  /// all have finished. Requires count <= thread_count(). Exceptions thrown
  /// by `fn` propagate to the caller (first one wins).
  void RunPerThread(size_t count, const std::function<void(size_t)>& fn);

 private:
  struct Job {
    const std::function<void(size_t)>* fn = nullptr;
    size_t count = 0;
    /// Wall-clock publish time (obs::NowMicros) when metrics were enabled at
    /// publish, 0 otherwise; workers read it (after the mutex handoff) to
    /// record their claim latency.
    uint64_t publish_us = 0;
    std::atomic<size_t> done{0};
    std::exception_ptr error;
    std::mutex error_mu;
  };

  void WorkerLoop(size_t index);
  void RunIndex(Job& job, size_t i);
  void Publish(const std::shared_ptr<Job>& job);
  void Join(Job& job);

  std::vector<std::thread> workers_;
  size_t worker_count_ = 0;

  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  /// Written under mu_; atomic so idle workers can poll them without it.
  std::atomic<uint64_t> generation_{0};
  std::atomic<bool> stop_{false};
  std::shared_ptr<Job> job_;  ///< Guarded by mu_.
};

/// A pool that several callers may reach for at once: a caller that takes
/// `busy` without waiting (try_lock) fans out on `pool`, one that finds it
/// taken runs its work inline. The coordinator's concurrent epochs and split
/// converge-casts (sim::UpWave) share one.
struct SharedTaskPool {
  std::mutex busy;
  TaskPool pool;
};

}  // namespace kspot::util

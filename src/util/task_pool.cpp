#include "util/task_pool.hpp"

#include <exception>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace kspot::util {

namespace {

/// How long an idle thread polls before parking. Parking and waking cost a
/// futex round trip each, and on a virtual machine waking a thread whose
/// vCPU has halted takes a few hundred microseconds; measured on a shared
/// 4-vCPU container, a four-lane fan-out of 300 us jobs took 550 us after a
/// 2-ms gap and 930 us back to back with parking, 460 us and 335 us with
/// polling.
constexpr uint64_t kPollMicros = 2000;

/// Yields until `ready()` or kPollMicros pass; returns ready().
template <typename Ready>
bool PollFor(Ready ready) {
  const uint64_t start = obs::NowMicros();
  while (!ready()) {
    if (obs::NowMicros() - start >= kPollMicros) return false;
    std::this_thread::yield();
  }
  return true;
}

}  // namespace

TaskPool::TaskPool(size_t threads) {
  if (threads == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    threads = hw == 0 ? 1 : hw;
  }
  // The calling thread always participates, so N requested threads need
  // only N-1 parked workers.
  worker_count_ = threads - 1;
  workers_.reserve(worker_count_);
  for (size_t t = 0; t < worker_count_; ++t) {
    workers_.emplace_back([this, t] { WorkerLoop(t + 1); });
  }
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_.store(true, std::memory_order_release);
  }
  cv_work_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void TaskPool::RunIndex(Job& job, size_t i) {
  try {
    (*job.fn)(i);
  } catch (...) {
    std::lock_guard<std::mutex> lock(job.error_mu);
    if (!job.error) job.error = std::current_exception();
  }
  if (job.done.fetch_add(1, std::memory_order_acq_rel) + 1 == job.count) {
    // Last index: wake the caller waiting at the barrier.
    std::lock_guard<std::mutex> lock(mu_);
    cv_done_.notify_all();
  }
}

void TaskPool::WorkerLoop(size_t index) {
  uint64_t seen = 0;
  while (true) {
    // Each worker holds its own reference to the job, so a worker that wakes
    // after the caller already left the barrier (a job with fewer indices
    // than threads) still reads valid Job state when it checks out
    // empty-handed.
    std::shared_ptr<Job> job;
    // Parked time between jobs; wall-clock only, recorded outside the lock.
    const bool measure_idle = obs::MetricsOn();
    uint64_t wait_start = measure_idle ? obs::NowMicros() : 0;
    auto ready = [&] {
      return stop_.load(std::memory_order_acquire) ||
             generation_.load(std::memory_order_acquire) != seen;
    };
    PollFor(ready);
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, ready);
      if (stop_.load(std::memory_order_relaxed)) return;
      seen = generation_.load(std::memory_order_relaxed);
      job = job_;
    }
    if (measure_idle) {
      static obs::Histogram& idle_us = obs::Registry().histogram("taskpool.idle_us");
      idle_us.Observe(static_cast<double>(obs::NowMicros() - wait_start));
    }
    if (job != nullptr) {
      if (job->publish_us != 0) {
        // Publish-to-first-claim latency for this worker (only when metrics
        // were on when the caller published the job).
        static obs::Histogram& claim_us = obs::Registry().histogram("taskpool.claim_us");
        claim_us.Observe(static_cast<double>(obs::NowMicros() - job->publish_us));
      }
      if (index < job->count) RunIndex(*job, index);
    }
  }
}

void TaskPool::RunPerThread(size_t count, const std::function<void(size_t)>& fn) {
  if (count == 0) return;
  if (count > thread_count()) {
    throw std::invalid_argument("TaskPool::RunPerThread: more indices than threads");
  }
  if (count == 1) {
    fn(0);
    return;
  }
  auto job = std::make_shared<Job>();
  job->fn = &fn;
  job->count = count;
  Publish(job);
  RunIndex(*job, 0);
  Join(*job);
}

void TaskPool::Publish(const std::shared_ptr<Job>& job) {
  if (obs::MetricsOn()) {
    static obs::Counter& jobs = obs::Registry().counter("taskpool.jobs");
    jobs.Add(1);
    job->publish_us = obs::NowMicros();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = job;
    generation_.fetch_add(1, std::memory_order_release);
  }
  cv_work_.notify_all();
}

void TaskPool::Join(Job& job) {
  PollFor([&] { return job.done.load(std::memory_order_acquire) == job.count; });
  {
    // Workers may still be inside fn until the completion count reaches
    // count. `fn` itself is safe to release after that: a late worker's
    // index is past count, so it never dereferences the callback.
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [&] { return job.done.load(std::memory_order_acquire) == job.count; });
    job_ = nullptr;
  }
  if (job.error) std::rethrow_exception(job.error);
}

}  // namespace kspot::util

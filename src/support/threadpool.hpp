// A fixed-size thread pool with a single shared FIFO queue.
//
// Deliberately work-stealing-free: every job is coarse (a whole graph
// in core::analyzeBatch, one parameter valuation and all its platform
// variants in core::sweep, one request in the tpdfd server), so a
// mutex-guarded central queue is contention-free in practice and keeps
// completion order reasoning trivial.  Workers are
// spawned once at construction and joined at destruction; submit() after
// shutdown is a contract violation.
//
// Jobs are still encouraged to catch their own exceptions and record
// failures in their result slots (core::analyzeBatch does) — but an
// exception that *does* escape a job no longer vanishes: the pool
// captures the first one and rethrows it from the next wait(), so
// driver bugs surface instead of silently producing torn batches.
// Later escapes (after the first) are dropped; the destructor never
// throws and always joins.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace tpdf::support {

class ThreadPool {
 public:
  /// Spawns `threads` workers (at least one).
  explicit ThreadPool(std::size_t threads) {
    if (threads == 0) threads = 1;
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { workerLoop(); });
    }
  }

  ~ThreadPool() {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    wakeWorkers_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t threadCount() const { return workers_.size(); }

  /// Enqueues a job; it runs on some worker, FIFO relative to other
  /// submissions.
  void submit(std::function<void()> job) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_.push_back(std::move(job));
      ++pending_;
    }
    wakeWorkers_.notify_one();
  }

  /// Blocks until every submitted job has finished running (queue empty
  /// and no job in flight).  Jobs may keep submitting more work; wait()
  /// returns only once the whole transitive batch has drained.  If any
  /// job let an exception escape since the last wait(), the first such
  /// exception is rethrown here (and the stored error is cleared).
  void wait() {
    std::exception_ptr error;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      idle_.wait(lock, [this] { return pending_ == 0; });
      error = std::exchange(firstError_, nullptr);
    }
    if (error) std::rethrow_exception(error);
  }

 private:
  void workerLoop() {
    for (;;) {
      std::function<void()> job;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wakeWorkers_.wait(lock,
                          [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping_ and drained
        job = std::move(queue_.front());
        queue_.pop_front();
      }
      std::exception_ptr escaped;
      try {
        job();
      } catch (...) {
        escaped = std::current_exception();
      }
      {
        std::unique_lock<std::mutex> lock(mutex_);
        if (escaped && !firstError_) firstError_ = escaped;
        if (--pending_ == 0) idle_.notify_all();
      }
    }
  }

  std::mutex mutex_;
  std::condition_variable wakeWorkers_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  std::size_t pending_ = 0;
  bool stopping_ = false;
  std::exception_ptr firstError_;  // first job escape since last wait()
  std::vector<std::thread> workers_;
};

}  // namespace tpdf::support

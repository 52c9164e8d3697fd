#include "util/thread_pool.h"

#include <algorithm>
#include <exception>

#include "util/common.h"

namespace etlopt {

ThreadPool::ThreadPool(int num_threads) {
  const int n = std::max(1, num_threads);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      wake_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and queue drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    try {
      task();
    } catch (...) {
      // Submit() tasks have nowhere to report to; ParallelFor wraps its
      // tasks so nothing can reach this handler from there.
    }
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  wake_.notify_one();
}

Status ThreadPool::ParallelFor(int n, const std::function<Status(int)>& fn) {
  if (n <= 0) return Status::OK();
  // Barrier state shared by the n tasks; lives on this (blocked) frame.
  std::mutex done_mu;
  std::condition_variable done_cv;
  int remaining = n;
  int failed_index = n;  // lowest failing index wins, n = none
  Status failure;

  for (int i = 0; i < n; ++i) {
    Submit([&, i] {
      Status status;
      try {
        status = fn(i);
      } catch (const std::exception& e) {
        status = Status::Internal(std::string("task threw: ") + e.what());
      } catch (...) {
        status = Status::Internal("task threw a non-std exception");
      }
      std::lock_guard<std::mutex> lock(done_mu);
      if (!status.ok() && i < failed_index) {
        failed_index = i;
        failure = std::move(status);
      }
      if (--remaining == 0) done_cv.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(done_mu);
  done_cv.wait(lock, [&] { return remaining == 0; });
  return failed_index < n ? failure : Status::OK();
}

void ParallelForEach(ThreadPool* pool, int n,
                     const std::function<void(int)>& fn) {
  if (pool == nullptr || n < 2) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  const Status status = pool->ParallelFor(n, [&fn](int i) {
    fn(i);
    return Status::OK();
  });
  ETLOPT_CHECK_MSG(status.ok(), status.ToString());
}

}  // namespace etlopt

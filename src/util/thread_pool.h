#ifndef ETLOPT_UTIL_THREAD_POOL_H_
#define ETLOPT_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/status.h"

namespace etlopt {

// A fixed-size worker pool with a shared task queue — the execution substrate
// of the partitioned executor (engine/parallel/). Deliberately minimal: no
// futures, no work stealing, no dynamic sizing. Tasks are plain closures;
// structured fan-out goes through ParallelFor, which is the only shape the
// engine needs (run N partition chains, wait at the merge barrier, surface
// the first failure).
//
// Error contract: a task given to ParallelFor reports failure by returning a
// non-OK Status; a task that *throws* is caught at the worker boundary and
// converted to Status::Internal, so an exception in one partition can never
// tear down the process or deadlock the barrier. When several tasks fail,
// the failure of the lowest index wins — deterministic regardless of
// scheduling.
class ThreadPool {
 public:
  // Spawns `num_threads` workers (floored at 1). The pool is reusable: any
  // number of ParallelFor / Submit rounds may run over its lifetime.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  // Enqueues one fire-and-forget task. Exceptions are swallowed at the
  // worker boundary (use ParallelFor when failures must be observed).
  void Submit(std::function<void()> task);

  // Runs fn(0) .. fn(n-1) on the pool and blocks until all have finished.
  // Returns OK when every call returned OK; otherwise the non-OK Status of
  // the lowest failing index. Safe to call with n == 0 (returns OK without
  // touching the queue). Not re-entrant from inside a pool task.
  Status ParallelFor(int n, const std::function<Status(int)>& fn);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

// Runs fn(0) .. fn(n - 1) on `pool`, or on the calling thread when `pool`
// is null or there is a single index. For tasks that cannot fail: an
// exception escaping one is a bug, and checked.
void ParallelForEach(ThreadPool* pool, int n,
                     const std::function<void(int)>& fn);

}  // namespace etlopt

#endif  // ETLOPT_UTIL_THREAD_POOL_H_

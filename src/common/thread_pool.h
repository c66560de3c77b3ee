// A small work-stealing thread pool for replicated simulation runs.
//
// Each worker owns a deque: submitted tasks are distributed round-robin,
// a worker pops its own deque from the front and, when empty, steals from
// the back of a sibling's deque. Queues are mutex-guarded (simulation runs
// are milliseconds-to-seconds each, so queue overhead is negligible); the
// stealing only matters for load balance, not for throughput of the queue
// itself.
//
// Determinism contract: the pool schedules *which thread* runs a task, never
// *what* the task computes. Experiment runs draw all randomness from Rng
// streams forked from their own seed (see src/common/rng.h), share no
// mutable state, and write results into caller-preallocated slots indexed by
// task id — so any schedule produces bit-identical results and callers get
// outputs in submission order regardless of completion order.
#ifndef WSYNC_COMMON_THREAD_POOL_H_
#define WSYNC_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace wsync {

class ThreadPool {
 public:
  /// Spawns `workers` threads; `workers <= 0` means default_workers().
  explicit ThreadPool(int workers = 0);

  /// Finishes every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int worker_count() const { return static_cast<int>(queues_.size()); }

  /// Enqueues one task. Thread-safe; may be called from worker threads.
  /// Tasks must not throw: an exception escaping a task unwinds out of the
  /// worker thread and terminates the process. Use parallel_for for work
  /// that can throw — it catches per-task and rethrows on the caller.
  void submit(std::function<void()> task);

  /// Blocks until every task submitted so far has finished. Must be called
  /// from outside the pool: a worker calling it would wait on its own
  /// unfinished task and deadlock.
  void wait_idle();

  /// Hardware concurrency, at least 1.
  static int default_workers();

  /// Pool telemetry (MetricClass::kTiming only: counts depend on the thread
  /// schedule and busy_nanos on the wall clock, so none of this may feed a
  /// result). Cheap relaxed-atomic reads; exact after wait_idle().
  struct Stats {
    int64_t tasks_executed = 0;
    int64_t tasks_stolen = 0;  ///< tasks a worker took from a sibling's queue
    int64_t busy_nanos = 0;    ///< task wall time summed over workers
    int64_t peak_pending = 0;  ///< max simultaneous submitted-unfinished tasks
    int workers = 0;
  };
  Stats stats() const;

 private:
  struct Queue {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  /// Pops from own queue front, else steals from a sibling's back.
  bool try_pop(size_t self, std::function<void()>& task);
  /// Runs one popped task, accounting its wall time, then retires it from
  /// pending_ (waking wait_idle() on the last one).
  void run_task(std::function<void()>& task);
  void worker_loop(size_t index);

  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> threads_;

  // sleep_mutex_ serialises the empty-recheck in worker_loop against
  // submit()'s push+notify, closing the missed-wakeup window.
  std::mutex sleep_mutex_;
  std::condition_variable work_cv_;  ///< workers wait here for tasks
  std::condition_variable idle_cv_;  ///< wait_idle() waits here

  std::atomic<size_t> pending_{0};     ///< submitted, not yet finished
  std::atomic<size_t> next_queue_{0};  ///< round-robin submission cursor
  bool stop_ = false;                  ///< guarded by sleep_mutex_

  // Stats accumulators — relaxed: observational only, never synchronize.
  std::atomic<int64_t> tasks_executed_{0};
  std::atomic<int64_t> tasks_stolen_{0};
  std::atomic<int64_t> busy_nanos_{0};
  std::atomic<int64_t> peak_pending_{0};
};

/// Runs fn(0) .. fn(count - 1) on the pool and blocks until all complete.
/// The first exception thrown by any invocation is rethrown here (remaining
/// queued iterations are skipped once a failure is observed). Do not call
/// from inside a pool task — it blocks in wait_idle(), which a worker
/// thread must never do (see above); nest by flattening the work into one
/// batch instead, as run_streaming_sweep does.
void parallel_for(ThreadPool& pool, size_t count,
                  const std::function<void(size_t)>& fn);

}  // namespace wsync

#endif  // WSYNC_COMMON_THREAD_POOL_H_

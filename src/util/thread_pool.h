// Persistent worker pool for the parallel substrate of the library.
//
// The paper's §7 observes that uniS "can be fully parallelized as samples
// are obtained independently"; the same holds for bootstrap replicate
// evaluation and per-set bagged-KDE fits. All three fan-out sites share
// this pool instead of spawning (and joining) threads per call: workers are
// started lazily on the first submit, park on a condition variable between
// batches, and pull tasks off a shared queue.
//
// `ParallelFor` is the only submit form: it runs `fn(0) .. fn(n-1)`,
// blocks until every task finished (the calling thread participates in
// draining its own batch, so a busy pool never deadlocks a caller — and
// nested ParallelFor from inside a task is safe for the same reason), and
// returns the per-task `Status` aggregated deterministically: the error of
// the *lowest failing task index* wins, independent of scheduling. A
// failing task cancels tasks that have not been claimed yet; because tasks
// are claimed in index order, the lowest failing index is always executed,
// so the returned Status is reproducible.
//
// No exceptions anywhere (library policy): tasks report through Status.
// The pool is TSan-clean; disjoint output slots indexed by task id are the
// intended result-passing idiom.
//
// Telemetry is per-call and borrowed, matching the rest of the pipeline: a
// non-null `ThreadPoolObserver*` receives per-batch and per-task events
// with queue-wait vs run-time split out per task and utilization/imbalance
// aggregates per batch. The observer seam keeps util below obs in the
// layer DAG (A1): the pool knows nothing about metrics; obs provides
// `PoolMetricsObserver`, which forwards the events into a
// `MetricsRegistry` (and, when attached, the flight-recorder event
// journal) under the usual `thread_pool_*` names.

#ifndef VASTATS_UTIL_THREAD_POOL_H_
#define VASTATS_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/status.h"

namespace vastats {

// Timing of one task of a batch, measured by the pool.
struct TaskTiming {
  int task_index = 0;
  // Batch enqueue -> this task claimed. Tasks claimed by the caller's own
  // drain wait too: a deep queue delays them the same way.
  double queue_wait_seconds = 0.0;
  // Claim -> fn returned. 0 in OnTaskStart (the task has not run yet).
  double run_seconds = 0.0;
};

// Whole-batch aggregates, delivered once per ParallelFor on the caller.
struct BatchTiming {
  int num_tasks = 0;
  // Enqueue -> every task completed (wall clock on the calling thread).
  double elapsed_seconds = 0.0;
  double total_run_seconds = 0.0;  // sum over tasks of run_seconds
  double max_run_seconds = 0.0;    // slowest single task
  // Threads that could have run tasks: the workers plus the caller.
  int max_workers = 0;
};

// Telemetry seam for the pool. Callbacks fire on the thread that produced
// the event (OnTaskStart/OnTaskComplete run on the thread that claimed the
// task, OnBatchComplete on the ParallelFor caller), so observer
// implementations that shard state per thread keep their locality.
// Implementations must be thread-safe; no pool lock is held during any
// callback (but re-entering the pool from one is still a bad idea).
class ThreadPoolObserver {
 public:
  virtual ~ThreadPoolObserver() = default;

  // A ParallelFor batch of `num_tasks` tasks was enqueued; `queue_depth`
  // counts batches in the queue including this one.
  virtual void OnBatchQueued(int num_tasks, int queue_depth) = 0;

  // A task was claimed and is about to run. `timing.run_seconds` is 0.
  virtual void OnTaskStart(const TaskTiming& timing) { (void)timing; }

  // One task finished executing (successfully or not).
  virtual void OnTaskComplete(const TaskTiming& timing) = 0;

  // Every task of a batch completed (or was cancelled); fired on the
  // calling thread just before ParallelFor returns.
  virtual void OnBatchComplete(const BatchTiming& timing) { (void)timing; }
};

struct ThreadPoolOptions {
  // 0 means std::thread::hardware_concurrency() (at least 1).
  int num_threads = 0;
};

class ThreadPool {
 public:
  explicit ThreadPool(ThreadPoolOptions options = {});
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Number of worker threads this pool runs once started.
  int num_threads() const { return num_threads_; }

  // True once the workers have been spawned (first ParallelFor).
  bool started() const;

  // Runs fn(i) for every i in [0, num_tasks) across the workers plus the
  // calling thread and blocks until all tasks completed (or were cancelled
  // by an earlier failure). Returns OK when every task returned OK,
  // otherwise the Status of the lowest failing task index. num_tasks == 0
  // is a no-op; num_tasks < 0 is an error. Fails with FailedPrecondition
  // after Shutdown(). Safe to call from several threads at once and from
  // inside a running task.
  Status ParallelFor(int num_tasks, const std::function<Status(int)>& fn,
                     ThreadPoolObserver* observer = nullptr);

  // Drains in-flight batches, stops the workers, and joins them. Idempotent.
  // Subsequent ParallelFor calls fail.
  void Shutdown();

 private:
  struct Batch;

  void WorkerLoop();
  // Claims the next task of `batch` (queue mutex held); returns -1 when the
  // batch has no claimable tasks left, removing it from the queue.
  int ClaimLocked(Batch* batch);
  void RunTask(Batch* batch, int index, std::unique_lock<std::mutex>& lock);
  // Runs claimable tasks of `batch` until it is exhausted or cancelled.
  void DrainBatchLocked(Batch* batch, std::unique_lock<std::mutex>& lock);

  int num_threads_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;  // workers park here
  std::condition_variable done_cv_;  // ParallelFor callers park here
  std::deque<Batch*> queue_;
  std::vector<std::thread> workers_;
  bool started_ = false;
  bool shutdown_ = false;
};

// Process-wide default pool at hardware concurrency. Lazily constructed on
// first use and intentionally never destroyed (worker threads must not be
// joined from static destructors).
ThreadPool* DefaultThreadPool();

}  // namespace vastats

#endif  // VASTATS_UTIL_THREAD_POOL_H_

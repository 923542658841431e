#include "util/thread_pool.h"

#include <algorithm>
#include <utility>

#include "util/stopwatch.h"

namespace vastats {

// One ParallelFor call. Lives on the caller's stack: ParallelFor only
// returns after `completed == num_tasks` and the batch left the queue, so
// workers never touch a dead batch. All fields below `observer` are guarded
// by the owning pool's mutex_.
struct ThreadPool::Batch {
  int num_tasks = 0;
  const std::function<Status(int)>* fn = nullptr;
  ThreadPoolObserver* observer = nullptr;
  // Restarted at enqueue; task claims read it for their queue wait and the
  // caller reads it once more for the batch's wall-clock elapsed time.
  Stopwatch watch;

  int next_claim = 0;  // tasks are claimed strictly in index order
  int completed = 0;   // finished + cancelled-before-claim
  bool cancelled = false;
  bool queued = false;
  int error_index = -1;
  Status error;
  double total_run_seconds = 0.0;
  double max_run_seconds = 0.0;
};

ThreadPool::ThreadPool(ThreadPoolOptions options)
    : num_threads_(options.num_threads > 0
                       ? options.num_threads
                       : static_cast<int>(std::max(
                             1u, std::thread::hardware_concurrency()))) {}

ThreadPool::~ThreadPool() { Shutdown(); }

bool ThreadPool::started() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return started_;
}

int ThreadPool::ClaimLocked(Batch* batch) {
  if (batch->cancelled && batch->next_claim < batch->num_tasks) {
    // A task failed: everything not yet claimed is skipped. Tasks are
    // claimed in index order, so the lowest failing index has always been
    // claimed (and run) by the time anything gets skipped — the aggregated
    // error below is scheduling-independent.
    batch->completed += batch->num_tasks - batch->next_claim;
    batch->next_claim = batch->num_tasks;
    if (batch->completed == batch->num_tasks) done_cv_.notify_all();
  }
  if (batch->next_claim >= batch->num_tasks) {
    if (batch->queued) {
      queue_.erase(std::find(queue_.begin(), queue_.end(), batch));
      batch->queued = false;
    }
    return -1;
  }
  return batch->next_claim++;
}

void ThreadPool::RunTask(Batch* batch, int index,
                         std::unique_lock<std::mutex>& lock) {
  ThreadPoolObserver* observer = batch->observer;
  const std::function<Status(int)>& fn = *batch->fn;
  TaskTiming timing;
  timing.task_index = index;
  // The claim just happened (under the lock we still hold), so the batch
  // stopwatch currently reads this task's queue wait.
  timing.queue_wait_seconds = batch->watch.ElapsedSeconds();
  lock.unlock();
  if (observer != nullptr) observer->OnTaskStart(timing);
  Stopwatch watch;
  Status status = fn(index);
  timing.run_seconds = watch.ElapsedSeconds();
  if (observer != nullptr) observer->OnTaskComplete(timing);
  lock.lock();
  batch->total_run_seconds += timing.run_seconds;
  batch->max_run_seconds = std::max(batch->max_run_seconds, timing.run_seconds);
  ++batch->completed;
  if (!status.ok()) {
    batch->cancelled = true;
    if (batch->error_index < 0 || index < batch->error_index) {
      batch->error_index = index;
      batch->error = std::move(status);
    }
  }
  if (batch->completed == batch->num_tasks) done_cv_.notify_all();
}

void ThreadPool::DrainBatchLocked(Batch* batch,
                                  std::unique_lock<std::mutex>& lock) {
  for (;;) {
    const int index = ClaimLocked(batch);
    if (index < 0) return;
    RunTask(batch, index, lock);
  }
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [&] { return shutdown_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (shutdown_) return;  // queue drained before exiting
      continue;
    }
    Batch* batch = queue_.front();
    const int index = ClaimLocked(batch);
    if (index < 0) continue;
    RunTask(batch, index, lock);
  }
}

Status ThreadPool::ParallelFor(int num_tasks,
                               const std::function<Status(int)>& fn,
                               ThreadPoolObserver* observer) {
  if (num_tasks < 0) {
    return Status::InvalidArgument("ParallelFor requires num_tasks >= 0");
  }
  if (num_tasks == 0) return Status::Ok();

  Batch batch;
  batch.num_tasks = num_tasks;
  batch.fn = &fn;
  batch.observer = observer;

  std::unique_lock<std::mutex> lock(mutex_);
  if (shutdown_) {
    return Status::FailedPrecondition(
        "ThreadPool::ParallelFor called after Shutdown");
  }
  if (!started_) {
    // Lazy start: a pool that is never submitted to never spawns a thread.
    started_ = true;
    workers_.reserve(static_cast<size_t>(num_threads_));
    for (int t = 0; t < num_threads_; ++t) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }
  batch.queued = true;
  batch.watch.Restart();  // queue waits and batch elapsed count from here
  queue_.push_back(&batch);
  const int queue_depth = static_cast<int>(queue_.size());
  work_cv_.notify_all();
  if (observer != nullptr) {
    // Callbacks never run under the pool lock; the workers may already be
    // claiming tasks of this batch while the observer runs.
    lock.unlock();
    observer->OnBatchQueued(num_tasks, queue_depth);
    lock.lock();
  }

  // The caller drains its own batch alongside the workers, then waits for
  // stragglers still running claimed tasks.
  DrainBatchLocked(&batch, lock);
  done_cv_.wait(lock, [&] { return batch.completed == batch.num_tasks; });

  BatchTiming batch_timing;
  batch_timing.num_tasks = num_tasks;
  batch_timing.elapsed_seconds = batch.watch.ElapsedSeconds();
  batch_timing.total_run_seconds = batch.total_run_seconds;
  batch_timing.max_run_seconds = batch.max_run_seconds;
  batch_timing.max_workers = num_threads_ + 1;  // workers + this caller
  Status result = batch.error_index >= 0 ? std::move(batch.error)
                                         : Status::Ok();
  lock.unlock();
  if (observer != nullptr) observer->OnBatchComplete(batch_timing);
  return result;
}

void ThreadPool::Shutdown() {
  std::vector<std::thread> workers;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
    workers.swap(workers_);
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers) worker.join();
}

ThreadPool* DefaultThreadPool() {
  // Deliberately leaked: worker threads must not be joined from a static
  // destructor (they may hold the queue mutex while other statics die).
  static ThreadPool* const pool = new ThreadPool();
  return pool;
}

}  // namespace vastats

#include "util/thread_pool.h"

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace vastats {
namespace {

TEST(ThreadPoolTest, RunsAllTasksExactlyOnce) {
  ThreadPool pool(ThreadPoolOptions{.num_threads = 4});
  std::vector<std::atomic<int>> runs(100);
  const Status status = pool.ParallelFor(100, [&](int i) {
    runs[static_cast<size_t>(i)].fetch_add(1);
    return Status::Ok();
  });
  ASSERT_TRUE(status.ok());
  for (const std::atomic<int>& count : runs) EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, ZeroTasksIsANoOpAndNegativeIsAnError) {
  ThreadPool pool(ThreadPoolOptions{.num_threads = 2});
  EXPECT_TRUE(pool.ParallelFor(0, [](int) { return Status::Ok(); }).ok());
  // No submit happened, so the workers were never needed.
  EXPECT_FALSE(pool.started());
  const Status status = pool.ParallelFor(-1, [](int) { return Status::Ok(); });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(ThreadPoolTest, WorkersStartLazily) {
  ThreadPool pool(ThreadPoolOptions{.num_threads = 2});
  EXPECT_FALSE(pool.started());
  ASSERT_TRUE(pool.ParallelFor(4, [](int) { return Status::Ok(); }).ok());
  EXPECT_TRUE(pool.started());
  EXPECT_EQ(pool.num_threads(), 2);
}

TEST(ThreadPoolTest, SubmitAfterShutdownFails) {
  ThreadPool pool(ThreadPoolOptions{.num_threads = 2});
  ASSERT_TRUE(pool.ParallelFor(4, [](int) { return Status::Ok(); }).ok());
  pool.Shutdown();
  pool.Shutdown();  // idempotent
  const Status status = pool.ParallelFor(4, [](int) { return Status::Ok(); });
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(ThreadPoolTest, ReportsTheLowestFailingTaskIndex) {
  ThreadPool pool(ThreadPoolOptions{.num_threads = 4});
  // Tasks 3 and 7 fail; scheduling must not change which error wins.
  for (int repeat = 0; repeat < 50; ++repeat) {
    const Status status = pool.ParallelFor(16, [](int i) {
      if (i == 3 || i == 7) {
        return Status::Internal("task " + std::to_string(i));
      }
      return Status::Ok();
    });
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.message(), "task 3");
  }
}

TEST(ThreadPoolTest, FailureCancelsUnclaimedTasks) {
  ThreadPool pool(ThreadPoolOptions{.num_threads = 1});
  // Park the pool's only worker inside a task of another batch, so the
  // batch under test is drained by its caller alone and no task can be
  // claimed concurrently with the failing one.
  std::atomic<int> parked{0};
  std::atomic<bool> release{false};
  std::thread blocker([&] {
    const Status blocked = pool.ParallelFor(2, [&](int) {
      parked.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
      return Status::Ok();
    });
    EXPECT_TRUE(blocked.ok());
  });
  // Both tasks running means one is on the worker (the blocker thread runs
  // only one at a time).
  while (parked.load() < 2) std::this_thread::yield();

  std::atomic<int> ran{0};
  const Status status = pool.ParallelFor(1000, [&](int i) {
    ran.fetch_add(1);
    if (i == 0) return Status::Internal("first task failed");
    return Status::Ok();
  });
  release.store(true);
  blocker.join();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message(), "first task failed");
  // Task 0 failed before anything else was claimed, so none of the other
  // 999 tasks may start.
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPoolTest, ConcurrentParallelForCallsShareThePool) {
  ThreadPool pool(ThreadPoolOptions{.num_threads = 2});
  constexpr int kCallers = 4;
  constexpr int kTasks = 64;
  std::vector<std::atomic<int>> totals(kCallers);
  std::vector<Status> statuses(kCallers);
  {
    std::vector<std::thread> callers;
    callers.reserve(kCallers);
    for (int c = 0; c < kCallers; ++c) {
      callers.emplace_back([&, c] {
        statuses[static_cast<size_t>(c)] = pool.ParallelFor(kTasks, [&](int) {
          totals[static_cast<size_t>(c)].fetch_add(1);
          return Status::Ok();
        });
      });
    }
    for (std::thread& caller : callers) caller.join();
  }
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_TRUE(statuses[static_cast<size_t>(c)].ok());
    EXPECT_EQ(totals[static_cast<size_t>(c)].load(), kTasks);
  }
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // A size-1 pool whose single worker submits a nested batch: the batches
  // only complete because callers drain their own submissions.
  ThreadPool pool(ThreadPoolOptions{.num_threads = 1});
  std::atomic<int> inner_runs{0};
  const Status status = pool.ParallelFor(4, [&](int) {
    return pool.ParallelFor(4, [&](int) {
      inner_runs.fetch_add(1);
      return Status::Ok();
    });
  });
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(inner_runs.load(), 16);
}

TEST(ThreadPoolTest, RecordsTaskTelemetry) {
  ThreadPool pool(ThreadPoolOptions{.num_threads = 2});
  MetricsRegistry metrics;
  PoolMetricsObserver observer(&metrics);
  ASSERT_TRUE(
      pool.ParallelFor(8, [](int) { return Status::Ok(); }, &observer).ok());
  const MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.FindCounter("thread_pool_tasks_total")->value, 8u);
  const HistogramSample* latency =
      snapshot.FindHistogram("thread_pool_task_latency_seconds");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, 8u);
  ASSERT_NE(snapshot.FindGauge("thread_pool_queue_depth"), nullptr);
}

TEST(ThreadPoolTest, DefaultPoolIsAProcessWideSingleton) {
  ThreadPool* pool = DefaultThreadPool();
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool, DefaultThreadPool());
  EXPECT_GE(pool->num_threads(), 1);
  EXPECT_TRUE(pool->ParallelFor(4, [](int) { return Status::Ok(); }).ok());
}

}  // namespace
}  // namespace vastats

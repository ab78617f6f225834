// ThreadPool / TaskGroup tests: submission, work stealing, caller
// participation in Wait(), and nested fan-out (the shard-blocks-in-op
// pattern the morsel-parallel executor relies on).

#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace cubrick {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 100; ++i) {
    // relaxed: independent counter; TaskGroup::Wait orders the final read
    group.Run([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  group.Wait();
  EXPECT_EQ(ran.load(std::memory_order_relaxed), 100);
}

TEST(ThreadPoolTest, WaitIsIdempotentAndDestructorSafe) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  {
    TaskGroup group(&pool);
    // relaxed: single increment observed after Wait
    group.Run([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    group.Wait();
    group.Wait();  // second Wait must return immediately
  }  // destructor runs Wait() again
  EXPECT_EQ(ran.load(std::memory_order_relaxed), 1);
}

TEST(ThreadPoolTest, NestedFanOutDoesNotDeadlock) {
  // A task running on a pool worker opens its own TaskGroup on the same
  // pool — the morsel executor's shape when a shard thread fans out. Wait()
  // lends the blocked thread back to the pool, so this terminates even
  // when tasks outnumber workers.
  ThreadPool pool(2);
  std::atomic<int> leaf{0};
  TaskGroup outer(&pool);
  for (int i = 0; i < 4; ++i) {
    outer.Run([&pool, &leaf] {
      TaskGroup inner(&pool);
      for (int j = 0; j < 4; ++j) {
        // relaxed: independent counter; Wait orders the final read
        inner.Run([&leaf] { leaf.fetch_add(1, std::memory_order_relaxed); });
      }
      inner.Wait();
    });
  }
  outer.Wait();
  EXPECT_EQ(leaf.load(std::memory_order_relaxed), 16);
}

TEST(ThreadPoolTest, NestedFanOutOnTheOnlyWorker) {
  // The outer task occupies the pool's only worker, so nothing but the
  // inner waiter itself can run the inner closures: Wait must drain its own
  // group's queue on the calling thread.
  ThreadPool pool(1);
  std::atomic<int> leaf{0};
  TaskGroup outer(&pool);
  outer.Run([&pool, &leaf] {
    TaskGroup inner(&pool);
    for (int j = 0; j < 8; ++j) {
      // relaxed: independent counter; Wait orders the final read
      inner.Run([&leaf] { leaf.fetch_add(1, std::memory_order_relaxed); });
    }
    inner.Wait();
  });
  outer.Wait();
  EXPECT_EQ(leaf.load(std::memory_order_relaxed), 8);
}

TEST(ThreadPoolTest, WaiterFinishesAloneWhileWorkersBlockElsewhere) {
  // Every worker is parked inside another group's closures. The waiter
  // must still finish its own batch, and must not pick up the work of a
  // third group queued behind the blocked workers.
  ThreadPool pool(2);
  std::atomic<int> blocked{0};
  std::atomic<bool> release{false};
  TaskGroup blockers(&pool);
  for (int i = 0; i < 2; ++i) {
    blockers.Run([&blocked, &release] {
      // acq_rel/acquire: the handshake with the test thread below
      blocked.fetch_add(1, std::memory_order_acq_rel);
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    });
  }
  // acquire: pairs with the blockers' increments
  while (blocked.load(std::memory_order_acquire) < 2) {
    std::this_thread::yield();
  }

  std::atomic<bool> other_ran{false};
  TaskGroup other(&pool);
  // relaxed: read after other.Wait(), or by this thread's own closure
  other.Run([&other_ran] { other_ran.store(true, std::memory_order_relaxed); });

  const std::thread::id waiter = std::this_thread::get_id();
  std::atomic<int> ran_here{0};
  TaskGroup mine(&pool);
  for (int i = 0; i < 16; ++i) {
    mine.Run([&ran_here, waiter] {
      // relaxed: independent counter; Wait orders the final read
      if (std::this_thread::get_id() == waiter) {
        ran_here.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  mine.Wait();
  EXPECT_EQ(ran_here.load(std::memory_order_relaxed), 16);
  EXPECT_FALSE(other_ran.load(std::memory_order_relaxed));

  // release: lets the blockers return; their Wait orders the rest
  release.store(true, std::memory_order_release);
  blockers.Wait();
  other.Wait();
  EXPECT_TRUE(other_ran.load(std::memory_order_relaxed));
}

TEST(ThreadPoolTest, ManyGroupsInterleave) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  std::vector<std::unique_ptr<TaskGroup>> groups;
  for (int g = 0; g < 8; ++g) {
    groups.push_back(std::make_unique<TaskGroup>(&pool));
    for (int i = 0; i < 25; ++i) {
      // relaxed: independent counter; Wait orders the final read
      groups.back()->Run(
          [&total] { total.fetch_add(1, std::memory_order_relaxed); });
    }
  }
  for (auto& g : groups) g->Wait();
  EXPECT_EQ(total.load(std::memory_order_relaxed), 200);
}

TEST(ThreadPoolTest, GlobalPoolIsSingletonWithThreads) {
  ThreadPool& a = ThreadPool::Global();
  ThreadPool& b = ThreadPool::Global();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.num_threads(), 1u);
  std::atomic<int> ran{0};
  TaskGroup group(&a);
  // relaxed: single increment observed after Wait
  group.Run([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  group.Wait();
  EXPECT_EQ(ran.load(std::memory_order_relaxed), 1);
}

TEST(ThreadPoolTest, TasksRunOnWorkersWhenCallerSleeps) {
  // Without the caller draining, workers alone must finish the group —
  // guards against lost wakeups in Submit's notify path.
  ThreadPool pool(2);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> ran{0};
    TaskGroup group(&pool);
    for (int i = 0; i < 4; ++i) {
      // relaxed: independent counter; Wait orders the final read
      group.Run([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    group.Wait();
    ASSERT_EQ(ran.load(std::memory_order_relaxed), 4);
  }
}

}  // namespace
}  // namespace cubrick

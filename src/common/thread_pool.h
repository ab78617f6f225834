// Work-stealing thread pool: the shared execution substrate for
// morsel-parallel query scans (DESIGN.md §"Morsel-parallel execution") and,
// later, purge/ingest parallelization.
//
// Design:
//  * One task deque per worker, each guarded by its own Mutex. Submit()
//    places a task on the deque picked by a round-robin ticket; a worker
//    pops from the front of its own deque and steals from the *back* of a
//    sibling's, so an owner and a thief touch opposite ends and contend
//    only on the deque mutex, never on the same task.
//  * A single sleep mutex + condvar parks idle workers. The wake predicate
//    is a guarded count of queued tasks which Submit() increments *after*
//    publishing the task and while holding the sleep mutex, so a Submit()
//    racing with a worker going to sleep can never lose the wakeup.
//  * TaskGroup tracks one fan-out in a queue of its own. Each Run() posts
//    one pool task that claims the group's next unclaimed closure, and
//    Wait() first runs the group's unclaimed closures on the calling thread
//    and only then blocks. A waiter can always finish its batch alone, so a
//    scan fanned out from inside a shard operation makes progress even when
//    every pool worker is busy with other groups — no nested-fan-out
//    deadlock — and it never runs another group's work while its own batch
//    is pending.
//
// Instrumented per docs/OBSERVABILITY.md: pool.queue_depth (gauge),
// pool.tasks_total and pool.steals_total (counters).

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"

namespace cubrick {

namespace obs {
class Counter;
class Gauge;
}  // namespace obs

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(size_t num_threads);

  /// Drains nothing: queued tasks still run (workers finish the backlog
  /// before exiting), but the destructor blocks until they have.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Thread-safe; never blocks on task execution.
  void Submit(std::function<void()> task);

  size_t num_threads() const { return threads_.size(); }

  /// The process-wide pool, sized to the hardware concurrency. Created on
  /// first use and intentionally leaked so worker threads never race static
  /// destruction (same pattern as obs::MetricsRegistry::Global()).
  static ThreadPool& Global();

 private:
  struct Worker {
    Mutex mu;
    std::deque<std::function<void()>> tasks GUARDED_BY(mu);
  };

  void WorkerLoop(size_t index);
  /// Pops from `home`'s front, else steals from another deque's back.
  bool PopTask(size_t home, std::function<void()>* out);
  /// PopTask + bookkeeping + execution; false when nothing was queued.
  bool RunOneFrom(size_t home);

  std::vector<std::unique_ptr<Worker>> queues_;

  Mutex sleep_mu_;
  CondVar wake_cv_;
  /// Tasks submitted but not yet claimed; the workers' wake predicate.
  size_t queued_ GUARDED_BY(sleep_mu_) = 0;
  bool stop_ GUARDED_BY(sleep_mu_) = false;

  std::atomic<uint64_t> submit_ticket_{0};

  obs::Counter* tasks_total_;
  obs::Counter* steals_total_;
  obs::Gauge* queue_depth_;

  std::vector<std::thread> threads_;
};

/// Tracks one batch of tasks run on a pool; Wait() returns once all of them
/// have finished. The closures sit in the group's own queue: the pool task
/// each Run() posts claims whichever closure is next, and finds none (and
/// returns) when the waiter already ran them all. That queue is shared with
/// the posted tasks, so it outlives the group; the closures themselves all
/// finish before Wait() (also called by the destructor) returns.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool* pool);
  ~TaskGroup() { Wait(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Queues `fn` in this group and posts one pool task to claim it.
  void Run(std::function<void()> fn);

  /// Runs this group's unclaimed closures on the calling thread, then
  /// blocks until the ones pool workers claimed have finished too.
  void Wait();

 private:
  struct State {
    Mutex mu;
    CondVar done_cv;
    std::deque<std::function<void()>> unclaimed GUARDED_BY(mu);
    /// Closures queued or running; Wait's predicate.
    size_t pending GUARDED_BY(mu) = 0;
  };

  /// Claims and runs `state`'s next closure; false when none is unclaimed.
  static bool RunNext(State& state);

  ThreadPool* pool_;
  std::shared_ptr<State> state_;
};

}  // namespace cubrick

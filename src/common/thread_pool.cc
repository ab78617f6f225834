#include "common/thread_pool.h"

#include <utility>

#include "obs/metrics.h"

namespace cubrick {

ThreadPool::ThreadPool(size_t num_threads) {
  auto& reg = obs::MetricsRegistry::Global();
  tasks_total_ = reg.GetCounter("pool.tasks_total");
  steals_total_ = reg.GetCounter("pool.steals_total");
  queue_depth_ = reg.GetGauge("pool.queue_depth");
  const size_t n = num_threads == 0 ? 1 : num_threads;
  queues_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    queues_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(sleep_mu_);
    stop_ = true;
    wake_cv_.NotifyAll();
  }
  for (auto& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  // The ticket only spreads tasks across deques; any placement is correct
  // (work stealing rebalances), so no ordering is carried through it.
  // relaxed: round-robin placement hint; the task is published via the deque mutex
  const uint64_t t = submit_ticket_.fetch_add(1, std::memory_order_relaxed);
  Worker& worker = *queues_[t % queues_.size()];
  {
    MutexLock lock(worker.mu);
    worker.tasks.push_back(std::move(task));
  }
  tasks_total_->Add();
  // Publish-then-count: the task is already claimable, so a worker that
  // observes the incremented count always finds work (or someone else
  // already ran it).
  MutexLock lock(sleep_mu_);
  ++queued_;
  queue_depth_->Set(static_cast<int64_t>(queued_));
  wake_cv_.NotifyOne();
}

bool ThreadPool::PopTask(size_t home, std::function<void()>* out) {
  const size_t n = queues_.size();
  for (size_t i = 0; i < n; ++i) {
    const size_t q = (home + i) % n;
    Worker& worker = *queues_[q];
    MutexLock lock(worker.mu);
    if (worker.tasks.empty()) continue;
    if (i == 0) {
      *out = std::move(worker.tasks.front());
      worker.tasks.pop_front();
    } else {
      // Steal from the cold end of a sibling's deque.
      *out = std::move(worker.tasks.back());
      worker.tasks.pop_back();
      steals_total_->Add();
    }
    return true;
  }
  return false;
}

bool ThreadPool::RunOneFrom(size_t home) {
  std::function<void()> task;
  if (!PopTask(home, &task)) return false;
  {
    MutexLock lock(sleep_mu_);
    --queued_;
    queue_depth_->Set(static_cast<int64_t>(queued_));
  }
  task();
  return true;
}

void ThreadPool::WorkerLoop(size_t index) {
  while (true) {
    if (RunOneFrom(index)) continue;
    MutexLock lock(sleep_mu_);
    // queued_ can lag a concurrent claim by a moment (the claimer
    // decrements after popping), which at worst causes one extra loop —
    // never a missed task, because Submit increments under this mutex
    // after the task is claimable.
    while (queued_ == 0 && !stop_) {
      wake_cv_.Wait(lock);
    }
    if (stop_ && queued_ == 0) return;
  }
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = new ThreadPool(
      std::thread::hardware_concurrency() == 0
          ? 1
          : std::thread::hardware_concurrency());
  return *pool;
}

TaskGroup::TaskGroup(ThreadPool* pool)
    : pool_(pool), state_(std::make_shared<State>()) {}

bool TaskGroup::RunNext(State& state) {
  std::function<void()> fn;
  {
    MutexLock lock(state.mu);
    if (state.unclaimed.empty()) return false;
    fn = std::move(state.unclaimed.front());
    state.unclaimed.pop_front();
  }
  fn();
  MutexLock lock(state.mu);
  --state.pending;
  if (state.pending == 0) state.done_cv.NotifyAll();
  return true;
}

void TaskGroup::Run(std::function<void()> fn) {
  {
    MutexLock lock(state_->mu);
    state_->unclaimed.push_back(std::move(fn));
    ++state_->pending;
  }
  pool_->Submit([state = state_] { RunNext(*state); });
}

void TaskGroup::Wait() {
  // Caller participation, own group only: a waiter never picks up another
  // group's work (a loader waiting on its parse morsels must not run a
  // concurrent scan), and never needs to, since it can run its whole batch.
  while (RunNext(*state_)) {
  }
  MutexLock lock(state_->mu);
  while (state_->pending > 0) {
    state_->done_cv.Wait(lock);
  }
}

}  // namespace cubrick

#include "common/thread_pool.h"

#include <atomic>
#include <latch>
#include <utility>

#include "telemetry/trace.h"

namespace ids {

ThreadPool::ThreadPool(std::size_t threads) {
  auto& registry = telemetry::MetricsRegistry::global();
  queue_depth_ = registry.gauge("ids_threadpool_queue_depth");
  tasks_total_ = registry.counter("ids_threadpool_tasks_total");
  task_wait_seconds_ = registry.histogram(
      "ids_threadpool_task_wait_seconds", telemetry::latency_seconds_buckets());
  task_run_seconds_ = registry.histogram(
      "ids_threadpool_task_run_seconds", telemetry::latency_seconds_buckets());

  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run_task(Task task) {
  const std::uint64_t start = telemetry::wall_now_ns();
  task_wait_seconds_->observe(
      static_cast<double>(start - task.enqueued_ns) / 1e9);
  task.fn();
  task_run_seconds_->observe(
      static_cast<double>(telemetry::wall_now_ns() - start) / 1e9);
  tasks_total_->inc();
}

void ThreadPool::worker_loop() {
  for (;;) {
    Task task;
    {
      MutexLock lock(mutex_);
      cv_.wait(mutex_, [this]() IDS_REQUIRES(mutex_) {
        return stopping_ || !tasks_.empty();
      });
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
      queue_depth_->set(static_cast<double>(tasks_.size()));
    }
    run_task(std::move(task));
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (n == 1 || workers_.empty()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Atomic work-stealing counter: each participant grabs the next index.
  // All coordination state lives on this stack frame (no shared_ptr
  // control blocks per call); that is safe because the latch counts chunk
  // *completions* — every enqueued chunk, including stragglers that
  // dequeue after the work ran dry, finishes before we return, so no
  // chunk can outlive the frame it references.
  const std::size_t helpers = std::min(workers_.size(), n - 1);
  std::atomic<std::size_t> next{0};
  std::latch remaining(static_cast<std::ptrdiff_t>(helpers) + 1);

  auto run_chunk = [&next, &remaining, n, &fn] {
    for (;;) {
      std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      fn(i);
    }
    remaining.count_down();
  };

  const std::uint64_t enqueued = telemetry::wall_now_ns();
  {
    MutexLock lock(mutex_);
    for (std::size_t i = 0; i < helpers; ++i) {
      tasks_.push(Task{run_chunk, enqueued});
    }
    queue_depth_->set(static_cast<double>(tasks_.size()));
  }
  cv_.notify_all();

  run_task(Task{run_chunk, enqueued});  // caller participates

  remaining.wait();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;  // lint:allow-global: internally synchronized
  return pool;
}

}  // namespace ids

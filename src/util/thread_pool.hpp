#pragma once
// Fixed-size worker pool with a bounded task queue — the execution engine
// behind the serving layer (serve/server.hpp).
//
// Design: N std::threads drain one FIFO of std::function<void()> tasks. The
// queue is optionally bounded; when full, callers choose their backpressure
// at the call site: try_submit() rejects immediately (returns false) while
// submit() blocks until a slot frees. Shutdown drains: after
// drain_and_stop() no new task is accepted, every queued task still runs,
// and the workers are joined. Callers that need to abandon queued work take
// it back with stop_and_take_queued() and complete it themselves — the pool
// never drops a task it accepted, so a task's completion promise is always
// fulfilled exactly once.
//
// Threading contract: all public member functions are safe to call from any
// thread, including from inside a running task (except drain_and_stop,
// which would self-join).

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace wise {

class ThreadPool {
 public:
  /// Spawns `threads` workers (clamped to >= 1). `queue_capacity` bounds the
  /// number of tasks waiting to run (0 = unbounded); running tasks do not
  /// count against it.
  explicit ThreadPool(int threads, std::size_t queue_capacity = 0);

  /// Drains and joins (see drain_and_stop).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task` unless the queue is at capacity or the pool is
  /// stopping; returns whether the task was accepted.
  bool try_submit(std::function<void()> task);

  /// Enqueues `task`, blocking while the queue is at capacity. Returns
  /// false (without running the task) only when the pool is stopping.
  bool submit(std::function<void()> task);

  /// Stops accepting tasks, runs everything already queued, and joins the
  /// workers. Idempotent. Must not be called from a worker thread.
  void drain_and_stop();

  /// Stops accepting tasks and returns the queued ones instead of running
  /// them; tasks a worker already took still run. The caller owns the
  /// returned tasks. Follow with drain_and_stop() to join the workers.
  std::deque<std::function<void()>> stop_and_take_queued();

  /// Tasks queued but not yet picked up by a worker.
  std::size_t queue_depth() const;

  int thread_count() const { return static_cast<int>(workers_.size()); }
  std::size_t queue_capacity() const { return capacity_; }

 private:
  void worker_loop();

  const std::size_t capacity_;  ///< 0 = unbounded
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  /// Workers parked in not_empty_.wait(); maintained under mutex_. Lets
  /// submitters skip the notify syscall entirely while every worker is
  /// busy — the common state under load, where a notify would only burn a
  /// futex wake on threads that will find the queue themselves.
  int idle_workers_ = 0;
  std::vector<std::thread> workers_;
};

}  // namespace wise

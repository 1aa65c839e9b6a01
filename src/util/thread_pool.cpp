#include "util/thread_pool.hpp"

#include <algorithm>
#include <utility>

namespace wise {

ThreadPool::ThreadPool(int threads, std::size_t queue_capacity)
    : capacity_(queue_capacity) {
  threads = std::max(1, threads);
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { drain_and_stop(); }

bool ThreadPool::try_submit(std::function<void()> task) {
  bool wake;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return false;
    if (capacity_ > 0 && queue_.size() >= capacity_) return false;
    queue_.push_back(std::move(task));
    wake = idle_workers_ > 0;
  }
  if (wake) not_empty_.notify_one();
  return true;
}

bool ThreadPool::submit(std::function<void()> task) {
  bool wake;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    not_full_.wait(lock, [this] {
      return stopping_ || capacity_ == 0 || queue_.size() < capacity_;
    });
    if (stopping_) return false;
    queue_.push_back(std::move(task));
    wake = idle_workers_ > 0;
  }
  if (wake) not_empty_.notify_one();
  return true;
}

void ThreadPool::drain_and_stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_ && workers_.empty()) return;
    stopping_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
}

std::deque<std::function<void()>> ThreadPool::stop_and_take_queued() {
  std::deque<std::function<void()>> taken;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    taken.swap(queue_);
  }
  not_empty_.notify_all();
  not_full_.notify_all();
  return taken;
}

std::size_t ThreadPool::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      // The idle counter brackets only the actual wait: a worker that finds
      // work on re-lock never counts as idle, so submitters see idle > 0
      // exactly when a notify can shorten someone's sleep.
      if (!stopping_ && queue_.empty()) {
        ++idle_workers_;
        not_empty_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        --idle_workers_;
      }
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    not_full_.notify_one();
    task();
  }
}

}  // namespace wise

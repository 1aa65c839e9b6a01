// Tests for the serving layer's execution substrate: the bounded worker
// pool (util/thread_pool.hpp) and the cost-budgeted LRU map (util/lru.hpp).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "util/lru.hpp"
#include "util/thread_pool.hpp"

namespace wise {
namespace {

// ------------------------------------------------------------ ThreadPool ----

TEST(ThreadPool, RunsEverySubmittedTask) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(pool.submit([&count] { ++count; }));
    }
  }  // destructor drains
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, TrySubmitRejectsWhenQueueFull) {
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::promise<void> started;
  ThreadPool pool(1, 2);
  // Park the single worker, then fill the 2-slot queue.
  ASSERT_TRUE(pool.try_submit([gate, &started] {
    started.set_value();
    gate.wait();
  }));
  started.get_future().wait();  // the worker now holds the parked task
  EXPECT_TRUE(pool.try_submit([gate] { gate.wait(); }));
  EXPECT_TRUE(pool.try_submit([gate] { gate.wait(); }));
  EXPECT_FALSE(pool.try_submit([] {}));  // queue is at capacity
  release.set_value();
  pool.drain_and_stop();
}

TEST(ThreadPool, BlockingSubmitWaitsForASlot) {
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::promise<void> started;
  ThreadPool pool(1, 1);
  std::atomic<int> done{0};
  ASSERT_TRUE(pool.submit([gate, &started, &done] {
    started.set_value();
    gate.wait();
    ++done;
  }));
  started.get_future().wait();  // worker parked; the queue is empty
  ASSERT_TRUE(pool.submit([&done] { ++done; }));  // fills the queue
  // This submit must block until the gate opens; run it from a helper.
  std::thread submitter([&] {
    EXPECT_TRUE(pool.submit([&done] { ++done; }));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(done.load(), 0);  // everything is still parked
  release.set_value();
  submitter.join();
  pool.drain_and_stop();
  EXPECT_EQ(done.load(), 3);
}

TEST(ThreadPool, DrainRunsQueuedTasksThenRejectsNew) {
  std::atomic<int> count{0};
  ThreadPool pool(2);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(pool.submit([&count] { ++count; }));
  }
  pool.drain_and_stop();
  EXPECT_EQ(count.load(), 50);
  EXPECT_FALSE(pool.submit([&count] { ++count; }));
  EXPECT_FALSE(pool.try_submit([&count] { ++count; }));
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, StopAndTakeQueuedHandsBackOnlyTheQueuedTasks) {
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::promise<void> started;
  ThreadPool pool(1);
  std::atomic<int> ran{0};
  ASSERT_TRUE(pool.submit([gate, &started, &ran] {
    started.set_value();
    gate.wait();
    ++ran;
  }));
  started.get_future().wait();  // the worker holds the first task
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(pool.submit([&ran] { ran += 10; }));
  }
  std::deque<std::function<void()>> taken = pool.stop_and_take_queued();
  EXPECT_EQ(taken.size(), 3u);
  EXPECT_EQ(pool.queue_depth(), 0u);
  EXPECT_FALSE(pool.submit([&ran] { ran += 100; }));
  EXPECT_FALSE(pool.try_submit([&ran] { ran += 100; }));
  release.set_value();
  pool.drain_and_stop();
  EXPECT_EQ(ran.load(), 1) << "only the task a worker already held runs";
  for (auto& task : taken) task();
  EXPECT_EQ(ran.load(), 31);
}

TEST(ThreadPool, ClampsThreadCountToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1);
  std::atomic<bool> ran{false};
  ASSERT_TRUE(pool.submit([&ran] { ran = true; }));
  pool.drain_and_stop();
  EXPECT_TRUE(ran.load());
}

// ---------------------------------------------------------------- LruMap ----

TEST(LruMap, GetTouchesRecency) {
  LruMap<int, std::string> lru(3);
  lru.put(1, "a", 1);
  lru.put(2, "b", 1);
  lru.put(3, "c", 1);
  ASSERT_NE(lru.get(1), nullptr);  // 1 becomes most recent
  lru.put(4, "d", 1);              // evicts 2, the LRU
  EXPECT_EQ(lru.peek(2), nullptr);
  EXPECT_NE(lru.peek(1), nullptr);
  EXPECT_NE(lru.peek(3), nullptr);
  EXPECT_NE(lru.peek(4), nullptr);
}

TEST(LruMap, EvictsByCostDeterministically) {
  LruMap<int, int> lru(100);
  lru.put(1, 10, 40);
  lru.put(2, 20, 40);
  EXPECT_EQ(lru.total_cost(), 80u);
  // 50 more pushes total to 130 > 100: evict LRU (1) → 90 fits.
  const auto evicted = lru.put(3, 30, 50);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], 10);
  EXPECT_EQ(lru.total_cost(), 90u);
  EXPECT_EQ(lru.keys_by_recency(), (std::vector<int>{3, 2}));
}

TEST(LruMap, OversizedEntryStaysUntilDisplaced) {
  LruMap<int, int> lru(10);
  auto evicted = lru.put(1, 11, 50);  // alone over budget: kept
  EXPECT_TRUE(evicted.empty());
  EXPECT_EQ(lru.size(), 1u);
  evicted = lru.put(2, 22, 4);  // newcomer displaces the giant
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], 11);
  EXPECT_EQ(lru.total_cost(), 4u);
}

TEST(LruMap, ReplaceUpdatesCost) {
  LruMap<int, int> lru(100);
  lru.put(1, 10, 60);
  lru.put(1, 11, 30);  // replace with cheaper
  EXPECT_EQ(lru.total_cost(), 30u);
  EXPECT_EQ(lru.size(), 1u);
  EXPECT_EQ(*lru.peek(1), 11);
}

TEST(LruMap, UnboundedNeverEvicts) {
  LruMap<int, int> lru(0);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(lru.put(i, i, 1 << 20).empty());
  }
  EXPECT_EQ(lru.size(), 1000u);
}

TEST(LruMap, EraseAndClear) {
  LruMap<int, int> lru(10);
  lru.put(1, 10, 2);
  lru.put(2, 20, 3);
  EXPECT_TRUE(lru.erase(1));
  EXPECT_FALSE(lru.erase(1));
  EXPECT_EQ(lru.total_cost(), 3u);
  lru.clear();
  EXPECT_TRUE(lru.empty());
  EXPECT_EQ(lru.total_cost(), 0u);
}

}  // namespace
}  // namespace wise

// Scheduling invariants of the work-stealing executor and batched actor
// turns: task completion and shutdown drain, timer deadline ordering,
// per-actor turn serialization, same-sender FIFO, and batch fairness.
// These are the properties that stealing and batching are NOT allowed to
// break; the suite runs under ASan and TSan in tier-1 (see scripts/tier1.sh).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "actor/actor_ref.h"
#include "actor/runtime.h"
#include "actor/thread_pool.h"
#include "wire_test_util.h"

namespace aodb {
namespace {

/// Spin-waits (with yields) until `pred` holds, up to ~10 s of wall time.
template <typename Pred>
bool WaitFor(Pred pred) {
  for (int i = 0; i < 10000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

TEST(ThreadPool, RunsAllTasksFromExternalAndWorkerThreads) {
  ThreadPoolExecutor pool(4);
  constexpr int kExternal = 500;
  std::atomic<int> ran{0};
  for (int i = 0; i < kExternal; ++i) {
    // Each external task posts one follow-on from the worker thread itself,
    // exercising both the round-robin external path and the LIFO-slot local
    // path.
    pool.Post(Task{[&pool, &ran] {
                     ran.fetch_add(1);
                     pool.Post(Task{[&ran] { ran.fetch_add(1); }, 0});
                   },
                   0});
  }
  EXPECT_TRUE(WaitFor([&] { return ran.load() == 2 * kExternal; }));
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 2 * kExternal);
}

TEST(ThreadPool, ShutdownDrainsPendingImmediateTasks) {
  std::atomic<int> ran{0};
  constexpr int kTasks = 200;
  {
    ThreadPoolExecutor pool(2);
    for (int i = 0; i < kTasks; ++i) {
      pool.Post(Task{[&ran] { ran.fetch_add(1); }, 0});
    }
    pool.Shutdown();  // Must not drop queued work.
  }
  EXPECT_EQ(ran.load(), kTasks);
}

TEST(ThreadPool, StatsMergePerWorkerShards) {
  ThreadPoolExecutor pool(4);
  constexpr int kTasks = 300;
  std::atomic<int> ran{0};
  for (int i = 0; i < kTasks; ++i) {
    pool.Post(Task{[&ran] { ran.fetch_add(1); }, 0});
  }
  ASSERT_TRUE(WaitFor([&] { return ran.load() == kTasks; }));
  ASSERT_TRUE(WaitFor([&] { return pool.Stats().tasks_run == kTasks; }));
  ExecutorStats s = pool.Stats();
  EXPECT_EQ(s.tasks_run, kTasks);
  EXPECT_EQ(s.queue_depth, 0);
  EXPECT_GE(s.steals, 0);
  EXPECT_GE(s.parks, 0);
  pool.Shutdown();
}

TEST(ThreadPool, PostAtFiresInDeadlineOrder) {
  ThreadPoolExecutor pool(2);
  Micros now = pool.clock()->Now();
  std::mutex mu;
  std::vector<int> order;
  auto mark = [&mu, &order](int tag) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(tag);
  };
  // Inserted out of order; must fire by deadline, not insertion.
  pool.PostAt(now + 60000, [&] { mark(3); });
  pool.PostAt(now + 20000, [&] { mark(1); });
  pool.PostAt(now + 40000, [&] { mark(2); });
  ASSERT_TRUE(WaitFor([&] {
    std::lock_guard<std::mutex> lock(mu);
    return order.size() == 3;
  }));
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  pool.Shutdown();
}

TEST(ThreadPool, EarlierDeadlineInsertedLaterStillFiresPromptly) {
  ThreadPoolExecutor pool(2);
  Micros now = pool.clock()->Now();
  std::atomic<bool> early_ran{false};
  // A far-future entry parks the timer thread on a long wait; the late
  // insertion of a near deadline must wake it (the new-earliest notify),
  // not ride out the original wait.
  pool.PostAt(now + 30 * kMicrosPerSecond, [] {});
  pool.PostAt(now + 10000, [&early_ran] { early_ran.store(true); });
  ASSERT_TRUE(WaitFor([&] { return early_ran.load(); }));
  EXPECT_LT(pool.clock()->Now() - now, 5 * kMicrosPerSecond);
  pool.Shutdown();
}

/// Detects overlapping turns: Enter/exit marks around each method body. Any
/// concurrent entry — two workers running the same activation — is counted
/// as a violation. Members are atomics only so the DETECTOR itself is race-
/// free; the runtime's guarantee is that they never observe overlap.
class SerialProbe : public ActorBase {
 public:
  static constexpr char kTypeName[] = "sched.SerialProbe";

  void Enter(int64_t spin) {
    if (in_turn_.exchange(true, std::memory_order_acq_rel)) {
      violations_.fetch_add(1, std::memory_order_relaxed);
    }
    for (int64_t i = 0; i < spin; ++i) {
      asm volatile("" ::: "memory");  // Widen the would-be race window.
    }
    in_turn_.store(false, std::memory_order_release);
    count_.fetch_add(1, std::memory_order_relaxed);
  }
  int64_t Count() { return count_.load(std::memory_order_relaxed); }
  int64_t Violations() {
    return violations_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> in_turn_{false};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> violations_{0};
};

TEST(Scheduling, TurnsStaySerializedUnderStealingAndBatching) {
  RuntimeOptions options;
  options.num_silos = 1;
  options.workers_per_silo = 8;  // Ample opportunity to co-schedule.
  options.network.client_latency_us = 0;
  options.network.jitter_us = 0;
  RealClusterHandle handle(options);
  handle->RegisterActorType<SerialProbe>();
  auto ref = handle->Ref<SerialProbe>("probe");
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 250;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ref] {
      for (int i = 0; i < kPerProducer; ++i) {
        ref.Tell(&SerialProbe::Enter, int64_t{25});
      }
    });
  }
  for (auto& t : producers) t.join();
  ASSERT_TRUE(WaitFor([&] {
    return ref.Call(&SerialProbe::Count).Get().value() ==
           kProducers * kPerProducer;
  }));
  EXPECT_EQ(ref.Call(&SerialProbe::Violations).Get().value(), 0);
}

/// Checks that within each stream (one sender thread), sequence numbers
/// arrive in send order — stealing may reorder tasks globally, but never
/// messages of one sender to one actor.
class StreamChecker : public ActorBase {
 public:
  static constexpr char kTypeName[] = "sched.StreamChecker";

  void Push(int64_t stream, int64_t seq) {
    int64_t& next = next_[stream];
    if (seq != next) ++violations_;
    next = seq + 1;
    ++total_;
  }
  int64_t Total() { return total_; }
  int64_t Violations() { return violations_; }

 private:
  std::map<int64_t, int64_t> next_;
  int64_t total_ = 0;
  int64_t violations_ = 0;
};

TEST(Scheduling, SameSenderFifoSurvivesStealingAndBatching) {
  RuntimeOptions options;
  options.num_silos = 1;
  options.workers_per_silo = 8;
  options.network.client_latency_us = 0;
  options.network.jitter_us = 0;
  RealClusterHandle handle(options);
  handle->RegisterActorType<StreamChecker>();
  auto ref = handle->Ref<StreamChecker>("streams");
  constexpr int kStreams = 4;
  constexpr int kPerStream = 300;
  std::vector<std::thread> producers;
  for (int p = 0; p < kStreams; ++p) {
    producers.emplace_back([&ref, p] {
      for (int64_t i = 0; i < kPerStream; ++i) {
        ref.Tell(&StreamChecker::Push, int64_t{p}, i);
      }
    });
  }
  for (auto& t : producers) t.join();
  ASSERT_TRUE(WaitFor([&] {
    return ref.Call(&StreamChecker::Total).Get().value() ==
           kStreams * kPerStream;
  }));
  EXPECT_EQ(ref.Call(&StreamChecker::Violations).Get().value(), 0);
}

class CountActor : public ActorBase {
 public:
  static constexpr char kTypeName[] = "sched.Count";
  int64_t Add(int64_t d) {
    value_ += d;
    return value_;
  }
  int64_t Value() { return value_; }

 private:
  int64_t value_ = 0;
};

[[maybe_unused]] const bool kWireRegistered = [] {
  RegisterWireOrDie(SerialProbe::kTypeName, &SerialProbe::Enter,
                    "SerialProbe.Enter");
  RegisterWireOrDie(SerialProbe::kTypeName, &SerialProbe::Count,
                    "SerialProbe.Count", /*idempotent=*/true);
  RegisterWireOrDie(SerialProbe::kTypeName, &SerialProbe::Violations,
                    "SerialProbe.Violations", /*idempotent=*/true);
  RegisterWireOrDie(StreamChecker::kTypeName, &StreamChecker::Push,
                    "StreamChecker.Push");
  RegisterWireOrDie(StreamChecker::kTypeName, &StreamChecker::Total,
                    "StreamChecker.Total", /*idempotent=*/true);
  RegisterWireOrDie(StreamChecker::kTypeName, &StreamChecker::Violations,
                    "StreamChecker.Violations", /*idempotent=*/true);
  RegisterWireOrDie(CountActor::kTypeName, &CountActor::Add,
                    "CountActor.Add");
  RegisterWireOrDie(CountActor::kTypeName, &CountActor::Value,
                    "CountActor.Value", /*idempotent=*/true);
  return true;
}();

/// A flooded actor must not starve a lightly-loaded one: the batch cap
/// forces the hot activation to yield its worker between batches.
TEST(Scheduling, BatchCapBoundsHotActorMonopoly) {
  RuntimeOptions options;
  options.num_silos = 1;
  options.workers_per_silo = 2;
  options.max_turn_batch = 4;
  options.network.client_latency_us = 0;
  options.network.jitter_us = 0;
  RealClusterHandle handle(options);
  handle->RegisterActorType<CountActor>();
  auto hot = handle->Ref<CountActor>("hot");
  auto cold = handle->Ref<CountActor>("cold");
  constexpr int kHot = 600;
  constexpr int kCold = 60;
  for (int i = 0; i < kHot; ++i) {
    hot.Tell(&CountActor::Add, int64_t{1});
    if (i % (kHot / kCold) == 0) cold.Tell(&CountActor::Add, int64_t{1});
  }
  ASSERT_TRUE(WaitFor([&] {
    return cold.Call(&CountActor::Value).Get().value() == kCold &&
           hot.Call(&CountActor::Value).Get().value() == kHot;
  }));
  EXPECT_EQ(hot.Call(&CountActor::Value).Get().value(), kHot);
  EXPECT_EQ(cold.Call(&CountActor::Value).Get().value(), kCold);
}

TEST(Scheduling, BatchSizeOneProcessesEveryMessage) {
  RuntimeOptions options;
  options.num_silos = 1;
  options.workers_per_silo = 2;
  options.max_turn_batch = 1;  // Batching disabled: one envelope per task.
  options.network.client_latency_us = 0;
  options.network.jitter_us = 0;
  RealClusterHandle handle(options);
  handle->RegisterActorType<CountActor>();
  auto ref = handle->Ref<CountActor>("one");
  constexpr int kMessages = 200;
  for (int i = 0; i < kMessages; ++i) {
    ref.Tell(&CountActor::Add, int64_t{1});
  }
  ASSERT_TRUE(WaitFor([&] {
    return ref.Call(&CountActor::Value).Get().value() == kMessages;
  }));
  EXPECT_EQ(ref.Call(&CountActor::Value).Get().value(), kMessages);
}

}  // namespace
}  // namespace aodb

// Tests of the future/promise machinery underpinning every actor call:
// fulfillment semantics, continuations, composition, error propagation,
// and multi-threaded races.

#include <atomic>
#include <thread>

#include <gtest/gtest.h>

#include "actor/future.h"

namespace aodb {
namespace {

TEST(FutureTest, FromValueIsImmediatelyReady) {
  auto f = Future<int>::FromValue(7);
  EXPECT_TRUE(f.Ready());
  EXPECT_EQ(f.Get().value(), 7);
}

TEST(FutureTest, FromErrorCarriesStatus) {
  auto f = Future<int>::FromError(Status::NotFound("x"));
  ASSERT_TRUE(f.Ready());
  EXPECT_FALSE(f.Get().ok());
  EXPECT_TRUE(f.Get().status().IsNotFound());
}

TEST(FutureTest, PromiseFulfillsAllCopies) {
  Promise<std::string> p;
  Future<std::string> f1 = p.GetFuture();
  Future<std::string> f2 = f1;  // Copies share state.
  p.SetValue("hello");
  EXPECT_EQ(f1.Get().value(), "hello");
  EXPECT_EQ(f2.Get().value(), "hello");
}

TEST(FutureTest, FirstFulfillmentWins) {
  Promise<int> p;
  p.SetValue(1);
  p.SetValue(2);
  p.SetError(Status::Internal("late"));
  EXPECT_EQ(p.GetFuture().Get().value(), 1);
}

TEST(FutureTest, CallbackBeforeFulfillmentRunsOnSet) {
  Promise<int> p;
  int seen = 0;
  p.GetFuture().OnReady([&seen](Result<int>&& r) { seen = r.value(); });
  EXPECT_EQ(seen, 0);
  p.SetValue(42);
  EXPECT_EQ(seen, 42);
}

TEST(FutureTest, CallbackAfterFulfillmentRunsInline) {
  auto f = Future<int>::FromValue(9);
  int seen = 0;
  f.OnReady([&seen](Result<int>&& r) { seen = r.value(); });
  EXPECT_EQ(seen, 9);
}

TEST(FutureTest, MultipleCallbacksAllFire) {
  Promise<int> p;
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) {
    p.GetFuture().OnReady([&count](Result<int>&&) { ++count; });
  }
  p.SetValue(1);
  EXPECT_EQ(count.load(), 10);
}

TEST(FutureTest, ThenMapsValues) {
  Promise<int> p;
  auto f = p.GetFuture()
               .Then([](int v) { return v * 2; })
               .Then([](int v) { return std::to_string(v); });
  p.SetValue(21);
  EXPECT_EQ(f.Get().value(), "42");
}

TEST(FutureTest, ThenPropagatesErrorsWithoutInvokingFn) {
  Promise<int> p;
  bool invoked = false;
  auto f = p.GetFuture().Then([&invoked](int v) {
    invoked = true;
    return v;
  });
  p.SetError(Status::Timeout("t"));
  EXPECT_FALSE(invoked);
  EXPECT_TRUE(f.Get().status().IsTimeout());
}

TEST(FutureTest, GetForTimesOut) {
  Promise<int> p;
  auto r = p.GetFuture().GetFor(2000);  // 2 ms.
  EXPECT_TRUE(r.status().IsTimeout());
  p.SetValue(5);
  EXPECT_EQ(p.GetFuture().GetFor(1000000).value(), 5);
}

TEST(FutureTest, UnitFuturesWork) {
  Promise<Unit> p;
  auto f = p.GetFuture();
  p.SetValue(Unit{});
  EXPECT_TRUE(f.Get().ok());
}

TEST(WhenAllTest, EmptyInputCompletesImmediately) {
  auto f = WhenAll(std::vector<Future<int>>{});
  ASSERT_TRUE(f.Ready());
  EXPECT_TRUE(f.Get().value().empty());
}

TEST(WhenAllTest, PreservesIndexAlignment) {
  std::vector<Promise<int>> promises(5);
  std::vector<Future<int>> futures;
  for (auto& p : promises) futures.push_back(p.GetFuture());
  auto all = WhenAll(futures);
  // Fulfill out of order.
  promises[3].SetValue(3);
  promises[0].SetValue(0);
  promises[4].SetValue(4);
  promises[1].SetValue(1);
  EXPECT_FALSE(all.Ready());
  promises[2].SetValue(2);
  ASSERT_TRUE(all.Ready());
  auto results = all.Get().value();
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(results[i].value(), i);
  }
}

TEST(WhenAllTest, MixedSuccessAndErrorAreBothDelivered) {
  std::vector<Promise<int>> promises(3);
  std::vector<Future<int>> futures;
  for (auto& p : promises) futures.push_back(p.GetFuture());
  auto all = WhenAll(futures);
  promises[0].SetValue(10);
  promises[1].SetError(Status::Aborted("boom"));
  promises[2].SetValue(30);
  auto results = all.Get().value();
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
  EXPECT_TRUE(results[1].status().IsAborted());
  EXPECT_TRUE(results[2].ok());
}

// --- Fan-in combinators ------------------------------------------------------

// The futures of `promises`, for driving the combinators by hand.
template <typename T>
std::vector<Future<T>> FuturesOf(const std::vector<Promise<T>>& promises) {
  std::vector<Future<T>> futures;
  for (const Promise<T>& p : promises) futures.push_back(p.GetFuture());
  return futures;
}

TEST(AllOkTest, EmptyInputIsOk) {
  auto f = AllOk({});
  ASSERT_TRUE(f.Ready());
  ASSERT_TRUE(f.Get().ok());
  EXPECT_TRUE(f.Get().value().ok());
}

TEST(AllOkTest, AllOkInputsResolveOk) {
  std::vector<Promise<Status>> promises(3);
  auto f = AllOk(FuturesOf(promises));
  for (auto& p : promises) p.SetValue(Status::OK());
  ASSERT_TRUE(f.Ready());
  EXPECT_TRUE(f.Get().value().ok());
}

TEST(AllOkTest, FirstFailureByIndexWinsEvenWhenALaterInputFailsFirst) {
  std::vector<Promise<Status>> promises(4);
  auto f = AllOk(FuturesOf(promises));
  promises[3].SetError(Status::Unavailable("later input, failed first"));
  promises[0].SetValue(Status::OK());
  promises[1].SetValue(Status::NotFound("earliest failing input"));
  promises[2].SetValue(Status::OK());
  ASSERT_TRUE(f.Ready());
  // The failure is the resolved value, not a transport error.
  ASSERT_TRUE(f.Get().ok());
  EXPECT_TRUE(f.Get().value().IsNotFound());
}

TEST(AllOkTest, StaysPendingWhileAnyInputIsPendingAfterAnError) {
  std::vector<Promise<Status>> promises(3);
  auto f = AllOk(FuturesOf(promises));
  promises[0].SetError(Status::Aborted("first input failed"));
  promises[2].SetValue(Status::OK());
  EXPECT_FALSE(f.Ready()) << "must wait for every input, not fail fast";
  promises[1].SetValue(Status::OK());
  ASSERT_TRUE(f.Ready());
  EXPECT_TRUE(f.Get().value().IsAborted());
}

TEST(AllOkTest, ReturnedStatusAndTransportErrorBothCount) {
  {
    std::vector<Promise<Status>> promises(2);
    auto f = AllOk(FuturesOf(promises));
    promises[0].SetValue(Status::OK());
    promises[1].SetValue(Status::Corruption("returned"));
    EXPECT_TRUE(f.Get().value().IsCorruption());
  }
  {
    std::vector<Promise<Status>> promises(2);
    auto f = AllOk(FuturesOf(promises));
    promises[0].SetValue(Status::OK());
    promises[1].SetError(Status::Timeout("transport"));
    EXPECT_TRUE(f.Get().value().IsTimeout());
  }
}

TEST(AllValuesTest, EmptyInputResolvesToNoValues) {
  auto f = AllValues(std::vector<Future<int>>{});
  ASSERT_TRUE(f.Ready());
  ASSERT_TRUE(f.Get().ok());
  EXPECT_TRUE(f.Get().value().empty());
}

TEST(AllValuesTest, ValuesComeBackInInputOrder) {
  std::vector<Promise<int>> promises(4);
  auto f = AllValues(FuturesOf(promises));
  promises[2].SetValue(2);
  promises[0].SetValue(0);
  promises[3].SetValue(3);
  EXPECT_FALSE(f.Ready());
  promises[1].SetValue(1);
  ASSERT_TRUE(f.Ready());
  EXPECT_EQ(f.Get().value(), (std::vector<int>{0, 1, 2, 3}));
}

TEST(AllValuesTest, FirstErrorByIndexWinsEvenWhenALaterInputFailsFirst) {
  std::vector<Promise<int>> promises(3);
  auto f = AllValues(FuturesOf(promises));
  promises[2].SetError(Status::Unavailable("later input, failed first"));
  promises[1].SetError(Status::NotFound("earliest failing input"));
  promises[0].SetValue(0);
  ASSERT_TRUE(f.Ready());
  ASSERT_FALSE(f.Get().ok());
  EXPECT_TRUE(f.Get().status().IsNotFound());
}

TEST(AllValuesTest, StaysPendingWhileAnyInputIsPendingAfterAnError) {
  std::vector<Promise<int>> promises(3);
  auto f = AllValues(FuturesOf(promises));
  promises[0].SetError(Status::Aborted("first input failed"));
  promises[1].SetValue(1);
  EXPECT_FALSE(f.Ready()) << "must wait for every input, not fail fast";
  promises[2].SetValue(2);
  ASSERT_TRUE(f.Ready());
  EXPECT_TRUE(f.Get().status().IsAborted());
}

TEST(FanInThreadedTest, CompletionFromEightThreads) {
  constexpr int kThreads = 8;
  for (int round = 0; round < 50; ++round) {
    std::vector<Promise<int>> values(kThreads);
    std::vector<Promise<Status>> acks(kThreads);
    auto all_values = AllValues(FuturesOf(values));
    auto all_ok = AllOk(FuturesOf(acks));
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&values, &acks, t] {
        values[t].SetValue(t * 10);
        acks[t].SetValue(t == 5 ? Status::Aborted("five")
                                : t == 6 ? Status::Internal("six")
                                         : Status::OK());
      });
    }
    std::vector<int> got = all_values.Get().value();
    Status ack = all_ok.Get().value();
    for (auto& th : threads) th.join();
    ASSERT_EQ(got.size(), static_cast<size_t>(kThreads));
    for (int t = 0; t < kThreads; ++t) EXPECT_EQ(got[t], t * 10);
    EXPECT_TRUE(ack.IsAborted()) << "index 5 precedes index 6";
  }
}

TEST(FutureThreadedTest, ConcurrentFulfillAndWait) {
  for (int round = 0; round < 50; ++round) {
    Promise<int> p;
    auto f = p.GetFuture();
    std::thread setter([&p, round] { p.SetValue(round); });
    EXPECT_EQ(f.Get().value(), round);
    setter.join();
  }
}

TEST(FutureThreadedTest, RacingSettersExactlyOneWins) {
  for (int round = 0; round < 20; ++round) {
    Promise<int> p;
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&p, t] { p.SetValue(t); });
    }
    int v = p.GetFuture().Get().value();
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 4);
    for (auto& t : threads) t.join();
    // The winner's value must be stable afterwards.
    EXPECT_EQ(p.GetFuture().Get().value(), v);
  }
}

TEST(FutureThreadedTest, CallbacksFromManyThreadsAllFire) {
  Promise<int> p;
  std::atomic<int> fired{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&p, &fired] {
      for (int i = 0; i < 100; ++i) {
        p.GetFuture().OnReady([&fired](Result<int>&&) { ++fired; });
      }
    });
  }
  p.SetValue(1);
  for (auto& t : threads) t.join();
  EXPECT_EQ(fired.load(), 800);
}

// --- Promise-leak detection --------------------------------------------------

TEST(PromiseLeakTest, DroppedContinuationIsCounted) {
  const int64_t base = PromisesLeaked();
  {
    Promise<int> p;
    Future<int> f = p.GetFuture();
    f.OnReady([](Result<int>&&) { FAIL() << "never fulfilled"; });
    // p and f die here with a continuation attached and no result set:
    // someone was waiting and nobody ever answered.
  }
  EXPECT_EQ(PromisesLeaked() - base, 1);
}

TEST(PromiseLeakTest, FulfilledPromiseIsNotALeak) {
  const int64_t base = PromisesLeaked();
  {
    Promise<int> p;
    Future<int> f = p.GetFuture();
    int got = 0;
    f.OnReady([&got](Result<int>&& r) { got = r.value(); });
    p.SetValue(42);
    EXPECT_EQ(got, 42);
  }
  {
    // An error is still an answer — the waiter heard back.
    Promise<int> p;
    Future<int> f = p.GetFuture();
    f.OnReady([](Result<int>&&) {});
    p.SetError(Status::Timeout("late"));
  }
  EXPECT_EQ(PromisesLeaked() - base, 0);
}

TEST(PromiseLeakTest, AbandonedFutureWithoutWaiterIsNotALeak) {
  const int64_t base = PromisesLeaked();
  {
    // Futures are routinely dropped on purpose (fire-and-forget Tell
    // plumbing); with no continuation registered, nobody was waiting.
    Promise<int> p;
    Future<int> f = p.GetFuture();
  }
  EXPECT_EQ(PromisesLeaked() - base, 0);
}

}  // namespace
}  // namespace aodb

// Stress tests of the runtime on real thread pools: multi-threaded
// clients, turn-based isolation under contention, persistence with real
// concurrency, and clean shutdown with work in flight. These are the tests
// that would catch data races the single-threaded simulator cannot.

#include <atomic>
#include <thread>

#include <gtest/gtest.h>

#include "actor/actor_ref.h"
#include "actor/runtime.h"
#include "storage/mem_kv.h"
#include "storage/persistent_actor.h"
#include "wire_test_util.h"

namespace aodb {
namespace {

/// Counter whose Add is deliberately non-atomic: correct results are only
/// possible if the runtime really serializes turns per activation.
class RacyCounter : public ActorBase {
 public:
  static constexpr char kTypeName[] = "stress.Counter";
  int64_t Add() {
    int64_t v = value_;        // Read...
    std::this_thread::yield();  // ...invite interleaving...
    value_ = v + 1;            // ...write.
    return value_;
  }
  int64_t Value() { return value_; }

 private:
  int64_t value_ = 0;
};

RuntimeOptions StressOptions() {
  RuntimeOptions o;
  o.num_silos = 2;
  o.workers_per_silo = 2;
  o.network.client_latency_us = 10;
  o.network.silo_latency_us = 10;
  o.network.jitter_us = 5;
  return o;
}

TEST(RealModeStressTest, TurnBasedExecutionSerializesRacyUpdates) {
  RealClusterHandle handle(StressOptions());
  handle->RegisterActorType<RacyCounter>();
  constexpr int kClients = 4;
  constexpr int kPerClient = 250;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&handle] {
      auto ref = handle->Ref<RacyCounter>("shared");
      for (int i = 0; i < kPerClient; ++i) {
        ref.Tell(&RacyCounter::Add);
      }
    });
  }
  for (auto& t : clients) t.join();
  auto ref = handle->Ref<RacyCounter>("shared");
  // Wait until all tells drained.
  for (int attempt = 0; attempt < 500; ++attempt) {
    if (ref.Call(&RacyCounter::Value).Get().value() ==
        kClients * kPerClient) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(ref.Call(&RacyCounter::Value).Get().value(),
            kClients * kPerClient)
      << "lost updates imply two turns ran concurrently";
}

TEST(RealModeStressTest, ManyActorsManyThreadsNoLostCalls) {
  RealClusterHandle handle(StressOptions());
  handle->RegisterActorType<RacyCounter>();
  constexpr int kActors = 32;
  constexpr int kThreads = 4;
  constexpr int kCallsPerThread = 200;
  std::atomic<int64_t> ok_calls{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&handle, &ok_calls, t] {
      Rng rng(t + 1);
      std::vector<Future<int64_t>> futures;
      for (int i = 0; i < kCallsPerThread; ++i) {
        int a = static_cast<int>(rng.NextBelow(kActors));
        futures.push_back(handle->Ref<RacyCounter>("a" + std::to_string(a))
                              .Call(&RacyCounter::Add));
      }
      for (auto& f : futures) {
        if (f.Get().ok()) ok_calls.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok_calls.load(), kThreads * kCallsPerThread);
  // Total across actors must equal the number of calls.
  int64_t total = 0;
  for (int a = 0; a < kActors; ++a) {
    total += handle->Ref<RacyCounter>("a" + std::to_string(a))
                 .Call(&RacyCounter::Value)
                 .Get()
                 .value();
  }
  EXPECT_EQ(total, kThreads * kCallsPerThread);
}

struct StressState {
  int64_t value = 0;
  void Encode(BufWriter* w) const { w->PutSigned(value); }
  Status Decode(BufReader* r) { return r->GetSigned(&value); }
};

class DurableStressCounter : public PersistentActor<StressState> {
 public:
  static constexpr char kTypeName[] = "stress.Durable";
  DurableStressCounter()
      : PersistentActor<StressState>(PersistenceOptions{
            PersistPolicy::kWindowed, 10, kMicrosPerSecond, "default"}) {}
  int64_t Add() {
    ++state().value;
    MarkDirty();
    return state().value;
  }
  int64_t Value() { return state().value; }
};

[[maybe_unused]] const bool kWireRegistered = [] {
  RegisterWireOrDie(RacyCounter::kTypeName, &RacyCounter::Add,
                    "RacyCounter.Add");
  RegisterWireOrDie(RacyCounter::kTypeName, &RacyCounter::Value,
                    "RacyCounter.Value", /*idempotent=*/true);
  RegisterWireOrDie(DurableStressCounter::kTypeName,
                    &DurableStressCounter::Add, "DurableStressCounter.Add");
  RegisterWireOrDie(DurableStressCounter::kTypeName,
                    &DurableStressCounter::Value, "DurableStressCounter.Value",
                    /*idempotent=*/true);
  return true;
}();

TEST(RealModeStressTest, WindowedPersistenceUnderRealConcurrency) {
  MemKvStore backing;
  auto storage = std::make_shared<KvStateStorage>(&backing);
  RealClusterHandle handle(StressOptions());
  handle->RegisterStateStorage("default", storage);
  handle->RegisterActorType<DurableStressCounter>();
  auto ref = handle->Ref<DurableStressCounter>("d");
  std::vector<Future<int64_t>> futures;
  for (int i = 0; i < 500; ++i) futures.push_back(ref.Call(&DurableStressCounter::Add));
  for (auto& f : futures) ASSERT_TRUE(f.Get().ok());
  EXPECT_EQ(ref.Call(&DurableStressCounter::Value).Get().value(), 500);
  // The windowed policy must have produced storage snapshots while running.
  EXPECT_GE(backing.Count().value(), 1);
  // Final flush on shutdown keeps the latest value durable.
  auto flushed = handle->DeactivateAll();
  ASSERT_TRUE(flushed.GetFor(5 * kMicrosPerSecond).ok());
  auto stored = backing.Get("grain/stress.Durable/d");
  ASSERT_TRUE(stored.ok());
  BufReader r(stored.value());
  StressState st;
  ASSERT_TRUE(st.Decode(&r).ok());
  EXPECT_EQ(st.value, 500);
}

TEST(RealModeStressTest, ShutdownWithWorkInFlightDoesNotCrash) {
  for (int round = 0; round < 5; ++round) {
    RealClusterHandle handle(StressOptions());
    handle->RegisterActorType<RacyCounter>();
    for (int a = 0; a < 8; ++a) {
      auto ref = handle->Ref<RacyCounter>("x" + std::to_string(a));
      for (int i = 0; i < 100; ++i) ref.Tell(&RacyCounter::Add);
    }
    // Destroy the handle immediately: pending work must not crash or hang.
    handle.Shutdown();
  }
  SUCCEED();
}

TEST(RealModeStressTest, CrossSiloCallChainsUnderLoad) {
  // Relay -> Counter chains spanning silos, driven from several threads.
  class Relay : public ActorBase {
   public:
    Future<int64_t> Through(std::string target) {
      return ctx().Ref<RacyCounter>(target).Call(&RacyCounter::Add);
    }
  };
  RegisterWireOrDie("stress.Relay", &Relay::Through, "Relay.Through");
  RealClusterHandle handle(StressOptions());
  handle->RegisterActorType<RacyCounter>();
  handle->RegisterActorType(
      "stress.Relay", [](const ActorId&) { return std::make_unique<Relay>(); });
  std::atomic<int64_t> completed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&handle, &completed, t] {
      for (int i = 0; i < 100; ++i) {
        auto relay = handle->RefAs<Relay>("stress.Relay",
                                          "r" + std::to_string(i % 4));
        auto r = relay.Call(&Relay::Through,
                            std::string("end" + std::to_string(t)));
        if (r.Get().ok()) completed.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(completed.load(), 300);
  int64_t total = 0;
  for (int t = 0; t < 3; ++t) {
    total += handle->Ref<RacyCounter>("end" + std::to_string(t))
                 .Call(&RacyCounter::Value)
                 .Get()
                 .value();
  }
  EXPECT_EQ(total, 300);
}

/// Per-key lifecycle ledger of the churn test: messages applied, and the
/// activations currently live (two at once would be a split brain).
struct ChurnLedger {
  static constexpr int kActors = 300;
  std::atomic<int64_t> applied[kActors] = {};
  std::atomic<int> live[kActors] = {};
  std::atomic<int> double_activations{0};
};

ChurnLedger& Churn() {
  static ChurnLedger ledger;
  return ledger;
}

class ChurnActor : public ActorBase {
 public:
  static constexpr char kTypeName[] = "stress.Churn";
  Future<Status> OnActivate() override {
    if (Churn().live[Index()].fetch_add(1) != 0) {
      Churn().double_activations.fetch_add(1);
    }
    return Future<Status>::FromValue(Status::OK());
  }
  Future<Status> OnDeactivate() override {
    Churn().live[Index()].fetch_sub(1);
    return Future<Status>::FromValue(Status::OK());
  }
  int64_t Apply() {
    Churn().applied[Index()].fetch_add(1);
    return 1;
  }
  /// One client call fans out to a second actor, so silo workers deliver
  /// next to the wire-frame thread.
  Future<int64_t> Bounce(std::string next) {
    return ctx().Ref<ChurnActor>(next).Call(&ChurnActor::Apply);
  }

 private:
  int Index() const { return std::stoi(ctx().self().key); }
};

[[maybe_unused]] const bool kChurnWireRegistered = [] {
  RegisterWireOrDie(ChurnActor::kTypeName, &ChurnActor::Apply,
                    "ChurnActor.Apply");
  RegisterWireOrDie(ChurnActor::kTypeName, &ChurnActor::Bounce,
                    "ChurnActor.Bounce");
  return true;
}();

TEST(RealModeStressTest, DeliveryRacesActivationSweepAndPageOut) {
  // Many actors over a small resident cap with an aggressive idle sweep:
  // every few messages an activation is created, swept or paged out while
  // other threads deliver to it. No call may be lost and no actor may ever
  // have two live activations.
  RuntimeOptions o = StressOptions();
  o.max_resident_activations = 40;
  o.lifecycle.enable_idle_deactivation = true;
  o.lifecycle.idle_timeout_us = 200;
  o.lifecycle.scan_interval_us = 200;
  RealClusterHandle handle(o);
  handle->RegisterActorType<ChurnActor>();
  handle->StartIdleScanner();
  constexpr int kThreads = 4;
  constexpr int kCallsPerThread = 1000;
  constexpr int kInFlight = 32;
  std::atomic<int64_t> acked{0};
  std::atomic<int64_t> failed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&handle, &acked, &failed, t] {
      Rng rng(t + 7);
      std::vector<Future<int64_t>> batch;
      auto drain = [&] {
        for (auto& f : batch) {
          Result<int64_t> r = f.GetFor(20 * kMicrosPerSecond);
          (r.ok() ? acked : failed).fetch_add(1);
        }
        batch.clear();
        // A short pause lets the sweeper find idle activations.
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      };
      for (int i = 0; i < kCallsPerThread; ++i) {
        auto key = [&] {
          return std::to_string(rng.NextBelow(ChurnLedger::kActors));
        };
        batch.push_back(
            handle->Ref<ChurnActor>(key()).Call(&ChurnActor::Bounce, key()));
        if (batch.size() == kInFlight) drain();
      }
      drain();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(acked.load(), kThreads * kCallsPerThread);
  int64_t applied = 0;
  for (auto& a : Churn().applied) applied += a.load();
  EXPECT_EQ(applied, acked.load()) << "an acked call ran zero or two times";
  EXPECT_EQ(Churn().double_activations.load(), 0)
      << "an actor had two live activations at once";
  for (auto& l : Churn().live) EXPECT_LE(l.load(), 1);
  SiloStats stats;
  for (int s = 0; s < handle->num_silos(); ++s) {
    SiloStats one = handle->silo(s)->Stats();
    stats.activations_created += one.activations_created;
    stats.activations_removed += one.activations_removed;
    stats.activations_paged_out += one.activations_paged_out;
  }
  // The churn really happened: actors were paged out, swept idle, and
  // re-activated.
  EXPECT_GT(stats.activations_paged_out, 0);
  EXPECT_GT(stats.activations_removed, stats.activations_paged_out);
  EXPECT_GT(stats.activations_created, ChurnLedger::kActors);
}

}  // namespace
}  // namespace aodb

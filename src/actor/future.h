// Futures and promises for asynchronous actor calls.
//
// Continuations run inline on the thread that fulfills the promise (in
// simulation mode, at the virtual time of fulfillment). Blocking Get() is
// for external clients in real (thread-pool) mode only; actor code and
// simulation-mode code must use OnReady/Then.

#ifndef AODB_ACTOR_FUTURE_H_
#define AODB_ACTOR_FUTURE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/small_function.h"
#include "common/status.h"

namespace aodb {

/// Unit type standing in for `void` results of actor methods.
struct Unit {
  bool operator==(const Unit&) const { return true; }
};

namespace internal {

/// Process-wide count of promise completions dropped because a result was
/// already set — duplicate message delivery under fault injection, timeout
/// races. Observable via PromiseDuplicatesDropped().
inline std::atomic<int64_t>& DuplicateCompletions() {
  static std::atomic<int64_t> counter{0};
  return counter;
}

/// Process-wide count of promises that died unfulfilled WITH a continuation
/// registered: someone was waiting and nobody ever answered — a dropped
/// reply handler, an envelope destroyed without running its fail hook. A
/// promise with no waiter that dies unfulfilled is not counted (futures are
/// routinely abandoned on purpose). Observable via PromisesLeaked(); the
/// cluster exposes its lifetime delta as the "runtime.leaked_promises"
/// gauge at Stop().
inline std::atomic<int64_t>& LeakedPromises() {
  static std::atomic<int64_t> counter{0};
  return counter;
}

/// Continuation callable. Small-buffer sized for the runtime's own reply
/// handlers so registering the (almost always single) continuation does not
/// heap-allocate.
template <typename T>
using FutureCallback = SmallFunction<void(Result<T>&&), 64>;

template <typename T>
struct FutureState {
  ~FutureState() {
    // No lock needed: the last owner is tearing the state down, so nobody
    // else can be registering callbacks or setting results concurrently.
    if (!result.has_value() &&
        (has_first_callback || !more_callbacks.empty())) {
      LeakedPromises().fetch_add(1, std::memory_order_relaxed);
    }
  }

  std::mutex mu;
  std::condition_variable cv;
  std::optional<Result<T>> result;
  /// First continuation inline (the overwhelmingly common case: one
  /// OnReady per future); later registrations overflow to the vector.
  FutureCallback<T> first_callback;
  bool has_first_callback = false;
  std::vector<FutureCallback<T>> more_callbacks;

  void Set(Result<T>&& r) {
    FutureCallback<T> first;
    bool has_first = false;
    std::vector<FutureCallback<T>> rest;
    {
      std::lock_guard<std::mutex> lock(mu);
      if (result.has_value()) {
        // First fulfillment wins; the duplicate is counted and dropped.
        DuplicateCompletions().fetch_add(1, std::memory_order_relaxed);
        return;
      }
      result.emplace(std::move(r));
      if (has_first_callback) {
        first = std::move(first_callback);
        first_callback = nullptr;
        has_first_callback = false;
        has_first = true;
      }
      rest.swap(more_callbacks);
      cv.notify_all();
    }
    if (has_first) {
      Result<T> copy = *result;
      first(std::move(copy));
    }
    for (auto& cb : rest) {
      Result<T> copy = *result;
      cb(std::move(copy));
    }
  }
};

}  // namespace internal

/// Number of promise completions dropped so far in this process because the
/// promise was already fulfilled (monotonic).
inline int64_t PromiseDuplicatesDropped() {
  return internal::DuplicateCompletions().load(std::memory_order_relaxed);
}

/// Number of promises destroyed unfulfilled with a waiting continuation so
/// far in this process (monotonic). See internal::LeakedPromises.
inline int64_t PromisesLeaked() {
  return internal::LeakedPromises().load(std::memory_order_relaxed);
}

template <typename T>
class Promise;

/// Read side of an asynchronous result. Copyable; all copies share state.
template <typename T>
class Future {
 public:
  using ValueType = T;

  Future() : state_(std::make_shared<internal::FutureState<T>>()) {}

  /// A future already fulfilled with `value`.
  static Future<T> FromValue(T value) {
    Future<T> f;
    f.state_->Set(Result<T>(std::move(value)));
    return f;
  }

  /// A future already failed with `status` (must be non-OK).
  static Future<T> FromError(Status status) {
    Future<T> f;
    f.state_->Set(Result<T>::FromError(std::move(status)));
    return f;
  }

  /// True once a result (value or error) is available.
  bool Ready() const {
    std::lock_guard<std::mutex> lock(state_->mu);
    return state_->result.has_value();
  }

  /// Registers a continuation; runs inline immediately if already ready.
  void OnReady(internal::FutureCallback<T> cb) const {
    {
      std::lock_guard<std::mutex> lock(state_->mu);
      if (!state_->result.has_value()) {
        if (!state_->has_first_callback) {
          state_->first_callback = std::move(cb);
          state_->has_first_callback = true;
        } else {
          state_->more_callbacks.push_back(std::move(cb));
        }
        return;
      }
    }
    Result<T> copy = *state_->result;
    cb(std::move(copy));
  }

  /// Blocks until ready. Real mode, external clients only: must never be
  /// called from an actor thread (can deadlock the pool) nor in simulation.
  Result<T> Get() const {
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock, [this] { return state_->result.has_value(); });
    return *state_->result;
  }

  /// Blocks up to `timeout_us` microseconds; returns Timeout on expiry.
  Result<T> GetFor(int64_t timeout_us) const {
    std::unique_lock<std::mutex> lock(state_->mu);
    if (!state_->cv.wait_for(lock, std::chrono::microseconds(timeout_us),
                             [this] { return state_->result.has_value(); })) {
      return Result<T>::FromError(Status::Timeout("future wait timed out"));
    }
    return *state_->result;
  }

  /// Maps the value through `fn`; errors propagate unchanged.
  template <typename Fn, typename U = std::invoke_result_t<Fn, T&&>>
  Future<U> Then(Fn fn) const {
    Future<U> out;
    auto st = out.state_;
    OnReady([st, fn = std::move(fn)](Result<T>&& r) mutable {
      if (!r.ok()) {
        st->Set(Result<U>::FromError(r.status()));
      } else {
        st->Set(Result<U>(fn(std::move(r).value())));
      }
    });
    return out;
  }

 private:
  friend class Promise<T>;
  template <typename U>
  friend class Future;  // Then() builds futures of other value types.
  std::shared_ptr<internal::FutureState<T>> state_;
};

/// Write side of a Future. Copyable; first Set wins, later Sets are ignored
/// (used by timeout racing).
template <typename T>
class Promise {
 public:
  Promise() : state_(std::make_shared<internal::FutureState<T>>()) {}

  Future<T> GetFuture() const {
    Future<T> f;
    f.state_ = state_;
    return f;
  }

  void SetValue(T value) const { state_->Set(Result<T>(std::move(value))); }
  void SetError(Status status) const {
    state_->Set(Result<T>::FromError(std::move(status)));
  }
  void SetResult(Result<T> r) const { state_->Set(std::move(r)); }

 private:
  std::shared_ptr<internal::FutureState<T>> state_;
};

/// Completes when all inputs complete, with the vector of all results
/// (values or errors, index-aligned with the inputs).
template <typename T>
Future<std::vector<Result<T>>> WhenAll(const std::vector<Future<T>>& futures) {
  struct Gather {
    std::mutex mu;
    std::vector<std::optional<Result<T>>> slots;
    size_t pending;
  };
  auto gather = std::make_shared<Gather>();
  gather->slots.resize(futures.size());
  gather->pending = futures.size();
  Promise<std::vector<Result<T>>> promise;
  if (futures.empty()) {
    promise.SetValue({});
    return promise.GetFuture();
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    futures[i].OnReady([gather, promise, i](Result<T>&& r) {
      bool done = false;
      {
        std::lock_guard<std::mutex> lock(gather->mu);
        gather->slots[i].emplace(std::move(r));
        done = (--gather->pending == 0);
      }
      if (done) {
        std::vector<Result<T>> out;
        out.reserve(gather->slots.size());
        for (auto& s : gather->slots) out.push_back(std::move(*s));
        promise.SetValue(std::move(out));
      }
    });
  }
  return promise.GetFuture();
}

// Fan-in rule: multi-actor operations gather with AllOk or AllValues (AllOk
// folds in place; AllValues is built on WhenAll). Each waits for EVERY
// input (2PC and DeactivateAll rely on it: no decision while a participant
// is in flight), reports the first failure in input order, and completes
// inline on the thread that completes the last input.

/// The failure status carried by a Result. For Result<Status> the payload
/// itself is the outcome, so a transport error and a returned non-OK Status
/// count alike; for any other type only the error channel can fail.
inline Status FailureOf(const Result<Status>& r) {
  return r.ok() ? r.value() : r.status();
}
template <typename T>
Status FailureOf(const Result<T>& r) {
  return r.ok() ? Status::OK() : r.status();
}

/// Resolves, as a value, to the first non-OK status in input order — a
/// transport error and a returned non-OK Status count alike — else to OK.
/// Folds each ack as it lands instead of gathering a result vector first.
inline Future<Status> AllOk(const std::vector<Future<Status>>& acks) {
  if (acks.empty()) return Future<Status>::FromValue(Status::OK());
  struct Fold {
    std::mutex mu;
    size_t pending = 0;
    /// Input position of `first` (acks.size() while every ack is OK).
    size_t first_pos = 0;
    Status first;
    Promise<Status> done;
  };
  auto fold = std::make_shared<Fold>();
  fold->pending = acks.size();
  fold->first_pos = acks.size();
  for (size_t i = 0; i < acks.size(); ++i) {
    acks[i].OnReady([fold, i](Result<Status>&& r) {
      Status st = FailureOf(r);
      bool last = false;
      {
        std::lock_guard<std::mutex> lock(fold->mu);
        if (!st.ok() && i < fold->first_pos) {
          fold->first_pos = i;
          fold->first = std::move(st);
        }
        last = --fold->pending == 0;
      }
      if (last) fold->done.SetValue(std::move(fold->first));
    });
  }
  return fold->done.GetFuture();
}

/// Resolves to the values in input order, or fails with the first error in
/// input order.
template <typename T>
Future<std::vector<T>> AllValues(const std::vector<Future<T>>& futures) {
  Promise<std::vector<T>> done;
  WhenAll(futures).OnReady([done](Result<std::vector<Result<T>>>&& r) {
    std::vector<T> values;
    values.reserve(r.value().size());
    for (Result<T>& v : r.value()) {
      if (!v.ok()) {
        done.SetError(v.status());
        return;
      }
      values.push_back(std::move(v).value());
    }
    done.SetValue(std::move(values));
  });
  return done.GetFuture();
}

/// Detects Future specializations (used by the typed call dispatcher).
template <typename T>
struct IsFuture : std::false_type {};
template <typename U>
struct IsFuture<Future<U>> : std::true_type {
  using Inner = U;
};

}  // namespace aodb

#endif  // AODB_ACTOR_FUTURE_H_

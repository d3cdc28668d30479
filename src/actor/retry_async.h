// RetryAsync: runs a Future-producing operation under a RetryPolicy,
// scheduling backoff delays on an Executor (real timers or virtual time).
// This is the one retry loop shared by the workflow engine, the transaction
// coordinator, persistent-actor state I/O, and the platform client paths.

#ifndef AODB_ACTOR_RETRY_ASYNC_H_
#define AODB_ACTOR_RETRY_ASYNC_H_

#include <functional>
#include <memory>
#include <utility>

#include "actor/executor.h"
#include "actor/flight_recorder.h"
#include "actor/future.h"
#include "actor/trace.h"
#include "common/retry.h"

namespace aodb {

namespace internal {

template <typename T>
struct RetryLoop {
  Executor* exec;
  RetryState retry;
  Micros start_us;
  /// Trace context active when the loop was created; re-installed around
  /// every attempt so retries (which run from backoff timers, off the
  /// original thread context) stay in the caller's trace.
  TraceContext trace_ctx;
  /// Flight-recorder scope captured at creation: a loop constructed inside
  /// an actor turn (or lifecycle hook) records a "retry_exhausted" flight
  /// event against the hosting silo when it gives up. Client-side loops
  /// capture a null recorder and record nothing.
  FlightScope flight;
  std::function<Future<T>()> op;
  std::function<bool(const Status&)> retryable;
  std::function<void(const Status&)> on_retry;
  Promise<T> promise;

  RetryLoop(Executor* e, const RetryPolicy& policy, uint64_t seed)
      : exec(e),
        retry(policy, seed),
        start_us(e->clock()->Now()),
        trace_ctx(CurrentTraceContext()),
        flight(CurrentFlightScopeSlot()) {}

  static void Attempt(std::shared_ptr<RetryLoop<T>> loop) {
    Future<T> attempt = [&loop] {
      ScopedTraceContext scope(loop->trace_ctx);
      return loop->op();
    }();
    attempt.OnReady([loop](Result<T>&& r) {
      Status st = FailureOf(r);
      if (st.ok() || !loop->retryable(st)) {
        loop->promise.SetResult(std::move(r));
        return;
      }
      Micros elapsed = loop->exec->clock()->Now() - loop->start_us;
      std::optional<Micros> backoff = loop->retry.NextBackoff(elapsed);
      if (!backoff.has_value()) {
        if (loop->flight.recorder != nullptr) {
          loop->flight.recorder->Record(
              FlightEventType::kRetryExhausted, loop->flight.silo,
              /*actor=*/"", loop->trace_ctx.trace_id, loop->retry.attempts(),
              loop->exec->clock()->Now());
        }
        loop->promise.SetResult(std::move(r));
        return;
      }
      if (loop->on_retry) loop->on_retry(st);
      loop->exec->PostAfter(*backoff, [loop] { Attempt(loop); });
    });
  }
};

}  // namespace internal

/// Runs `op` until it succeeds, fails non-retryably, or exhausts `policy`.
/// `retryable` classifies failure statuses (defaults to IsTransient);
/// `on_retry` is invoked before each backoff sleep (for counters/logs). The
/// jittered backoff sequence is derived from `seed`, so simulation-mode
/// callers get reproducible schedules.
template <typename T>
Future<T> RetryAsync(Executor* exec, const RetryPolicy& policy, uint64_t seed,
                     std::function<Future<T>()> op,
                     std::function<bool(const Status&)> retryable = IsTransient,
                     std::function<void(const Status&)> on_retry = nullptr) {
  auto loop = std::make_shared<internal::RetryLoop<T>>(exec, policy, seed);
  loop->op = std::move(op);
  loop->retryable = std::move(retryable);
  loop->on_retry = std::move(on_retry);
  Future<T> out = loop->promise.GetFuture();
  internal::RetryLoop<T>::Attempt(std::move(loop));
  return out;
}

}  // namespace aodb

#endif  // AODB_ACTOR_RETRY_ASYNC_H_

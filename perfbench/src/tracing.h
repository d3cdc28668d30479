// Bench-side tracing for the traced run: an in-memory span recorder and the
// timing wrappers the Cluster is built from (Executor, KvStore). Nothing here
// is compiled into the library; spans are recorded only around calls into
// the public interfaces, and only while tracing is switched on.
//
// Causality: every span records the span that caused it. A task posted from
// inside a span (a platform call, another task, a timer callback) gets that
// span as parent, and a storage call gets the task it runs in. Spans of one
// client request share the request's root span id as their trace id.

#ifndef PERFBENCH_TRACING_H_
#define PERFBENCH_TRACING_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "actor/executor.h"
#include "common/telemetry.h"
#include "storage/kv_store.h"

namespace perfbench {

/// Monotonic nanoseconds (steady clock).
int64_t NowNs();

enum class SpanKind : uint8_t {
  kInsert,       // ShmPlatform::Insert, issue -> completion
  kLiveData,     // ShmPlatform::LiveData
  kRawRange,     // ShmPlatform::RawRange
  kSiloTask,     // silo executor Post task
  kSiloTimer,    // silo executor PostAt/PostAfter callback (wire delivery)
  kClientTask,   // client executor Post task
  kClientTimer,  // client executor PostAt/PostAfter callback (replies)
  kKvPut,
  kKvGet,
  kKvApply,
  kKvDelete,
  kKvList,
  kCount,
};
const char* SpanKindName(SpanKind kind);

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0: root
  uint64_t trace = 0;   // root span id of the request; 0: unattributed
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  SpanKind kind = SpanKind::kCount;  // kCount marks an unused slot
};

/// The span a thread is currently inside.
struct SpanContext {
  uint64_t span = 0;
  uint64_t trace = 0;
};

/// Master switch of span recording and of the timing wrappers. While off,
/// the wrappers forward each call after one relaxed load.
bool TracingOn();
void SetTracing(bool on);

SpanContext& CurrentSpan();
uint64_t NewSpanId();
/// Stores a finished span (dropped, and counted, once the buffer is full).
void RecordSpan(const Span& span);

/// Makes `span` the thread's current span for the scope's lifetime.
class ScopedSpanContext {
 public:
  explicit ScopedSpanContext(SpanContext ctx)
      : saved_(CurrentSpan()) {
    CurrentSpan() = ctx;
  }
  ~ScopedSpanContext() { CurrentSpan() = saved_; }
  ScopedSpanContext(const ScopedSpanContext&) = delete;
  ScopedSpanContext& operator=(const ScopedSpanContext&) = delete;

 private:
  SpanContext saved_;
};

/// Per-kind aggregate of the recorded spans. Self time is a span's duration
/// minus the part of it covered by its (visible) child spans.
struct SpanKindSummary {
  int64_t count = 0;
  double mean_us = 0;
  double self_mean_us = 0;
  double self_p50_us = 0;
};

struct SpanReport {
  int64_t recorded = 0;
  int64_t dropped = 0;
  std::vector<SpanKindSummary> kinds;  // indexed by SpanKind
};

/// Summarizes every recorded span and writes them, with the summary, as
/// JSON to `path`. Call only after every thread that records has been
/// joined.
SpanReport FinishSpans(const std::string& path);

/// Executor wrapper: times each task's wait from Post to start (and each
/// timer callback's lateness past its due time) and records a span around
/// each. Forwards everything else, SupportsTurnBatching included, so the
/// Cluster behaves exactly as over the wrapped executor.
class TimingExecutor final : public aodb::Executor {
 public:
  TimingExecutor(aodb::Executor* inner, SpanKind task_kind,
                 SpanKind timer_kind);

  void Post(aodb::Task task) override;
  void PostAfter(aodb::Micros delay_us, std::function<void()> fn) override;
  void PostAt(aodb::Micros due, std::function<void()> fn) override;
  aodb::Clock* clock() override { return inner_->clock(); }
  int workers() const override { return inner_->workers(); }
  aodb::ExecutorStats Stats() const override { return inner_->Stats(); }
  bool SupportsTurnBatching() const override {
    return inner_->SupportsTurnBatching();
  }

  /// Post -> start wait of tasks, in ns.
  const aodb::ConcurrentHistogram& queue_wait_ns() const {
    return queue_wait_ns_;
  }
  /// Start minus due time of timer callbacks, in ns.
  const aodb::ConcurrentHistogram& timer_late_ns() const {
    return timer_late_ns_;
  }

 private:
  aodb::Executor* const inner_;
  const SpanKind task_kind_;
  const SpanKind timer_kind_;
  aodb::ConcurrentHistogram queue_wait_ns_;
  aodb::ConcurrentHistogram timer_late_ns_;
};

/// Storage-call counters of TimingKvStore.
struct KvCounters {
  int64_t puts = 0;  // Put calls plus ops inside Apply batches
  int64_t gets = 0;
  int64_t put_bytes = 0;  // key + value bytes handed to Put/Apply
  int64_t busy_ns = 0;    // time inside storage calls
};

/// KvStore wrapper: counts and times every storage call and records a span
/// around it, as a child of the executor task that made it.
class TimingKvStore final : public aodb::KvStore {
 public:
  explicit TimingKvStore(aodb::KvStore* inner) : inner_(inner) {}

  aodb::Status Put(const std::string& key, const std::string& value) override;
  aodb::Result<std::string> Get(const std::string& key) override;
  aodb::Status Delete(const std::string& key) override;
  aodb::Result<std::vector<std::pair<std::string, std::string>>> List(
      const std::string& prefix) override;
  aodb::Status Apply(const aodb::WriteBatch& batch) override;
  aodb::Result<int64_t> Count() override { return inner_->Count(); }

  KvCounters counters() const;
  const aodb::ConcurrentHistogram& put_ns() const { return put_ns_; }
  const aodb::ConcurrentHistogram& get_ns() const { return get_ns_; }

 private:
  template <typename Fn>
  auto Timed(SpanKind kind, aodb::ConcurrentHistogram* hist, Fn&& fn);

  aodb::KvStore* const inner_;
  std::atomic<int64_t> puts_{0};
  std::atomic<int64_t> gets_{0};
  std::atomic<int64_t> put_bytes_{0};
  std::atomic<int64_t> busy_ns_{0};
  aodb::ConcurrentHistogram put_ns_;
  aodb::ConcurrentHistogram get_ns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACING_H_

#include "tracing.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <utility>

namespace perfbench {
namespace {

// Spans live in one preallocated buffer that threads claim in chunks, so
// recording takes no lock and, per chunk, one shared atomic. Once it is
// full further spans are dropped and counted; the per-layer metrics come
// from the wrappers' histograms and counters, which see every call.
constexpr size_t kSpanCapacity = size_t{1} << 19;
constexpr size_t kChunk = 1024;

std::atomic<bool> g_tracing{false};
std::unique_ptr<Span[]> g_spans;
std::atomic<size_t> g_next_slot{0};
std::atomic<int64_t> g_dropped{0};
std::atomic<uint64_t> g_next_thread{1};

struct ThreadSlots {
  size_t cur = 0;
  size_t end = 0;
  uint64_t thread_id = 0;
  uint64_t next_local = 0;
};

ThreadSlots& MySlots() {
  thread_local ThreadSlots slots;
  return slots;
}

double Percentile(std::vector<int64_t>& v, double p) {
  if (v.empty()) return 0;
  size_t k = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(k), v.end());
  return static_cast<double>(v[k]);
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kInsert: return "shm.Insert";
    case SpanKind::kLiveData: return "shm.LiveData";
    case SpanKind::kRawRange: return "shm.RawRange";
    case SpanKind::kSiloTask: return "executor.silo.task";
    case SpanKind::kSiloTimer: return "executor.silo.timer";
    case SpanKind::kClientTask: return "executor.client.task";
    case SpanKind::kClientTimer: return "executor.client.timer";
    case SpanKind::kKvPut: return "storage.put";
    case SpanKind::kKvGet: return "storage.get";
    case SpanKind::kKvApply: return "storage.apply";
    case SpanKind::kKvDelete: return "storage.delete";
    case SpanKind::kKvList: return "storage.list";
    case SpanKind::kCount: break;
  }
  return "?";
}

// Release/acquire: a thread that sees tracing on also sees the span buffer.
bool TracingOn() { return g_tracing.load(std::memory_order_acquire); }

void SetTracing(bool on) {
  if (on && !g_spans) g_spans.reset(new Span[kSpanCapacity]);
  g_tracing.store(on, std::memory_order_release);
}

SpanContext& CurrentSpan() {
  thread_local SpanContext ctx;
  return ctx;
}

uint64_t NewSpanId() {
  ThreadSlots& s = MySlots();
  if (s.thread_id == 0) {
    s.thread_id = g_next_thread.fetch_add(1, std::memory_order_relaxed);
  }
  return (s.thread_id << 40) | ++s.next_local;
}

void RecordSpan(const Span& span) {
  ThreadSlots& s = MySlots();
  if (s.cur == s.end) {
    size_t base = g_next_slot.fetch_add(kChunk, std::memory_order_relaxed);
    if (base >= kSpanCapacity) {
      g_dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    s.cur = base;
    s.end = std::min(base + kChunk, kSpanCapacity);
  }
  g_spans[s.cur++] = span;
}

SpanReport FinishSpans(const std::string& path) {
  SpanReport report;
  report.kinds.resize(static_cast<size_t>(SpanKind::kCount));
  report.dropped = g_dropped.load();
  std::vector<Span> spans;
  if (g_spans) {
    size_t used = std::min(g_next_slot.load(), kSpanCapacity);
    for (size_t i = 0; i < used; ++i) {
      if (g_spans[i].kind != SpanKind::kCount) spans.push_back(g_spans[i]);
    }
  }
  report.recorded = static_cast<int64_t>(spans.size());

  // Children sorted by (parent, start): each span's children are one
  // contiguous run, and their covered time is a sweep over that run.
  std::vector<const Span*> by_parent;
  by_parent.reserve(spans.size());
  for (const Span& s : spans) {
    if (s.parent != 0) by_parent.push_back(&s);
  }
  std::sort(by_parent.begin(), by_parent.end(),
            [](const Span* a, const Span* b) {
              return a->parent != b->parent ? a->parent < b->parent
                                            : a->start_ns < b->start_ns;
            });
  std::vector<std::vector<int64_t>> self_ns(report.kinds.size());
  std::vector<double> total_ns(report.kinds.size(), 0);
  for (const Span& s : spans) {
    auto it = std::lower_bound(
        by_parent.begin(), by_parent.end(), s.id,
        [](const Span* c, uint64_t id) { return c->parent < id; });
    int64_t covered = 0;
    int64_t reach = s.start_ns;
    for (; it != by_parent.end() && (*it)->parent == s.id; ++it) {
      int64_t lo = std::max((*it)->start_ns, reach);
      int64_t hi = std::min((*it)->end_ns, s.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
    size_t k = static_cast<size_t>(s.kind);
    int64_t dur = s.end_ns - s.start_ns;
    self_ns[k].push_back(dur - covered);
    total_ns[k] += static_cast<double>(dur);
  }
  for (size_t k = 0; k < report.kinds.size(); ++k) {
    SpanKindSummary& sum = report.kinds[k];
    sum.count = static_cast<int64_t>(self_ns[k].size());
    if (sum.count == 0) continue;
    double self_total = 0;
    for (int64_t v : self_ns[k]) self_total += static_cast<double>(v);
    sum.mean_us = total_ns[k] / static_cast<double>(sum.count) / 1e3;
    sum.self_mean_us = self_total / static_cast<double>(sum.count) / 1e3;
    sum.self_p50_us = Percentile(self_ns[k], 0.5) / 1e3;
  }

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return report;
  std::fprintf(f, "{\"spans_recorded\":%lld,\"spans_dropped\":%lld,\"kinds\":{",
               static_cast<long long>(report.recorded),
               static_cast<long long>(report.dropped));
  for (size_t k = 0; k < report.kinds.size(); ++k) {
    const SpanKindSummary& sum = report.kinds[k];
    std::fprintf(f,
                 "%s\"%s\":{\"count\":%lld,\"mean_us\":%.3f,"
                 "\"self_mean_us\":%.3f,\"self_p50_us\":%.3f}",
                 k == 0 ? "" : ",", SpanKindName(static_cast<SpanKind>(k)),
                 static_cast<long long>(sum.count), sum.mean_us,
                 sum.self_mean_us, sum.self_p50_us);
  }
  std::fprintf(f, "},\"columns\":[\"id\",\"parent\",\"trace\",\"kind\","
                  "\"start_ns\",\"end_ns\"],\"spans\":[");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%s[%llu,%llu,%llu,\"%s\",%lld,%lld]", i == 0 ? "" : ",",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.trace),
                 SpanKindName(s.kind), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
  return report;
}

// --- TimingExecutor ---------------------------------------------------------

namespace {

/// Runs `fn` as span `kind`, a child of `parent`, starting at `start`.
template <typename Fn>
void RunInSpan(SpanKind kind, SpanContext parent, int64_t start,
               const Fn& fn) {
  uint64_t id = NewSpanId();
  {
    ScopedSpanContext scope(SpanContext{id, parent.trace});
    fn();
  }
  RecordSpan(Span{id, parent.span, parent.trace, start, NowNs(), kind});
}

}  // namespace

TimingExecutor::TimingExecutor(aodb::Executor* inner, SpanKind task_kind,
                               SpanKind timer_kind)
    : inner_(inner), task_kind_(task_kind), timer_kind_(timer_kind) {}

void TimingExecutor::Post(aodb::Task task) {
  if (!TracingOn()) {
    inner_->Post(std::move(task));
    return;
  }
  int64_t posted = NowNs();
  SpanContext parent = CurrentSpan();
  aodb::Micros cost = task.cost_us;
  inner_->Post(aodb::Task{
      [this, fn = std::move(task.fn), posted, parent] {
        int64_t start = NowNs();
        queue_wait_ns_.Record(start - posted);
        RunInSpan(task_kind_, parent, start, fn);
      },
      cost});
}

void TimingExecutor::PostAfter(aodb::Micros delay_us,
                               std::function<void()> fn) {
  PostAt(clock()->Now() + std::max<aodb::Micros>(delay_us, 0), std::move(fn));
}

void TimingExecutor::PostAt(aodb::Micros due, std::function<void()> fn) {
  if (!TracingOn()) {
    inner_->PostAt(due, std::move(fn));
    return;
  }
  SpanContext parent = CurrentSpan();
  inner_->PostAt(due, [this, fn = std::move(fn), due, parent] {
    int64_t start = NowNs();
    timer_late_ns_.Record((clock()->Now() - due) * 1000);
    RunInSpan(timer_kind_, parent, start, fn);
  });
}

// --- TimingKvStore ----------------------------------------------------------

template <typename Fn>
auto TimingKvStore::Timed(SpanKind kind, aodb::ConcurrentHistogram* hist,
                          Fn&& fn) {
  if (!TracingOn()) return fn();
  SpanContext parent = CurrentSpan();
  uint64_t id = NewSpanId();
  int64_t start = NowNs();
  auto result = fn();
  int64_t end = NowNs();
  busy_ns_.fetch_add(end - start, std::memory_order_relaxed);
  if (hist != nullptr) hist->Record(end - start);
  RecordSpan(Span{id, parent.span, parent.trace, start, end, kind});
  return result;
}

aodb::Status TimingKvStore::Put(const std::string& key,
                                const std::string& value) {
  if (TracingOn()) {
    puts_.fetch_add(1, std::memory_order_relaxed);
    put_bytes_.fetch_add(static_cast<int64_t>(key.size() + value.size()),
                         std::memory_order_relaxed);
  }
  return Timed(SpanKind::kKvPut, &put_ns_,
               [&] { return inner_->Put(key, value); });
}

aodb::Result<std::string> TimingKvStore::Get(const std::string& key) {
  if (TracingOn()) gets_.fetch_add(1, std::memory_order_relaxed);
  return Timed(SpanKind::kKvGet, &get_ns_, [&] { return inner_->Get(key); });
}

aodb::Status TimingKvStore::Delete(const std::string& key) {
  return Timed(SpanKind::kKvDelete, nullptr,
               [&] { return inner_->Delete(key); });
}

aodb::Result<std::vector<std::pair<std::string, std::string>>>
TimingKvStore::List(const std::string& prefix) {
  return Timed(SpanKind::kKvList, nullptr,
               [&] { return inner_->List(prefix); });
}

aodb::Status TimingKvStore::Apply(const aodb::WriteBatch& batch) {
  if (TracingOn()) {
    int64_t bytes = 0;
    for (const auto& op : batch.ops) {
      bytes += static_cast<int64_t>(op.key.size() + op.value.size());
    }
    puts_.fetch_add(static_cast<int64_t>(batch.ops.size()),
                    std::memory_order_relaxed);
    put_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  return Timed(SpanKind::kKvApply, &put_ns_,
               [&] { return inner_->Apply(batch); });
}

KvCounters TimingKvStore::counters() const {
  return KvCounters{puts_.load(), gets_.load(), put_bytes_.load(),
                    busy_ns_.load()};
}

}  // namespace perfbench

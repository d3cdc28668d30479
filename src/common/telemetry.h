// Unified metrics registry: named counters, gauges, and concurrent
// histograms with cheap relaxed-atomic recording, plus snapshot/delta/merge
// export as an aligned text table or JSON. This is the one measurement
// substrate the runtime reports through — the wire lane, membership,
// failover, retry engines, storage providers, and per-actor turn profiling
// all register their series here (see Cluster::DumpMetrics).
//
// Recording discipline: callers resolve a metric pointer once (registration
// takes a lock) and record through it forever after (lock-free, relaxed
// atomics). Snapshots are weakly consistent — concurrent recorders may or
// may not be included — which is the right trade for monitoring.

#ifndef AODB_COMMON_TELEMETRY_H_
#define AODB_COMMON_TELEMETRY_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <utility>

#include "common/histogram.h"

namespace aodb {

/// Escapes `s` for embedding in a JSON string literal (quotes, backslashes,
/// control characters). Every JSON writer in the runtime (metrics, traces,
/// flight events, postmortem bundles) routes names through this so a dump
/// never emits invalid JSON whatever the metric/actor name.
std::string JsonEscape(const std::string& s);

/// Monotonic event count. Lock-free; safe from any thread.
class Counter {
 public:
  void Add(int64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Last-write-wins level (queue depth, activation count). Lock-free.
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Thread-safe histogram over the same log-bucket layout as Histogram.
/// Plain Histogram::Record is data-racy under concurrent writers; the
/// registry hands out this wrapper instead: every bucket is an atomic, so
/// concurrent Record calls lose nothing, and Snapshot() materializes a
/// plain Histogram for percentile queries. Min/max are tracked exactly via
/// CAS; mean/stddev in the snapshot are bucket-midpoint approximations
/// (<= ~1.6% relative error, same as the percentiles).
class ConcurrentHistogram {
 public:
  ConcurrentHistogram();

  /// Records one observation; negative values clamp to zero. Lock-free.
  void Record(int64_t value);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }

  /// Weakly consistent materialization for percentile/summary queries.
  Histogram Snapshot() const;

 private:
  std::unique_ptr<std::atomic<int64_t>[]> buckets_;
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> min_;
  std::atomic<int64_t> max_{0};
};

/// Point-in-time export of a registry: plain values, independently
/// mergeable (across load-generator clients) and subtractable (interval
/// deltas around a measurement window).
struct MetricsSnapshot {
  std::map<std::string, int64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, Histogram> histograms;

  /// This snapshot minus an earlier one: counters and histogram buckets
  /// subtract (clamped at zero); gauges keep this snapshot's level.
  MetricsSnapshot Delta(const MetricsSnapshot& earlier) const;

  /// Accumulates another snapshot: counters add, histograms merge, gauges
  /// sum (the convention for sharded recorders reporting one total).
  void Merge(const MetricsSnapshot& other);

  /// Aligned text table (name, value | histogram summary), sorted by name.
  std::string ToTable() const;

  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{name:
  /// {count,mean,p50,p90,p99,p999,max}}}. Keys are sorted (std::map), so
  /// output is deterministic.
  std::string ToJson() const;
};

/// Bounded time-series of metric deltas: each Record(t, snapshot) stores the
/// delta against the previous snapshot, so the series shows metric
/// *evolution* per interval instead of cumulative totals. Oldest entries
/// fall off past `capacity`. Mutex-guarded — the sampler ticks on a
/// background cadence, never on the message hot path.
class MetricsTimeline {
 public:
  /// Samples the cluster's timeline keeps; the oldest fall off.
  static constexpr size_t kDefaultCapacity = 256;

  explicit MetricsTimeline(size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Appends the delta of `snap` against the previously recorded snapshot
  /// (the first call records the snapshot as-is — the delta from zero).
  void Record(int64_t t_us, const MetricsSnapshot& snap);

  size_t size() const;

  /// [{"t_us":N,"metrics":{...}}, ...] in record order (deterministic).
  std::string ToJson() const;

  void Clear();

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  bool has_prev_ = false;
  MetricsSnapshot prev_;
  std::deque<std::pair<int64_t, MetricsSnapshot>> entries_;
};

/// Named metric registry. Get* registers on first use and returns a pointer
/// stable for the registry's lifetime; record through the pointer.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  ConcurrentHistogram* GetHistogram(const std::string& name);

  MetricsSnapshot Snapshot() const;

 private:
  mutable std::shared_mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<ConcurrentHistogram>> histograms_;
};

}  // namespace aodb

#endif  // AODB_COMMON_TELEMETRY_H_

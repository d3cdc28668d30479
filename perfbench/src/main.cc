// Real-mode benchmark of the SHM IoT platform (paper §6, Figures 6-9) on
// real threads. One process runs one workload:
//
//   shm_perfbench --workload <ingest|query_mix|durable_scale> --seed <n>
//                 --seconds <s> --trace <0|1> --out-dir <dir>
//
// --trace 0 reports the end-to-end metrics of an untraced run. --trace 1
// builds the cluster over the timing wrappers and reports the per-layer
// metrics of a traced window, next to an untraced window of the same
// cluster for the tracing overhead. Output checks run before any number is
// printed; the last stdout line is one JSON object. perfbench/NOTES.md
// explains the workloads and metrics.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <climits>
#include <fstream>
#include <map>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "alloc_hook.h"
#include "rig.h"
#include "storage/file_kv.h"
#include "tracing.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

constexpr int64_t kNsPerSec = 1000000000;
constexpr int64_t kWarmupNs = 2 * kNsPerSec;
constexpr int64_t kDrainTimeoutNs = 60 * kNsPerSec;

struct Workload {
  std::string name;
  RigConfig rig;
  int setup_reps = 9;
  // Closed loop (inflight > 0) or open loop (rates).
  int inflight = 0;
  double inserts_per_s = 0;
  double live_per_s = 0;
  double raw_per_s = 0;
  // Post-window query probes of the closed-loop workloads: probe_rounds
  // rounds of one LiveData call followed by raw_per_round RawRange calls,
  // all sequential.
  int probe_rounds = 0;
  int raw_per_round = 0;
};

// Thread budget (nproc = 4): silo workers + 1 client worker + 1 generator
// thread (open loop only; the closed loop issues from completions) <= 4.
// query_mix runs only on request: its tails are too unsteady on a shared
// 4-vCPU host to carry a regression bound (NOTES.md), so BENCHMARK.json
// lists ingest and durable_scale.
std::optional<Workload> FindWorkload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "ingest") {
    w.rig.silos = 1;
    w.rig.workers_per_silo = 2;
    w.rig.sensors = 2000;
    w.inflight = 32;
    w.probe_rounds = 3000;
    w.raw_per_round = 10;
  } else if (name == "query_mix") {
    w.rig.silos = 2;
    w.rig.workers_per_silo = 1;
    w.rig.sensors = 2000;
    w.inserts_per_s = 10000;
    w.live_per_s = 100;
    w.raw_per_s = 100;
  } else if (name == "durable_scale") {
    w.rig.silos = 1;
    w.rig.workers_per_silo = 2;
    w.rig.sensors = 20000;
    w.rig.durable = true;
    w.rig.max_resident = 40000;
    w.setup_reps = 5;
    w.inflight = 32;
    w.probe_rounds = 3000;
    w.raw_per_round = 10;
  } else {
    return std::nullopt;
  }
  return w;
}

// --- Measurement helpers -------------------------------------------------------

int64_t CpuUs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto us = [](const timeval& tv) {
    return static_cast<int64_t>(tv.tv_sec) * 1000000 + tv.tv_usec;
  };
  return us(ru.ru_utime) + us(ru.ru_stime);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

/// Nearest-rank percentile (p in [0, 1]) of `v`; sorts it.
double Pct(std::vector<int64_t>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return static_cast<double>(v[rank == 0 ? 0 : rank - 1]);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

int64_t TotalAcked(const SensorBook& book) {
  int64_t n = 0;
  for (int s = 0; s < book.sensors(); ++s) n += book.acked(s);
  return n;
}

/// Everything a window boundary records.
struct Snap {
  int64_t t_ns = 0;
  aodb::MetricsSnapshot metrics;
  aodb::ExecutorStats silo;
  KvCounters kv;
  int64_t log_bytes = 0;
  int64_t compactions = 0;
  AllocCounts alloc;
  int64_t cpu_us = 0;
};

Snap Take(Rig& rig, const aodb::FileKvStore* store) {
  Snap s;
  s.metrics = rig.cluster().SnapshotMetrics();
  s.silo = rig.SiloStats();
  if (rig.timing_kv() != nullptr) s.kv = rig.timing_kv()->counters();
  if (store != nullptr) {
    s.log_bytes = store->BytesAppended();
    s.compactions = store->Compactions();
  }
  s.alloc = ReadAllocCounts();
  s.cpu_us = CpuUs();
  s.t_ns = NowNs();
  return s;
}

int64_t GaugeValue(const aodb::MetricsSnapshot& m, const std::string& name) {
  auto it = m.gauges.find(name);
  return it == m.gauges.end() ? 0 : it->second;
}

int64_t CounterDelta(const Snap& a, const Snap& b, const std::string& name) {
  auto get = [&](const aodb::MetricsSnapshot& m) -> int64_t {
    auto it = m.counters.find(name);
    return it == m.counters.end() ? 0 : it->second;
  };
  return get(b.metrics) - get(a.metrics);
}

/// Sum of counter deltas whose name starts with `prefix` and ends with
/// `suffix`.
int64_t CounterDeltaSum(const Snap& a, const Snap& b, const std::string& prefix,
                        const std::string& suffix) {
  int64_t sum = 0;
  for (const auto& [name, v] : b.metrics.counters) {
    if (name.rfind(prefix, 0) != 0 || name.size() < suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    auto it = a.metrics.counters.find(name);
    sum += v - (it == a.metrics.counters.end() ? 0 : it->second);
  }
  return sum;
}

/// Window delta of every registry histogram named `prefix`*, merged.
aodb::Histogram HistDelta(const Snap& a, const Snap& b,
                          const std::string& prefix) {
  aodb::Histogram out;
  for (const auto& [name, h] : b.metrics.histograms) {
    if (name.rfind(prefix, 0) != 0) continue;
    aodb::Histogram d = h;
    auto it = a.metrics.histograms.find(name);
    if (it != a.metrics.histograms.end()) d.SubtractClamped(it->second);
    out.Merge(d);
  }
  return out;
}

using Metrics = std::map<std::string, double>;

/// Latency and throughput of one window's operations.
struct WindowOps {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t ok_ops = 0;
  int64_t inserts_ok = 0;
  std::vector<int64_t> insert_ns, live_ns, raw_ns;
};

WindowOps Collect(const std::vector<OpLog::Entry>& entries) {
  WindowOps w;
  for (const OpLog::Entry& e : entries) {
    ++w.attempted;
    if (!e.ok) {
      ++w.failed;
      continue;
    }
    ++w.ok_ops;
    switch (e.kind) {
      case OpKind::kInsert:
        ++w.inserts_ok;
        w.insert_ns.push_back(e.latency_ns);
        break;
      case OpKind::kLive: w.live_ns.push_back(e.latency_ns); break;
      case OpKind::kRaw: w.raw_ns.push_back(e.latency_ns); break;
    }
  }
  return w;
}

// Tail latencies and rates are medians over sub-windows of the measured
// window: one stalled second (CPU steal on a shared host) then moves the
// figure little, where it can move a whole-window p99 by several times.
// Each sub-window keeps at least kMinTailSamples operations of the kind
// measured, so its p99 has at least ten samples beyond it.
constexpr size_t kMinTailSamples = 1000;

/// Median over sub-windows of [from, to) of the p-quantile of `kind`'s
/// successful latencies. Sub-windows are equal in length, at most one per
/// second, and as many as keep kMinTailSamples operations each.
double SubwindowPct(const std::vector<OpLog::Entry>& entries, OpKind kind,
                    int64_t from, int64_t to, double p) {
  std::vector<const OpLog::Entry*> mine;
  for (const OpLog::Entry& e : entries) {
    if (e.ok && e.kind == kind && e.key_ns >= from && e.key_ns < to) {
      mine.push_back(&e);
    }
  }
  const int64_t span = std::max<int64_t>(1, to - from);
  const int64_t k = std::clamp<int64_t>(
      static_cast<int64_t>(mine.size() / kMinTailSamples), 1,
      std::max<int64_t>(1, span / kNsPerSec));
  std::vector<std::vector<int64_t>> parts(static_cast<size_t>(k));
  for (const OpLog::Entry* e : mine) {
    int64_t i = std::min(k - 1, (e->key_ns - from) * k / span);
    parts[static_cast<size_t>(i)].push_back(e->latency_ns);
  }
  std::vector<double> pcts;
  for (auto& part : parts) {
    if (!part.empty()) pcts.push_back(Pct(part, p));
  }
  return Median(pcts);
}

/// Median over one-second sub-windows of [from, to) of successful inserts
/// per second (keyed by completion in a closed loop, by due time in an open
/// one).
double SubwindowInsertRate(const std::vector<OpLog::Entry>& entries,
                           int64_t from, int64_t to) {
  const int64_t k = std::max<int64_t>(1, (to - from) / kNsPerSec);
  const int64_t span = std::max<int64_t>(1, to - from);
  std::vector<double> counts(static_cast<size_t>(k), 0);
  for (const OpLog::Entry& e : entries) {
    if (!e.ok || e.kind != OpKind::kInsert || e.key_ns < from ||
        e.key_ns >= to) {
      continue;
    }
    counts[static_cast<size_t>(std::min(k - 1, (e.key_ns - from) * k / span))] += 1;
  }
  const double sub_s = static_cast<double>(span) / static_cast<double>(k) / 1e9;
  for (double& c : counts) c /= sub_s;
  return Median(counts);
}

/// Median, over parts of kMinTailSamples consecutive successful `kind`
/// operations (in issue order), of each part's p-quantile. Used for the
/// sequential probes, which issue thousands of queries a second: a stall of
/// the host then spoils a few parts, not the figure.
double ChunkPct(const std::vector<OpLog::Entry>& entries, OpKind kind,
                double p) {
  std::vector<const OpLog::Entry*> mine;
  for (const OpLog::Entry& e : entries) {
    if (e.ok && e.kind == kind) mine.push_back(&e);
  }
  std::stable_sort(mine.begin(), mine.end(),
                   [](const OpLog::Entry* x, const OpLog::Entry* y) {
                     return x->key_ns < y->key_ns;
                   });
  const size_t k = std::max<size_t>(1, mine.size() / kMinTailSamples);
  std::vector<double> pcts;
  for (size_t c = 0; c < k; ++c) {
    const size_t lo = c * mine.size() / k, hi = (c + 1) * mine.size() / k;
    std::vector<int64_t> part;
    for (size_t i = lo; i < hi; ++i) part.push_back(mine[i]->latency_ns);
    if (!part.empty()) pcts.push_back(Pct(part, p));
  }
  return Median(pcts);
}

/// Per-layer metrics of the window [a, b] with `ops` completed operations.
void LayerMetrics(const Snap& a, const Snap& b, const WindowOps& w, Rig& rig,
                  Metrics* m) {
  const double ops = static_cast<double>(w.ok_ops);
  const double window_us = static_cast<double>(b.t_ns - a.t_ns) / 1e3;
  const double workers = rig.silo_workers();
  Metrics& out = *m;

  out["shm.msgs_per_op"] = Ratio(
      static_cast<double>(GaugeValue(b.metrics, "cluster.messages_processed") -
                          GaugeValue(a.metrics, "cluster.messages_processed")),
      ops);

  out["wire.requests_per_op"] =
      Ratio(static_cast<double>(CounterDelta(a, b, "wire.requests")), ops);
  out["wire.bytes_per_op"] = Ratio(
      static_cast<double>(CounterDelta(a, b, "wire.request_bytes") +
                          CounterDelta(a, b, "wire.reply_bytes")),
      ops);
  out["wire.local_sends_per_op"] = Ratio(
      static_cast<double>(CounterDelta(a, b, "wire.local_closure_sends")), ops);

  const double tasks = static_cast<double>(b.silo.tasks_run - a.silo.tasks_run);
  out["executor.tasks_per_op"] = Ratio(tasks, ops);
  out["executor.parks_per_ktask"] =
      Ratio(1000.0 * static_cast<double>(b.silo.parks - a.silo.parks), tasks);
  out["executor.steals_per_ktask"] =
      Ratio(1000.0 * static_cast<double>(b.silo.steals - a.silo.steals), tasks);
  out["executor.busy_share"] = Ratio(
      static_cast<double>(b.silo.busy_us - a.silo.busy_us), window_us * workers);
  aodb::Histogram qwait, tlate;
  for (const auto& t : rig.silo_timers()) {
    qwait.Merge(t->queue_wait_ns().Snapshot());
    tlate.Merge(t->timer_late_ns().Snapshot());
  }
  out["executor.queue_wait_p50_us"] =
      static_cast<double>(qwait.Percentile(50)) / 1e3;
  out["executor.queue_wait_p99_us"] =
      static_cast<double>(qwait.Percentile(99)) / 1e3;
  out["executor.timer_late_p99_us"] =
      static_cast<double>(tlate.Percentile(99)) / 1e3;

  aodb::Histogram turn_wait = HistDelta(a, b, "turn.queue_wait_us.");
  out["turn.queue_wait_p50_us"] =
      static_cast<double>(turn_wait.Percentile(50));
  out["turn.queue_wait_p99_us"] =
      static_cast<double>(turn_wait.Percentile(99));
  out["turn.exec_p50_us.Channel"] = static_cast<double>(
      HistDelta(a, b, "turn.exec_us.shm.Channel").Percentile(50));
  out["turn.exec_p50_us.Sensor"] = static_cast<double>(
      HistDelta(a, b, "turn.exec_us.shm.Sensor").Percentile(50));
  out["turn.exec_p50_us.Organization"] = static_cast<double>(
      HistDelta(a, b, "turn.exec_us.shm.Organization").Percentile(50));
  out["turn.exec_mean_us.Aggregator"] =
      HistDelta(a, b, "turn.exec_us.shm.Aggregator").Mean();

  out["directory.contention_per_kop"] = Ratio(
      1000.0 * static_cast<double>(
                   CounterDeltaSum(a, b, "directory.partition.", ".contention")),
      ops);

  out["paging.faults_per_op"] = Ratio(
      static_cast<double>(CounterDelta(a, b, "activation.fault.count")), ops);
  out["paging.evictions_per_op"] = Ratio(
      static_cast<double>(CounterDelta(a, b, "activation.paged_out")), ops);
  out["paging.fault_load_p99_us"] = static_cast<double>(
      HistDelta(a, b, "activation.fault.load_us").Percentile(99));
  out["paging.fault_wait_p99_us"] = static_cast<double>(
      HistDelta(a, b, "activation.fault.queue_wait_us").Percentile(99));

  const double user_bytes = static_cast<double>(w.inserts_ok) *
                            kPointsPerPacket * kUserBytesPerPoint;
  out["storage.puts_per_op"] =
      Ratio(static_cast<double>(b.kv.puts - a.kv.puts), ops);
  out["storage.gets_per_op"] =
      Ratio(static_cast<double>(b.kv.gets - a.kv.gets), ops);
  aodb::Histogram put_ns, get_ns;
  if (rig.timing_kv() != nullptr) {
    put_ns = rig.timing_kv()->put_ns().Snapshot();
    get_ns = rig.timing_kv()->get_ns().Snapshot();
  }
  out["storage.put_p50_us"] = static_cast<double>(put_ns.Percentile(50)) / 1e3;
  out["storage.put_p99_us"] = static_cast<double>(put_ns.Percentile(99)) / 1e3;
  out["storage.get_p99_us"] = static_cast<double>(get_ns.Percentile(99)) / 1e3;
  out["storage.write_amp"] =
      Ratio(static_cast<double>(b.kv.put_bytes - a.kv.put_bytes), user_bytes);
  out["storage.log_amp"] =
      Ratio(static_cast<double>(b.log_bytes - a.log_bytes), user_bytes);
  out["storage.compactions"] = static_cast<double>(b.compactions - a.compactions);
  out["storage.busy_share"] =
      Ratio(static_cast<double>(b.kv.busy_ns - a.kv.busy_ns) / 1e3,
            window_us * workers);

  out["alloc.per_op"] =
      Ratio(static_cast<double>(b.alloc.calls - a.alloc.calls), ops);
  out["alloc.bytes_per_op"] =
      Ratio(static_cast<double>(b.alloc.bytes - a.alloc.bytes), ops);
}

// --- Output ----------------------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"points_per_s", "1/s"},
    {"insert_p50_ms", "ms"},   {"insert_p90_ms", "ms"},
    {"live_p50_ms", "ms"},     {"raw_p50_ms", "ms"},
    {"peak_rss_mb", "MB"},     {"cpu_us_per_op", "us"},
};

const MetricSpec kPerLayer[] = {
    {"shm.msgs_per_op", "count"},
    {"wire.requests_per_op", "count"},
    {"wire.bytes_per_op", "B"},
    {"wire.local_sends_per_op", "count"},
    {"executor.tasks_per_op", "count"},
    {"executor.parks_per_ktask", "count"},
    {"executor.steals_per_ktask", "count"},
    {"executor.busy_share", "ratio"},
    {"executor.queue_wait_p50_us", "us"},
    {"executor.queue_wait_p99_us", "us"},
    {"executor.timer_late_p99_us", "us"},
    {"executor.task_self_p50_us", "us"},
    {"turn.queue_wait_p50_us", "us"},
    {"turn.queue_wait_p99_us", "us"},
    {"turn.exec_p50_us.Channel", "us"},
    {"turn.exec_p50_us.Sensor", "us"},
    {"turn.exec_p50_us.Organization", "us"},
    {"turn.exec_mean_us.Aggregator", "us"},
    {"directory.contention_per_kop", "count"},
    {"paging.faults_per_op", "count"},
    {"paging.evictions_per_op", "count"},
    {"paging.fault_load_p99_us", "us"},
    {"paging.fault_wait_p99_us", "us"},
    {"storage.puts_per_op", "count"},
    {"storage.gets_per_op", "count"},
    {"storage.put_p50_us", "us"},
    {"storage.put_p99_us", "us"},
    {"storage.get_p99_us", "us"},
    {"storage.write_amp", "ratio"},
    {"storage.log_amp", "ratio"},
    {"storage.compactions", "count"},
    {"storage.busy_share", "ratio"},
    {"alloc.per_op", "count"},
    {"alloc.bytes_per_op", "B"},
    {"gen.late_p99_ms", "ms"},
    {"trace.overhead", "ratio"},
    {"trace.insert_p50_ratio", "ratio"},
    {"check.sensor_packets_lost", "count"},
    {"check.channel_points_lost", "count"},
};

template <size_t N>
void PrintResult(const MetricSpec (&specs)[N], const Metrics& m, bool correct,
                 int64_t attempted, int64_t failed) {
  for (const MetricSpec& s : specs) {
    auto it = m.find(s.name);
    std::printf("%-34s %16.6f %s\n", s.name, it == m.end() ? 0.0 : it->second,
                s.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < N; ++i) {
    auto it = m.find(specs[i].name);
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", specs[i].name,
                it == m.end() ? 0.0 : it->second, specs[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// --- Run -------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench/run";
};

/// Exits without a result. Used when operations are still outstanding:
/// their completions reference this run's state, so nothing is torn down.
[[noreturn]] void Abandon(const char* why) {
  std::fprintf(stderr, "benchmark abandoned: %s\n", why);
  std::fflush(nullptr);
  std::_Exit(1);
}

void SleepUntilNs(int64_t t_ns) {
  int64_t now = NowNs();
  if (t_ns > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t_ns - now));
}

/// Opens the FileKvStore in `dir`. Flush policy: the store's default,
/// sync_writes off — every write is appended and fflush()ed to the OS page
/// cache, none is fsynced.
std::unique_ptr<aodb::FileKvStore> OpenStore(const std::string& dir) {
  auto opened = aodb::FileKvStore::Open(dir);
  if (!opened.ok()) {
    throw std::runtime_error("FileKvStore::Open(" + dir +
                             "): " + opened.status().ToString());
  }
  return std::move(opened).value();
}

int Run(const Args& args, const Workload& w) {
  const bool traced = args.trace;
  const int64_t window_ns = static_cast<int64_t>(args.seconds) * kNsPerSec;
  fs::create_directories(args.out_dir);
  const std::string kv_dir = args.out_dir + "/kv-" + w.name + "-" +
                             std::to_string(static_cast<long>(getpid()));
  RigConfig cfg = w.rig;
  cfg.traced = traced;

  // Set-up, repeated: every repetition but the last is torn down again.
  // The traced run sets up once; its set-up time is not reported.
  std::vector<double> setup_s;
  std::unique_ptr<aodb::FileKvStore> store;
  std::unique_ptr<Rig> rig;
  const int reps = traced ? 1 : w.setup_reps;
  for (int rep = 0; rep < reps; ++rep) {
    rig.reset();
    store.reset();
    fs::remove_all(kv_dir);
    if (rep == reps - 1) {
      // peak_rss_mb covers the measured cluster only: hand the torn-down
      // clusters' memory back and restart the VmHWM high-water mark.
      malloc_trim(0);
      std::ofstream("/proc/self/clear_refs") << "5";
    }
    int64_t t0 = NowNs();
    if (cfg.durable) store = OpenStore(kv_dir);
    rig = std::make_unique<Rig>(cfg, store.get());
    aodb::Status st = rig->Setup();
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!st.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  SensorBook book(cfg.sensors);
  OpLog log;
  CheckLog checks;
  std::unique_ptr<ClosedLoop> closed;
  std::unique_ptr<OpenLoop> open;
  const int64_t load_ns = kWarmupNs + window_ns;
  if (w.inflight > 0) {
    closed = std::make_unique<ClosedLoop>(rig.get(), &book, &log, w.inflight,
                                          args.seed);
  } else {
    open = std::make_unique<OpenLoop>(rig.get(), &book, &log, &checks,
                                      w.inserts_per_s, w.live_per_s,
                                      w.raw_per_s, load_ns, args.seed);
  }

  // Windows: warm-up, then one measured window (untraced run), or an
  // untraced and a traced half of the window (traced run).
  const int64_t t_start = NowNs();
  if (closed) closed->Start();
  if (open) open->Start(t_start);
  SleepUntilNs(t_start + kWarmupNs);
  std::vector<Snap> snaps;
  snaps.push_back(Take(*rig, store.get()));
  if (traced) {
    SleepUntilNs(t_start + kWarmupNs + window_ns / 2);
    snaps.push_back(Take(*rig, store.get()));
    SetAllocCounting(true);
    SetTracing(true);
  }
  SleepUntilNs(t_start + load_ns);
  if (traced) {
    SetTracing(false);
    SetAllocCounting(false);
  }
  snaps.push_back(Take(*rig, store.get()));
  const double peak_rss = PeakRssMb();
  bool drained = closed ? closed->StopAndDrain(kDrainTimeoutNs)
                        : open->StopAndDrain(kDrainTimeoutNs);
  if (!drained) Abandon("outstanding operations did not complete");

  // Query probes of the closed-loop workloads: sequential, on the quiesced
  // platform, after the measured window.
  OpLog probe_log;
  if (!traced && w.probe_rounds > 0) {
    QueryIssuer probe(rig.get(), &book, &probe_log, &checks);
    std::mt19937_64 rng(args.seed ^ 0x70726f6265ULL);
    const int orgs = aodb::shm::ShmPlatform::NumOrgs(rig->topology());
    std::atomic<int64_t> outstanding{0};
    const int64_t deadline = NowNs() + kDrainTimeoutNs;
    auto wait = [&] {
      while (outstanding.load() > 0 && NowNs() < deadline) {
        std::this_thread::yield();
      }
      return outstanding.load() == 0;
    };
    // The RawRange calls run between the LiveData calls, so both kinds
    // sample the host over the same seconds.
    bool ok = true;
    for (int i = 0; ok && i < w.probe_rounds; ++i) {
      probe.Live(static_cast<int>(rng() % static_cast<uint64_t>(orgs)), NowNs(),
                 &outstanding);
      ok = wait();
      for (int j = 0; ok && j < w.raw_per_round; ++j) {
        int sensor =
            static_cast<int>(rng() % static_cast<uint64_t>(cfg.sensors));
        probe.Raw(sensor, static_cast<int>(rng() % 2), NowNs(), &outstanding);
        ok = wait();
      }
    }
    if (!ok) Abandon("a query probe did not complete");
  }

  // Metrics are computed while the cluster is up (the wrappers hold the
  // per-layer histograms) but printed only after the output checks pass.
  Metrics m;
  Metrics info;  // printed, not part of the result
  int64_t attempted = 0, failed = 0;
  if (!traced) {
    const Snap& a = snaps[0];
    const Snap& b = snaps[1];
    const std::vector<OpLog::Entry> entries = log.Window(a.t_ns, b.t_ns);
    const std::vector<OpLog::Entry> probe_entries =
        probe_log.Window(0, INT64_MAX);
    WindowOps win = Collect(entries);
    WindowOps probes = Collect(probe_entries);
    // Closed loops measure queries in the post-window probe, open loops
    // in the window itself.
    const bool probed = w.probe_rounds > 0;
    auto query_pct = [&](OpKind kind, double p) {
      return probed ? ChunkPct(probe_entries, kind, p)
                    : SubwindowPct(entries, kind, a.t_ns, b.t_ns, p);
    };
    std::printf("samples: inserts %zu, live %zu, raw %zu, setups %zu\n",
                win.insert_ns.size(), (probed ? probes : win).live_ns.size(),
                (probed ? probes : win).raw_ns.size(), setup_s.size());
    m["setup_s"] = Median(setup_s);
    m["points_per_s"] =
        SubwindowInsertRate(entries, a.t_ns, b.t_ns) * kPointsPerPacket;
    m["insert_p50_ms"] =
        SubwindowPct(entries, OpKind::kInsert, a.t_ns, b.t_ns, 0.50) / 1e6;
    m["insert_p90_ms"] =
        SubwindowPct(entries, OpKind::kInsert, a.t_ns, b.t_ns, 0.90) / 1e6;
    m["live_p50_ms"] = query_pct(OpKind::kLive, 0.50) / 1e6;
    m["raw_p50_ms"] = query_pct(OpKind::kRaw, 0.50) / 1e6;
    m["peak_rss_mb"] = peak_rss;
    m["cpu_us_per_op"] = Ratio(static_cast<double>(b.cpu_us - a.cpu_us),
                               static_cast<double>(win.ok_ops));
    info["insert_p99_ms"] =
        SubwindowPct(entries, OpKind::kInsert, a.t_ns, b.t_ns, 0.99) / 1e6;
    info["live_p99_ms"] = query_pct(OpKind::kLive, 0.99) / 1e6;
    info["raw_p99_ms"] = query_pct(OpKind::kRaw, 0.99) / 1e6;
    attempted = win.attempted + probes.attempted;
    failed = win.failed + probes.failed;
  } else {
    const Snap& a = snaps[0];
    const Snap& mid = snaps[1];
    const Snap& b = snaps[2];
    WindowOps plain = Collect(log.Window(a.t_ns, mid.t_ns));
    WindowOps tr = Collect(log.Window(mid.t_ns, b.t_ns));
    LayerMetrics(mid, b, tr, *rig, &m);
    m["trace.overhead"] =
        Ratio(Ratio(static_cast<double>(tr.inserts_ok),
                    static_cast<double>(b.t_ns - mid.t_ns)),
              Ratio(static_cast<double>(plain.inserts_ok),
                    static_cast<double>(mid.t_ns - a.t_ns)));
    m["trace.insert_p50_ratio"] =
        Ratio(Pct(tr.insert_ns, 0.5), Pct(plain.insert_ns, 0.5));
    if (open) {
      std::vector<int64_t> late = open->Lateness(mid.t_ns, b.t_ns);
      m["gen.late_p99_ms"] = Pct(late, 0.99) / 1e6;
    }
    attempted = plain.attempted + tr.attempted;
    failed = plain.failed + tr.failed;
  }

  // Output checks, before any number is printed.
  int64_t sensor_packets_lost = 0;
  int64_t channel_points_lost = 0;
  if (!cfg.durable) {
    CountReport r = ReadCounts(*rig, book, &checks);
    if (r.sensors_wrong > 0) checks.Fail(r.first_sensor);
    if (r.channels_wrong > 0) checks.Fail(r.first_channel);
    rig->Shutdown();
  } else {
    rig->Shutdown();
    rig.reset();
    RigConfig check_cfg = cfg;
    check_cfg.traced = false;
    {
      // Honest acks: a fresh cluster over the same, still open store finds
      // every acked point (gating).
      Rig fresh(check_cfg, store.get());
      CountReport r = ReadCounts(fresh, book, &checks);
      if (r.channels_wrong > 0) checks.Fail(r.first_channel);
      if (r.sensor_packets_excess > 0) checks.Fail(r.first_sensor);
      sensor_packets_lost = r.sensor_packets_short;
    }
    // Restart: close the store, replay it under another fresh cluster.
    store.reset();
    store = OpenStore(kv_dir);
    {
      Rig reopened(check_cfg, store.get());
      CountReport r = ReadCounts(reopened, book, &checks);
      if (r.channel_points_excess > 0) checks.Fail(r.first_channel);
      channel_points_lost = r.channel_points_short;
    }
    store.reset();
  }
  closed.reset();
  open.reset();
  rig.reset();
  fs::remove_all(kv_dir);

  // Known defects, reported rather than gated (see NOTES.md):
  //  * SensorActor::InsertImpl bumps `packets` without MarkDirty(), so a
  //    sensor paged out after an insert loses its count.
  //  * FileKvStore compaction writes the whole live table as one record;
  //    replay refuses records over 64 MiB, and the older segments are
  //    already deleted, so a reopened store past that size comes back
  //    without the data.
  m["check.sensor_packets_lost"] = static_cast<double>(sensor_packets_lost);
  m["check.channel_points_lost"] = static_cast<double>(channel_points_lost);
  const int64_t acked = TotalAcked(book);
  std::printf("check.failures %lld%s%s\n",
              static_cast<long long>(checks.failures()),
              checks.failures() > 0 ? ", first: " : "",
              checks.first().c_str());
  if (sensor_packets_lost > 0) {
    std::printf("check.sensor_packets_lost %lld of %lld acked packets "
                "(known defect: SensorActor::InsertImpl does not MarkDirty)\n",
                static_cast<long long>(sensor_packets_lost),
                static_cast<long long>(acked));
  }
  if (channel_points_lost > 0) {
    std::printf("check.channel_points_lost %lld of %lld acked points after "
                "reopen (known defect: FileKvStore replay refuses its own "
                "compaction record past 64 MiB)\n",
                static_cast<long long>(channel_points_lost),
                static_cast<long long>(acked * kPointsPerPacket));
  }

  if (traced) {
    // Every recording thread has been joined by now.
    const std::string path = args.out_dir + "/traces/" + w.name + ".spans.json";
    fs::create_directories(args.out_dir + "/traces");
    SpanReport spans = FinishSpans(path);
    m["executor.task_self_p50_us"] =
        spans.kinds[static_cast<size_t>(SpanKind::kSiloTask)].self_p50_us;
    std::printf("spans: %lld recorded, %lld dropped, written to %s\n",
                static_cast<long long>(spans.recorded),
                static_cast<long long>(spans.dropped), path.c_str());
  }
  for (const auto& [name, value] : info) {
    std::printf("%-34s %16.6f ms (not bounded)\n", name.c_str(), value);
  }

  const bool correct = checks.failures() == 0;
  if (traced) {
    PrintResult(kPerLayer, m, correct, attempted, failed);
  } else {
    PrintResult(kEndToEnd, m, correct, attempted, failed);
  }
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atoi(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() && args->seconds >= 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <ingest|query_mix|durable_scale> "
                 "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n",
                 argv[0]);
    return 2;
  }
  std::optional<perfbench::Workload> w = perfbench::FindWorkload(args.workload);
  if (!w) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  try {
    return perfbench::Run(args, *w);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark failed: %s\n", e.what());
    return 1;
  }
}

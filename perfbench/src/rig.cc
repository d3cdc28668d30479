#include "rig.h"

#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <random>

#include "actor/actor_ref.h"

namespace perfbench {

using aodb::Future;
using aodb::Result;
using aodb::Status;
using aodb::shm::DataPoint;
using aodb::shm::LiveDataEntry;
using aodb::shm::PhysicalChannelActor;
using aodb::shm::RangeReply;
using aodb::shm::SensorActor;
using aodb::shm::ShmPlatform;

namespace {

constexpr uint64_t kRuntimeSeed = 42;

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Channels the LiveData reply of `org` must list.
size_t ExpectedLiveEntries(const aodb::shm::ShmTopology& t, int org) {
  size_t n = 0;
  int first = org * t.sensors_per_org;
  int last = std::min(t.sensors, first + t.sensors_per_org);
  for (int s = first; s < last; ++s) {
    n += static_cast<size_t>(t.channels_per_sensor);
    if (ShmPlatform::HasVirtual(t, s)) ++n;
  }
  return n;
}

/// Blocks until `outstanding` reaches zero; false on timeout.
bool WaitZero(const std::atomic<int64_t>& outstanding, int64_t timeout_ns) {
  int64_t deadline = NowNs() + timeout_ns;
  while (outstanding.load() > 0) {
    if (NowNs() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Issues `make_call(i)` for i in [0, n), each returning a Future<int64_t>,
/// with at most kWindow outstanding, and hands each value to `check(i, v)`.
template <typename MakeCall, typename Check>
void CallAll(int n, MakeCall make_call, Check check, CheckLog* checks) {
  constexpr int kWindow = 512;
  for (int begin = 0; begin < n; begin += kWindow) {
    int end = std::min(n, begin + kWindow);
    std::vector<Future<int64_t>> batch;
    for (int i = begin; i < end; ++i) batch.push_back(make_call(i));
    for (int i = begin; i < end; ++i) {
      Result<int64_t> r = batch[static_cast<size_t>(i - begin)].Get();
      if (!r.ok()) {
        checks->Fail("check call failed: " + r.status().ToString());
        continue;
      }
      check(i, r.value());
    }
  }
}

}  // namespace

// --- Rig ---------------------------------------------------------------------

Rig::Rig(const RigConfig& config, aodb::KvStore* store) : config_(config) {
  topology_.sensors = config.sensors;
  aodb::RuntimeOptions o;
  o.num_silos = config.silos;
  o.workers_per_silo = config.workers_per_silo;
  o.max_resident_activations = config.max_resident;
  // The runtime's own seed (placement, jitter) stays fixed: the workload
  // seed varies only the generated inputs, so every run measures the same
  // cluster layout.
  o.seed = kRuntimeSeed;
  // Silos share one process, so a modeled network delay would only add
  // timer sleeps that hide the runtime's own costs. Messages still take
  // the real wire lane (encode, timer-thread delivery, decode).
  o.network.client_latency_us = 0;
  o.network.silo_latency_us = 0;
  o.network.jitter_us = 0;
  o.network.bytes_per_us = 1e12;

  std::vector<aodb::Executor*> silo_execs;
  for (int i = 0; i < config.silos; ++i) {
    silo_pools_.push_back(
        std::make_unique<aodb::ThreadPoolExecutor>(config.workers_per_silo));
    aodb::Executor* e = silo_pools_.back().get();
    if (config.traced) {
      silo_timing_.push_back(std::make_unique<TimingExecutor>(
          e, SpanKind::kSiloTask, SpanKind::kSiloTimer));
      e = silo_timing_.back().get();
    }
    silo_execs.push_back(e);
  }
  client_pool_ = std::make_unique<aodb::ThreadPoolExecutor>(1);
  aodb::Executor* client = client_pool_.get();
  if (config.traced) {
    client_timing_ = std::make_unique<TimingExecutor>(
        client, SpanKind::kClientTask, SpanKind::kClientTimer);
    client = client_timing_.get();
  }

  aodb::KvStore* kv = store;
  if (kv != nullptr && config.traced) {
    timing_kv_ = std::make_unique<TimingKvStore>(kv);
    kv = timing_kv_.get();
  }

  cluster_ = std::make_unique<aodb::Cluster>(o, std::move(silo_execs), client);
  if (kv != nullptr) {
    cluster_->RegisterStateStorage("default",
                                   std::make_shared<aodb::KvStateStorage>(kv));
  }
  ShmPlatform::RegisterTypes(*cluster_);
  ShmPlatform::ApplyPaperPlacement(*cluster_);
  aodb::shm::ShmClientOptions client_options;
  client_options.durable_acks = config.durable;
  platform_ = std::make_unique<ShmPlatform>(cluster_.get(), client_options);
}

Rig::~Rig() { Shutdown(); }

Status Rig::Setup() {
  Result<Status> r = platform_->Setup(topology_).Get();
  return r.ok() ? r.value() : r.status();
}

void Rig::Shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  cluster_->Stop();
  for (auto& pool : silo_pools_) pool->Shutdown();
  client_pool_->Shutdown();
}

aodb::ExecutorStats Rig::SiloStats() const {
  aodb::ExecutorStats sum;
  for (const auto& pool : silo_pools_) {
    aodb::ExecutorStats s = pool->Stats();
    sum.tasks_run += s.tasks_run;
    sum.busy_us += s.busy_us;
    sum.steals += s.steals;
    sum.parks += s.parks;
    sum.queue_depth += s.queue_depth;
  }
  return sum;
}

// --- Inputs and logs -----------------------------------------------------------

std::vector<DataPoint> MakePacket(uint64_t seed, int sensor, int64_t k) {
  std::vector<DataPoint> points(kPointsPerPacket);
  uint64_t base = Mix(seed ^ (static_cast<uint64_t>(sensor) << 32)) +
                  static_cast<uint64_t>(k) * kPointsPerPacket;
  for (int j = 0; j < kPointsPerPacket; ++j) {
    points[static_cast<size_t>(j)].ts =
        k * kPacketSpanUs + j * (kPacketSpanUs / kPointsPerPacket);
    points[static_cast<size_t>(j)].value =
        static_cast<double>(Mix(base + static_cast<uint64_t>(j)) >> 11) *
        0x1.0p-53 * 100.0;
  }
  return points;
}

std::vector<OpLog::Entry> OpLog::Window(int64_t from_ns, int64_t to_ns) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Entry> out;
  for (const Entry& e : entries_) {
    if (e.key_ns >= from_ns && e.key_ns < to_ns) out.push_back(e);
  }
  return out;
}

void CheckLog::Fail(const std::string& what) {
  if (failures_.fetch_add(1) == 0) {
    std::lock_guard<std::mutex> lock(mu_);
    first_ = what;
  }
}

std::string CheckLog::first() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_;
}

// --- Queries -------------------------------------------------------------------

void QueryIssuer::Live(int org, int64_t due_ns,
                       std::atomic<int64_t>* outstanding) {
  outstanding->fetch_add(1);
  uint64_t id = TracingOn() ? NewSpanId() : 0;
  int64_t start = NowNs();
  Future<std::vector<LiveDataEntry>> f = [&] {
    ScopedSpanContext scope(SpanContext{id, id});
    return rig_->platform().LiveData(rig_->topology(), org);
  }();
  size_t expected = ExpectedLiveEntries(rig_->topology(), org);
  f.OnReady([this, org, expected, due_ns, start, id,
             outstanding](Result<std::vector<LiveDataEntry>>&& r) {
    int64_t end = NowNs();
    if (r.ok() && r.value().size() != expected) {
      checks_->Fail("LiveData of org " + std::to_string(org) + " returned " +
                    std::to_string(r.value().size()) + " entries, expected " +
                    std::to_string(expected));
    }
    log_->Add({due_ns, end - due_ns, OpKind::kLive, r.ok()});
    if (id != 0) RecordSpan(Span{id, 0, id, start, end, SpanKind::kLiveData});
    outstanding->fetch_sub(1);
  });
}

void QueryIssuer::Raw(int sensor, int channel, int64_t due_ns,
                      std::atomic<int64_t>* outstanding) {
  outstanding->fetch_add(1);
  // The last ten packets' time span (plus the one in flight).
  int64_t k = book_->issued(sensor);
  aodb::Micros from = std::max<int64_t>(0, k - 10) * kPacketSpanUs;
  aodb::Micros to = (k + 1) * kPacketSpanUs;
  uint64_t id = TracingOn() ? NewSpanId() : 0;
  int64_t start = NowNs();
  Future<RangeReply> f = [&] {
    ScopedSpanContext scope(SpanContext{id, id});
    return rig_->platform().RawRange(rig_->topology(), sensor, channel, from,
                                     to);
  }();
  f.OnReady([this, from, to, due_ns, start, id,
             outstanding](Result<RangeReply>&& r) {
    int64_t end = NowNs();
    if (r.ok()) {
      const RangeReply& reply = r.value();
      if (!reply.authorized) checks_->Fail("RawRange reply not authorized");
      for (const DataPoint& p : reply.points) {
        if (p.ts < from || p.ts >= to) {
          checks_->Fail("RawRange point outside [from, to)");
          break;
        }
      }
    }
    log_->Add({due_ns, end - due_ns, OpKind::kRaw, r.ok()});
    if (id != 0) RecordSpan(Span{id, 0, id, start, end, SpanKind::kRawRange});
    outstanding->fetch_sub(1);
  });
}

// --- ClosedLoop ------------------------------------------------------------------

ClosedLoop::ClosedLoop(Rig* rig, SensorBook* book, OpLog* log, int inflight,
                       uint64_t seed)
    : rig_(rig), book_(book), log_(log), inflight_(inflight), seed_(seed) {
  order_.resize(static_cast<size_t>(book->sensors()));
  for (size_t i = 0; i < order_.size(); ++i) order_[i] = static_cast<int>(i);
  std::mt19937_64 rng(seed);
  std::shuffle(order_.begin(), order_.end(), rng);
}

void ClosedLoop::Start() {
  running_.store(true);
  for (int i = 0; i < inflight_; ++i) IssueOne();
}

void ClosedLoop::IssueOne() {
  outstanding_.fetch_add(1);
  uint64_t n = next_.fetch_add(1);
  int sensor = order_[n % order_.size()];
  int64_t k = book_->NextPacket(sensor);
  uint64_t id = TracingOn() ? NewSpanId() : 0;
  int64_t start = NowNs();
  Future<Status> f = [&] {
    ScopedSpanContext scope(SpanContext{id, id});
    return rig_->platform().Insert(rig_->topology(), sensor,
                                   MakePacket(seed_, sensor, k));
  }();
  f.OnReady([this, sensor, start, id](Result<Status>&& r) {
    int64_t end = NowNs();
    bool ok = r.ok() && r.value().ok();
    if (ok) book_->Ack(sensor);
    log_->Add({end, end - start, OpKind::kInsert, ok});
    if (id != 0) RecordSpan(Span{id, 0, id, start, end, SpanKind::kInsert});
    // A failed insert is not replaced, so failures cannot recurse.
    if (ok && running_.load()) IssueOne();
    outstanding_.fetch_sub(1);
  });
}

bool ClosedLoop::StopAndDrain(int64_t timeout_ns) {
  running_.store(false);
  return WaitZero(outstanding_, timeout_ns);
}

// --- OpenLoop --------------------------------------------------------------------

OpenLoop::OpenLoop(Rig* rig, SensorBook* book, OpLog* log, CheckLog* checks,
                   double inserts_per_s, double live_per_s, double raw_per_s,
                   int64_t duration_ns, uint64_t seed)
    : rig_(rig),
      book_(book),
      log_(log),
      queries_(rig, book, log, checks),
      seed_(seed) {
  std::mt19937_64 rng(seed);
  const int sensors = book->sensors();
  const double period_ns = sensors / inserts_per_s * 1e9;
  std::uniform_real_distribution<double> phase(0, period_ns);
  for (int s = 0; s < sensors; ++s) {
    for (double t = phase(rng); t < static_cast<double>(duration_ns);
         t += period_ns) {
      events_.push_back({static_cast<int64_t>(t), OpKind::kInsert, s});
    }
  }
  std::uniform_int_distribution<int64_t> when(0, duration_ns - 1);
  const double seconds = static_cast<double>(duration_ns) / 1e9;
  const int orgs = ShmPlatform::NumOrgs(rig->topology());
  std::uniform_int_distribution<int> org(0, orgs - 1);
  for (int64_t i = 0; i < static_cast<int64_t>(live_per_s * seconds); ++i) {
    events_.push_back({when(rng), OpKind::kLive, org(rng)});
  }
  std::uniform_int_distribution<int> sensor(0, sensors - 1);
  const int channels = rig->topology().channels_per_sensor;
  for (int64_t i = 0; i < static_cast<int64_t>(raw_per_s * seconds); ++i) {
    int s = sensor(rng);
    events_.push_back(
        {when(rng), OpKind::kRaw, s * channels + static_cast<int>(rng() % 2)});
  }
  std::stable_sort(events_.begin(), events_.end(),
                   [](const Event& a, const Event& b) {
                     return a.due_ns < b.due_ns;
                   });
  late_ns_.assign(events_.size(), -1);
}

OpenLoop::~OpenLoop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

void OpenLoop::Start(int64_t t0_ns) {
  t0_ns_ = t0_ns;
  thread_ = std::thread([this] { Run(); });
}

void OpenLoop::Run() {
  // Default timer slack (50 us) would make every sleep overshoot; 1 us keeps
  // the generator close to the schedule without spinning.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  const int channels = rig_->topology().channels_per_sensor;
  const auto epoch = std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(0));
  for (size_t i = 0; i < events_.size(); ++i) {
    if (stop_.load(std::memory_order_relaxed)) break;
    const Event& ev = events_[i];
    int64_t due = t0_ns_ + ev.due_ns;
    if (NowNs() < due) {
      std::this_thread::sleep_until(epoch + std::chrono::nanoseconds(due));
    }
    late_ns_[i] = NowNs() - due;
    switch (ev.kind) {
      case OpKind::kLive:
        queries_.Live(ev.arg, due, &outstanding_);
        break;
      case OpKind::kRaw:
        queries_.Raw(ev.arg / channels, ev.arg % channels, due, &outstanding_);
        break;
      case OpKind::kInsert: {
        int sensor = ev.arg;
        outstanding_.fetch_add(1);
        int64_t k = book_->NextPacket(sensor);
        uint64_t id = TracingOn() ? NewSpanId() : 0;
        int64_t start = NowNs();
        Future<Status> f = [&] {
          ScopedSpanContext scope(SpanContext{id, id});
          return rig_->platform().Insert(rig_->topology(), sensor,
                                         MakePacket(seed_, sensor, k));
        }();
        f.OnReady([this, sensor, due, start, id](Result<Status>&& r) {
          int64_t end = NowNs();
          bool ok = r.ok() && r.value().ok();
          if (ok) book_->Ack(sensor);
          log_->Add({due, end - due, OpKind::kInsert, ok});
          if (id != 0) {
            RecordSpan(Span{id, 0, id, start, end, SpanKind::kInsert});
          }
          outstanding_.fetch_sub(1);
        });
        break;
      }
    }
  }
}

bool OpenLoop::StopAndDrain(int64_t timeout_ns) {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
  return WaitZero(outstanding_, timeout_ns);
}

std::vector<int64_t> OpenLoop::Lateness(int64_t from_ns, int64_t to_ns) const {
  std::vector<int64_t> out;
  for (size_t i = 0; i < events_.size(); ++i) {
    int64_t due = t0_ns_ + events_[i].due_ns;
    if (due >= from_ns && due < to_ns && late_ns_[i] >= 0) {
      out.push_back(late_ns_[i]);
    }
  }
  return out;
}

// --- Output checks -------------------------------------------------------------

CountReport ReadCounts(Rig& rig, const SensorBook& book, CheckLog* checks) {
  aodb::Cluster& cluster = rig.cluster();
  const auto& t = rig.topology();
  const int channels = t.channels_per_sensor;
  const int64_t per_channel = kPointsPerPacket / channels;
  CountReport report;
  auto compare = [](int64_t got, int64_t want, const std::string& what,
                    int64_t* short_sum, int64_t* excess_sum, int64_t* wrong,
                    std::string* first) {
    if (got == want) return;
    if (got < want) {
      *short_sum += want - got;
    } else {
      *excess_sum += got - want;
    }
    if ((*wrong)++ == 0) {
      *first = what + " " + std::to_string(got) + " != acked " +
               std::to_string(want);
    }
  };
  CallAll(
      book.sensors(),
      [&](int s) {
        return cluster.Ref<SensorActor>(ShmPlatform::SensorKey(s))
            .Call(&SensorActor::Packets);
      },
      [&](int s, int64_t packets) {
        compare(packets, book.acked(s),
                "sensor " + std::to_string(s) + " Packets()",
                &report.sensor_packets_short, &report.sensor_packets_excess,
                &report.sensors_wrong, &report.first_sensor);
      },
      checks);
  CallAll(
      book.sensors() * channels,
      [&](int i) {
        return cluster
            .Ref<PhysicalChannelActor>(
                ShmPlatform::ChannelKey(i / channels, i % channels))
            .Call(&PhysicalChannelActor::TotalPoints);
      },
      [&](int i, int64_t points) {
        compare(points, per_channel * book.acked(i / channels),
                "channel " + ShmPlatform::ChannelKey(i / channels, i % channels) +
                    " TotalPoints()",
                &report.channel_points_short, &report.channel_points_excess,
                &report.channels_wrong, &report.first_channel);
      },
      checks);
  return report;
}

}  // namespace perfbench

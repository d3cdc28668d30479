// The platform under test and the load driven against it. A Rig builds one
// real-mode SHM cluster directly from ThreadPoolExecutors (behind timing
// wrappers in the traced run), optionally over a FileKvStore, and exposes
// the public client calls. The loads and output checks drive only
// ShmPlatform's public operations and actor calls.

#ifndef PERFBENCH_RIG_H_
#define PERFBENCH_RIG_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "actor/runtime.h"
#include "actor/thread_pool.h"
#include "shm/platform.h"
#include "storage/state_storage.h"
#include "tracing.h"

namespace perfbench {

/// Points per logger packet (the paper's §6.1 packet: 20 points over two
/// channels, 10 each).
constexpr int kPointsPerPacket = 20;
/// Bytes of user data per point (timestamp + value).
constexpr int64_t kUserBytesPerPoint = 16;

struct RigConfig {
  int silos = 1;
  int workers_per_silo = 2;
  int sensors = 2000;
  /// Durable configuration: grain state in the store handed to the Rig,
  /// and write-through acks. Otherwise grain state is volatile.
  bool durable = false;
  int max_resident = 0;
  /// Build the cluster over TimingExecutor/TimingKvStore wrappers.
  bool traced = false;
};

class Rig {
 public:
  /// `store` (not owned, outlives the Rig) holds the grain state of a
  /// durable configuration; null for a volatile one.
  Rig(const RigConfig& config, aodb::KvStore* store);
  ~Rig();
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  /// ShmPlatform::Setup of the §6.1 topology, blocking until it completes.
  aodb::Status Setup();
  /// Stops the cluster and joins every thread. Idempotent.
  void Shutdown();

  aodb::Cluster& cluster() { return *cluster_; }
  aodb::shm::ShmPlatform& platform() { return *platform_; }
  const aodb::shm::ShmTopology& topology() const { return topology_; }

  /// Merged stats of the silo executors.
  aodb::ExecutorStats SiloStats() const;
  int silo_workers() const { return config_.silos * config_.workers_per_silo; }

  /// Timing wrappers (null unless traced).
  const std::vector<std::unique_ptr<TimingExecutor>>& silo_timers() const {
    return silo_timing_;
  }
  TimingKvStore* timing_kv() const { return timing_kv_.get(); }

 private:
  const RigConfig config_;
  aodb::shm::ShmTopology topology_;
  // Declaration order is teardown order reversed: the platform and cluster
  // go first, then the storage wrapper, then the executor wrappers, then
  // the pools they wrap.
  std::vector<std::unique_ptr<aodb::ThreadPoolExecutor>> silo_pools_;
  std::unique_ptr<aodb::ThreadPoolExecutor> client_pool_;
  std::vector<std::unique_ptr<TimingExecutor>> silo_timing_;
  std::unique_ptr<TimingExecutor> client_timing_;
  std::unique_ptr<TimingKvStore> timing_kv_;
  std::unique_ptr<aodb::Cluster> cluster_;
  std::unique_ptr<aodb::shm::ShmPlatform> platform_;
  bool shut_down_ = false;
};

/// Per-sensor packet bookkeeping shared by the loads and the checks.
class SensorBook {
 public:
  explicit SensorBook(int sensors)
      : issued_(static_cast<size_t>(sensors)),
        acked_(static_cast<size_t>(sensors)) {}
  /// Index of the next packet of `sensor`.
  int64_t NextPacket(int sensor) {
    return issued_[static_cast<size_t>(sensor)].fetch_add(1);
  }
  int64_t issued(int sensor) const {
    return issued_[static_cast<size_t>(sensor)].load();
  }
  void Ack(int sensor) { acked_[static_cast<size_t>(sensor)].fetch_add(1); }
  int64_t acked(int sensor) const {
    return acked_[static_cast<size_t>(sensor)].load();
  }
  int sensors() const { return static_cast<int>(acked_.size()); }

 private:
  std::vector<std::atomic<int64_t>> issued_;
  std::vector<std::atomic<int64_t>> acked_;
};

/// The 20 points of packet `k` of `sensor`: 1 ms apart, packets 20 ms
/// apart, values derived from the seed.
std::vector<aodb::shm::DataPoint> MakePacket(uint64_t seed, int sensor,
                                             int64_t k);
/// Timestamp span of one packet.
constexpr aodb::Micros kPacketSpanUs = 20000;

enum class OpKind : uint8_t { kInsert, kLive, kRaw };

/// Completed operations: (key time, latency, ok). The key is the time used
/// to assign an operation to a measurement window: its completion time in
/// a closed loop, its due time in an open loop.
class OpLog {
 public:
  struct Entry {
    int64_t key_ns;
    int64_t latency_ns;
    OpKind kind;
    bool ok;
  };
  void Add(const Entry& e) {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.push_back(e);
  }
  /// Entries whose key falls in [from, to).
  std::vector<Entry> Window(int64_t from_ns, int64_t to_ns) const;

 private:
  mutable std::mutex mu_;
  // A deque grows in fixed blocks: a vector's reallocating copy would stall
  // the completing thread (the reply path) for milliseconds under the lock.
  std::deque<Entry> entries_;
};

/// Failures of the output checks, with a first example.
class CheckLog {
 public:
  void Fail(const std::string& what);
  int64_t failures() const { return failures_.load(); }
  std::string first() const;

 private:
  std::atomic<int64_t> failures_{0};
  mutable std::mutex mu_;
  std::string first_;
};

/// Issues one LiveData / RawRange query through the platform, checks the
/// reply and logs its latency from `due_ns`. Shared by the open loop and the
/// post-window probes.
class QueryIssuer {
 public:
  QueryIssuer(Rig* rig, SensorBook* book, OpLog* log, CheckLog* checks)
      : rig_(rig), book_(book), log_(log), checks_(checks) {}
  void Live(int org, int64_t due_ns, std::atomic<int64_t>* outstanding);
  void Raw(int sensor, int channel, int64_t due_ns,
           std::atomic<int64_t>* outstanding);

 private:
  Rig* rig_;
  SensorBook* book_;
  OpLog* log_;
  CheckLog* checks_;
};

/// Closed loop: `inflight` inserts always outstanding, sensors served in a
/// fixed (seeded) rotation. Each completion issues the next insert from the
/// completing thread, so the loop has no generator thread of its own.
class ClosedLoop {
 public:
  ClosedLoop(Rig* rig, SensorBook* book, OpLog* log, int inflight,
             uint64_t seed);
  void Start();
  /// Stops issuing and waits for outstanding inserts; false on timeout.
  bool StopAndDrain(int64_t timeout_ns);

 private:
  void IssueOne();

  Rig* rig_;
  SensorBook* book_;
  OpLog* log_;
  const int inflight_;
  const uint64_t seed_;
  std::vector<int> order_;
  std::atomic<uint64_t> next_{0};
  std::atomic<bool> running_{false};
  std::atomic<int64_t> outstanding_{0};
};

/// Open loop: each sensor inserts on a fixed period with a seeded phase,
/// LiveData and RawRange queries arrive at seeded uniform-random times.
/// One generator thread issues every request at its due time; latency is
/// measured from the due time, and the generator's lateness is logged.
class OpenLoop {
 public:
  OpenLoop(Rig* rig, SensorBook* book, OpLog* log, CheckLog* checks,
           double inserts_per_s, double live_per_s, double raw_per_s,
           int64_t duration_ns, uint64_t seed);
  ~OpenLoop();
  void Start(int64_t t0_ns);
  bool StopAndDrain(int64_t timeout_ns);
  /// Issue time minus due time of requests due in [from, to), ns.
  std::vector<int64_t> Lateness(int64_t from_ns, int64_t to_ns) const;

 private:
  struct Event {
    int64_t due_ns;  // offset from t0
    OpKind kind;
    int32_t arg;
  };
  void Run();

  Rig* rig_;
  SensorBook* book_;
  OpLog* log_;
  QueryIssuer queries_;
  const uint64_t seed_;
  std::vector<Event> events_;
  std::vector<int64_t> late_ns_;  // per event, written by the generator
  int64_t t0_ns_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> outstanding_{0};
  std::thread thread_;
};

/// Every sensor's Packets() and every physical channel's TotalPoints(),
/// read through `rig`'s cluster, against the acked inserts: a sensor should
/// count each acked packet once, a channel 10 points per acked packet.
struct CountReport {
  int64_t sensor_packets_short = 0;  // acked packets a sensor lacks
  int64_t sensor_packets_excess = 0;
  int64_t channel_points_short = 0;  // acked points a channel lacks
  int64_t channel_points_excess = 0;
  int64_t sensors_wrong = 0;
  int64_t channels_wrong = 0;
  std::string first_sensor;   // first mismatch, for the log
  std::string first_channel;
};
CountReport ReadCounts(Rig& rig, const SensorBook& book, CheckLog* checks);

}  // namespace perfbench

#endif  // PERFBENCH_RIG_H_

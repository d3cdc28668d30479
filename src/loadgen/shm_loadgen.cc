#include "loadgen/shm_loadgen.h"

#include <cmath>

namespace aodb {

ShmLoadGen::ShmLoadGen(shm::ShmPlatform* platform,
                       const shm::ShmTopology& topology,
                       Executor* client_executor, LoadGenOptions options)
    : platform_(platform),
      topology_(topology),
      exec_(client_executor),
      options_(options),
      rng_(options.seed) {
  if (options_.admission_rate_rps > 0) {
    admission_ = std::make_unique<TokenBucket>(
        options_.admission_rate_rps,
        options_.admission_burst > 0 ? options_.admission_burst
                                     : options_.admission_rate_rps);
  }
  signals_.reserve(topology_.sensors);
  for (int s = 0; s < topology_.sensors; ++s) {
    signals_.emplace_back(options.seed * 7919 + s);
  }
  window_us_ = options_.window_us > 0 ? options_.window_us
                                      : options_.duration_us / 10;
  // Round the window to whole seconds: waves fire on second boundaries, so
  // fractional windows would alternate between catching 1 and 2 waves and
  // inflate the reported stddev artificially.
  window_us_ =
      ((window_us_ + kMicrosPerSecond - 1) / kMicrosPerSecond) *
      kMicrosPerSecond;
  if (window_us_ <= 0) window_us_ = kMicrosPerSecond;
  sensor_busy_.assign(topology_.sensors, false);
  int orgs = shm::ShmPlatform::NumOrgs(topology_);
  live_busy_.assign(orgs, false);
  raw_busy_.assign(orgs, false);
}

void ShmLoadGen::Start() {
  start_time_ = exec_->clock()->Now();
  end_time_ = start_time_ + options_.duration_us;
  window_completions_.assign(
      static_cast<size_t>(options_.duration_us / window_us_) + 2, 0);
  Wave();
}

void ShmLoadGen::Wave() {
  Micros now = exec_->clock()->Now();
  if (now >= end_time_) return;  // Horizon reached; let requests drain.
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++report_.waves_fired;
  }
  FireWave(now);
  exec_->PostAfter(kMicrosPerSecond, [this] { Wave(); });
}

void ShmLoadGen::FireWave(Micros now) {
  // Insertions: one packet per sensor whose previous call has finished.
  for (int s = 0; s < topology_.sensors; ++s) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (sensor_busy_[s]) {
        ++report_.ticks_skipped;
        continue;
      }
    }
    if (admission_ != nullptr && admission_->Reserve(now, 1.0) > 0) {
      // Over the admitted rate this second: refuse at the gateway instead
      // of queueing. The bucket reserves unconditionally, so the refused
      // token is returned; the sensor stays eligible next wave.
      admission_->Refund(1.0);
      std::lock_guard<std::mutex> lock(mu_);
      ++report_.admission_rejected;
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      sensor_busy_[s] = true;
    }
    FireInsert(s, now);
  }
  if (!options_.user_queries) return;
  // User queries: per organization, one live-data and one raw-range request
  // per second (the paper's "at most one person looking at live data for
  // each organization requesting data once every second, and at most one
  // request for raw data a second for each organization").
  int orgs = shm::ShmPlatform::NumOrgs(topology_);
  for (int o = 0; o < orgs; ++o) FireUserQueries(o, now);
}

void ShmLoadGen::FireInsert(int sensor, Micros now) {
  auto packet = signals_[sensor].Packet(now, options_.points_per_request,
                                        options_.sample_rate_hz);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++outstanding_;
    ++report_.inserts_sent;
  }
  platform_->Insert(topology_, sensor, std::move(packet))
      .OnReady([this, sensor, now](Result<Status>&& r) {
        Status st = FailureOf(r);
        RecordInsertDone(sensor, now, st.ok());
      });
}

void ShmLoadGen::FireUserQueries(int org, Micros now) {
  // User requests are not phase-locked to the sensor second: each is issued
  // at a uniformly random offset within the second. (Sensors burst at the
  // second boundary, as in the paper's tool; users sample the resulting
  // queue at random phases, which is what gives Figures 8 and 9 their
  // percentile spread.)
  bool fire_live = false;
  bool fire_raw = false;
  Micros live_jitter = 0;
  Micros raw_jitter = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!live_busy_[org]) {
      live_busy_[org] = true;
      ++outstanding_;
      fire_live = true;
      live_jitter = static_cast<Micros>(rng_.NextBelow(kMicrosPerSecond));
    }
    if (!raw_busy_[org]) {
      raw_busy_[org] = true;
      ++outstanding_;
      fire_raw = true;
      raw_jitter = static_cast<Micros>(rng_.NextBelow(kMicrosPerSecond));
    }
  }
  (void)now;
  if (fire_live) {
    exec_->PostAfter(live_jitter, [this, org] {
      Micros sent = exec_->clock()->Now();
      platform_->LiveData(topology_, org)
          .OnReady(
              [this, org, sent](Result<std::vector<shm::LiveDataEntry>>&& r) {
                Micros latency = exec_->clock()->Now() - sent;
                std::lock_guard<std::mutex> lock(mu_);
                --outstanding_;
                live_busy_[org] = false;
                if (r.ok()) {
                  report_.live_latency_us.Record(latency);
                  ++report_.live_done;
                } else {
                  ++report_.errors;
                }
              });
    });
  }
  if (fire_raw) {
    // Raw range over a random channel of a random sensor of this org.
    int sensor_in_org = static_cast<int>(
        rng_.NextBelow(static_cast<uint64_t>(topology_.sensors_per_org)));
    int sensor = std::min(org * topology_.sensors_per_org + sensor_in_org,
                          topology_.sensors - 1);
    int channel = static_cast<int>(rng_.NextBelow(
        static_cast<uint64_t>(topology_.channels_per_sensor)));
    exec_->PostAfter(raw_jitter, [this, org, sensor, channel] {
      Micros sent = exec_->clock()->Now();
      platform_
          ->RawRange(topology_, sensor, channel, sent - 30 * kMicrosPerSecond,
                     sent + kMicrosPerSecond)
          .OnReady([this, org, sent](Result<shm::RangeReply>&& r) {
            Micros latency = exec_->clock()->Now() - sent;
            std::lock_guard<std::mutex> lock(mu_);
            --outstanding_;
            raw_busy_[org] = false;
            if (r.ok() && r.value().authorized) {
              report_.raw_latency_us.Record(latency);
              ++report_.raw_done;
            } else {
              ++report_.errors;
            }
          });
    });
  }
}

void ShmLoadGen::RecordInsertDone(int sensor, Micros sent_at, bool ok) {
  Micros now = exec_->clock()->Now();
  std::lock_guard<std::mutex> lock(mu_);
  --outstanding_;
  sensor_busy_[sensor] = false;
  if (!ok) {
    ++report_.errors;
    return;
  }
  ++report_.inserts_done;
  report_.insert_latency_us.Record(now - sent_at);
  size_t window = static_cast<size_t>((now - start_time_) / window_us_);
  if (window < window_completions_.size()) {
    ++window_completions_[window];
  }
}

bool ShmLoadGen::Done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return exec_->clock()->Now() >= end_time_ && outstanding_ == 0;
}

const LoadGenReport& ShmLoadGen::Finish() {
  std::lock_guard<std::mutex> lock(mu_);
  if (finished_) return report_;
  finished_ = true;
  // Interior windows: drop the first and last, as in the paper.
  size_t full_windows = static_cast<size_t>(options_.duration_us / window_us_);
  double sum = 0, sum_sq = 0;
  int n = 0;
  for (size_t w = 1; w + 1 < full_windows; ++w) {
    double rps = static_cast<double>(window_completions_[w]) /
                 (static_cast<double>(window_us_) / kMicrosPerSecond);
    sum += rps;
    sum_sq += rps * rps;
    ++n;
  }
  if (n > 0) {
    report_.achieved_insert_rps = sum / n;
    double var = sum_sq / n - report_.achieved_insert_rps *
                                  report_.achieved_insert_rps;
    report_.achieved_rps_stddev = var > 0 ? std::sqrt(var) : 0;
  }
  report_.offered_insert_rps = static_cast<double>(topology_.sensors);
  return report_;
}

}  // namespace aodb

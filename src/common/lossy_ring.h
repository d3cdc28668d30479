// Fixed-capacity lossy ring buffers: the sink under the span tracer and the
// flight recorder. Writers never block and dumps are safe while writers are
// hot, so both recorders can stay on in production and under TSan.

#ifndef AODB_COMMON_LOSSY_RING_H_
#define AODB_COMMON_LOSSY_RING_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/telemetry.h"

namespace aodb {

/// Writers claim a slot with a relaxed fetch_add cursor and take a per-slot
/// atomic try-lock before touching the record, so concurrent writers that
/// wrap onto the same slot never race: the loser drops its record. Readers
/// (Collect) take the same per-slot lock. Capacity is rounded up to a power
/// of two (at least 8); wrap-around keeps the newest records.
template <typename T>
class LossyRing {
 public:
  explicit LossyRing(size_t capacity)
      : mask_(RoundUpPow2(std::max<size_t>(capacity, 8)) - 1),
        slots_(new Slot[mask_ + 1]) {}

  /// Attempts to store the record; returns false if the slot was contended
  /// (record dropped).
  bool Push(T rec) {
    size_t i = cursor_.fetch_add(1, std::memory_order_relaxed) & mask_;
    Slot& slot = slots_[i];
    bool expected = false;
    if (!slot.busy.compare_exchange_strong(expected, true,
                                           std::memory_order_acquire)) {
      return false;  // Another writer (or a reader) holds the slot: drop.
    }
    slot.rec = std::move(rec);
    slot.used = true;
    slot.busy.store(false, std::memory_order_release);
    return true;
  }

  /// Appends every stored record to `out` (unordered; at most `capacity`
  /// newest records survive wrap-around).
  void Collect(std::vector<T>* out) const {
    for (size_t i = 0; i <= mask_; ++i) {
      Slot& slot = slots_[i];
      bool expected = false;
      if (!slot.busy.compare_exchange_strong(expected, true,
                                             std::memory_order_acquire)) {
        continue;  // A writer is mid-store; skip this slot.
      }
      if (slot.used) out->push_back(slot.rec);
      slot.busy.store(false, std::memory_order_release);
    }
  }

 private:
  struct Slot {
    std::atomic<bool> busy{false};
    bool used = false;
    T rec;
  };

  static size_t RoundUpPow2(size_t n) {
    size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  const size_t mask_;
  std::atomic<uint64_t> cursor_{0};
  std::unique_ptr<Slot[]> slots_;
};

/// One LossyRing per shard 0..num_shards-1 plus a last ring for every other
/// shard index (the recorders shard by silo; the last ring takes the client
/// and unknown silos). Each push counts into `<recorded>` or `<dropped>` on
/// `metrics` when a registry is given.
template <typename T>
class ShardedLossyRing {
 public:
  ShardedLossyRing(int num_shards, size_t capacity, MetricsRegistry* metrics,
                   const std::string& recorded, const std::string& dropped)
      : num_shards_(num_shards) {
    rings_.reserve(static_cast<size_t>(num_shards) + 1);
    for (int i = 0; i <= num_shards; ++i) {
      rings_.push_back(std::make_unique<LossyRing<T>>(capacity));
    }
    if (metrics != nullptr) {
      recorded_ = metrics->GetCounter(recorded);
      dropped_ = metrics->GetCounter(dropped);
    }
  }

  void Push(int shard, T rec) {
    bool stored = rings_[RingIndex(shard)]->Push(std::move(rec));
    Counter* counter = stored ? recorded_ : dropped_;
    if (counter != nullptr) counter->Add();
  }

  /// Appends every stored record of every ring to `out` (unordered).
  void Collect(std::vector<T>* out) const {
    for (const auto& ring : rings_) ring->Collect(out);
  }

 private:
  size_t RingIndex(int shard) const {
    if (shard >= 0 && shard < num_shards_) return static_cast<size_t>(shard);
    return static_cast<size_t>(num_shards_);
  }

  const int num_shards_;
  std::vector<std::unique_ptr<LossyRing<T>>> rings_;
  Counter* recorded_ = nullptr;
  Counter* dropped_ = nullptr;
};

}  // namespace aodb

#endif  // AODB_COMMON_LOSSY_RING_H_

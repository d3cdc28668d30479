// Durable virtual actors: PersistentActor<TState> mirrors Orleans' grain
// state model. State is an application struct with Encode/Decode methods;
// the actor reads its latest snapshot on activation and writes it back
// according to a configurable durability policy — the spectrum discussed in
// the paper's §5 (write per update, windowed, or only on deactivation).
//
// State reads and writes run under the shared RetryPolicy, so transient
// storage failures (throttling, injected faults, flaky backends) are healed
// transparently. Storage completion callbacks deliberately capture a shared
// PersistCore — never the actor itself — so a write still in flight when
// the hosting silo crashes (or the activation is reclaimed) completes
// harmlessly against the detached core.

#ifndef AODB_STORAGE_PERSISTENT_ACTOR_H_
#define AODB_STORAGE_PERSISTENT_ACTOR_H_

#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "actor/actor.h"
#include "actor/retry_async.h"
#include "common/codec.h"
#include "common/logging.h"
#include "common/retry.h"
#include "storage/state_storage.h"

namespace aodb {

/// When actor state is written to the storage provider.
enum class PersistPolicy {
  /// Every MarkDirty() triggers a write (strongest durability, highest
  /// storage load — the paper's "200 write requests every second" case).
  kOnEveryUpdate,
  /// Write after `window_updates` dirty marks or `window_interval_us`,
  /// whichever first (the paper's recommended windowed collection).
  kWindowed,
  /// Write only when the activation is deactivated / at shutdown (the
  /// configuration used in the paper's benchmarks).
  kOnDeactivate,
};

/// Per-actor-class persistence configuration.
struct PersistenceOptions {
  PersistPolicy policy = PersistPolicy::kOnDeactivate;
  int window_updates = 100;
  Micros window_interval_us = 10 * kMicrosPerSecond;
  /// Name of the storage provider registered on the cluster. If the
  /// provider is missing the actor runs volatile (logged once).
  std::string provider = "default";
  /// Retry policy for snapshot loads and writes (transient storage errors
  /// only; NotFound and Corruption surface immediately).
  RetryPolicy retry;
};

/// Base class for actors with durable state.
///
/// TState requirements:
///   void Encode(BufWriter* w) const;
///   Status Decode(BufReader* r);
/// and default-constructibility (the state of a never-persisted grain).
template <typename TState>
class PersistentActor : public ActorBase {
 public:
  explicit PersistentActor(PersistenceOptions options = {})
      : options_(std::move(options)),
        core_(std::make_shared<PersistCore>()) {}

  /// Loads the latest snapshot (NotFound means a fresh grain).
  Future<Status> OnActivate() override {
    StateStorage* ss = provider();
    if (ss == nullptr) return Future<Status>::FromValue(Status::OK());
    if (options_.policy == PersistPolicy::kWindowed) {
      ctx().SetTimer(kPersistTimerName, options_.window_interval_us);
    }
    std::string key = ctx().self().ToString();
    Executor* exec = ctx().executor();
    auto core = core_;
    Promise<Status> done;
    RetryAsync<std::string>(
        exec, options_.retry, NextOpSeed(),
        [ss, key, exec] { return ss->Read(key, exec); }, IsTransient,
        [core](const Status&) { core->BumpRetries(); })
        .OnReady([this, done](Result<std::string>&& r) {
          // Safe to touch the actor here: the activation is pinned
          // (kLoading) until OnActivate's future — completed below —
          // resolves, and crashed silos park activations instead of
          // destroying them.
          if (!r.ok()) {
            if (r.status().IsNotFound()) {
              done.SetValue(Status::OK());  // Fresh grain.
            } else {
              done.SetValue(r.status());
            }
            return;
          }
          BufReader reader(r.value());
          done.SetValue(state_.Decode(&reader));
        });
    return done.GetFuture();
  }

  /// Flushes dirty state before the activation is destroyed — and drains
  /// writes already on the wire even when the state is clean. The drain is
  /// a correctness requirement, not a courtesy: an actor turn ends when
  /// WriteStateAsync is *issued*, so an idle activation can be reclaimed
  /// (idle sweep, paging, migration) while its last write is still in
  /// flight. Writes are only serialized within one activation's core; if
  /// the successor activation loads and writes before the predecessor's
  /// write lands, the late write silently rolls the key back — an acked
  /// update lost (caught by the DST conservation checker under
  /// low-cap paging, seed 29). Holding deactivation until the queue is
  /// empty orders every successor load after every predecessor write.
  Future<Status> OnDeactivate() override {
    {
      std::lock_guard<std::mutex> lock(core_->mu);
      if (core_->dirty_count == 0 && !core_->write_pending) {
        return Future<Status>::FromValue(Status::OK());
      }
      if (core_->dirty_count == 0) {
        // Clean state, write(s) still on the wire: hold deactivation until
        // the last one lands.
        Promise<Status> done;
        core_->drain_waiters.push_back(done);
        return done.GetFuture();
      }
    }
    // Dirty: the flush snapshot queues behind every in-flight write, so its
    // completion implies the full drain.
    return WriteStateAsync();
  }

  /// Dispatches the internal persistence timer; application timers are
  /// forwarded to OnAppTimer.
  void OnTimer(const std::string& name) override {
    if (name == kPersistTimerName) {
      bool need_flush;
      {
        std::lock_guard<std::mutex> lock(core_->mu);
        need_flush = core_->dirty_count > 0 && !core_->write_pending;
      }
      if (need_flush) WriteStateAsync();
      return;
    }
    OnAppTimer(name);
  }

  /// Override instead of OnTimer in subclasses of PersistentActor.
  virtual void OnAppTimer(const std::string& name) { (void)name; }

 protected:
  static constexpr char kPersistTimerName[] = "__persist__";

  TState& state() { return state_; }
  const TState& state() const { return state_; }

  const PersistenceOptions& persistence_options() const { return options_; }

  /// Records a state mutation; may trigger a write per the policy. Must be
  /// called from within an actor turn (it snapshots state synchronously).
  void MarkDirty() {
    bool flush = false;
    {
      std::lock_guard<std::mutex> lock(core_->mu);
      ++core_->dirty_count;
      switch (options_.policy) {
        case PersistPolicy::kOnEveryUpdate:
          flush = !core_->write_pending;
          break;
        case PersistPolicy::kWindowed:
          flush = core_->dirty_count >= options_.window_updates &&
                  !core_->write_pending;
          break;
        case PersistPolicy::kOnDeactivate:
          break;
      }
    }
    if (flush) WriteStateAsync();
  }

  /// Serializes the current state and writes it to the provider (with
  /// retries). Call from within a turn. Returns the storage
  /// acknowledgement: OK means the snapshot is durable.
  ///
  /// Writes of one activation are serialized: a snapshot taken while an
  /// earlier write is still in flight is queued and issued after it, so a
  /// stale snapshot can never land on top of a newer one (which would
  /// silently lose acknowledged updates).
  Future<Status> WriteStateAsync() {
    StateStorage* ss = provider();
    if (ss == nullptr) {
      std::lock_guard<std::mutex> lock(core_->mu);
      core_->dirty_count = 0;
      return Future<Status>::FromValue(Status::OK());
    }
    BufWriter w;
    state_.Encode(&w);
    QueuedWrite qw;
    qw.bytes = w.Release();
    qw.seed = NextOpSeed();
    Future<Status> out = qw.done.GetFuture();
    bool issue = false;
    {
      std::lock_guard<std::mutex> lock(core_->mu);
      qw.marks = core_->dirty_count - core_->marks_in_flight;
      core_->marks_in_flight += qw.marks;
      if (core_->write_pending) {
        core_->queue.push_back(std::move(qw));
      } else {
        core_->write_pending = true;
        issue = true;
      }
    }
    if (issue) {
      IssueWrite(core_, ss, ctx().executor(), options_.retry,
                 ctx().self().ToString(), std::move(qw));
    }
    return out;
  }

  /// Unflushed dirty marks (diagnostic; 0 means fully persisted).
  int64_t dirty_count() const {
    std::lock_guard<std::mutex> lock(core_->mu);
    return core_->dirty_count;
  }

  /// Storage operations retried by this activation (loads and writes).
  int64_t storage_retries() const {
    std::lock_guard<std::mutex> lock(core_->mu);
    return core_->retries;
  }

 private:
  /// One serialized state snapshot awaiting its turn on the wire. Snapshots
  /// are encoded inside the actor turn that created them; everything after
  /// that runs against the core only.
  struct QueuedWrite {
    std::string bytes;
    int64_t marks = 0;
    uint64_t seed = 0;
    Promise<Status> done;
  };

  /// Persistence bookkeeping shared with in-flight storage callbacks, so
  /// completions never dereference a possibly-reclaimed actor.
  struct PersistCore {
    mutable std::mutex mu;
    int64_t dirty_count = 0;
    /// Dirty marks claimed by the in-flight and queued writes.
    int64_t marks_in_flight = 0;
    bool write_pending = false;
    std::deque<QueuedWrite> queue;
    /// Deactivations waiting for the in-flight write queue to drain (see
    /// OnDeactivate). Completed OK once write_pending clears; the write's
    /// own status went to its caller.
    std::vector<Promise<Status>> drain_waiters;
    int64_t retries = 0;
    uint64_t op_seq = 0;

    void BumpRetries() {
      std::lock_guard<std::mutex> lock(mu);
      ++retries;
    }
  };

  /// Issues one write (with retries) and, on completion, drains the next
  /// queued snapshot. Static: captures no actor state.
  static void IssueWrite(std::shared_ptr<PersistCore> core, StateStorage* ss,
                         Executor* exec, RetryPolicy policy, std::string key,
                         QueuedWrite qw) {
    auto bytes = std::make_shared<std::string>(std::move(qw.bytes));
    int64_t marks = qw.marks;
    Promise<Status> done = qw.done;
    RetryAsync<Status>(
        exec, policy, qw.seed,
        [ss, key, bytes, exec] { return ss->Write(key, *bytes, exec); },
        IsTransient, [core](const Status&) { core->BumpRetries(); })
        .OnReady([core, ss, exec, policy, key, marks,
                  done](Result<Status>&& r) {
          Status st = FailureOf(r);
          std::optional<QueuedWrite> next;
          std::vector<Promise<Status>> drained;
          {
            std::lock_guard<std::mutex> lock(core->mu);
            core->marks_in_flight -= marks;
            if (st.ok()) core->dirty_count -= marks;
            if (!core->queue.empty()) {
              next.emplace(std::move(core->queue.front()));
              core->queue.pop_front();
            } else {
              core->write_pending = false;
              drained.swap(core->drain_waiters);
            }
          }
          if (!st.ok()) {
            AODB_LOG(Warn, "state write for %s failed permanently: %s",
                     key.c_str(), st.ToString().c_str());
          }
          done.SetValue(st);
          for (Promise<Status>& waiter : drained) {
            waiter.SetValue(Status::OK());
          }
          if (next.has_value()) {
            IssueWrite(std::move(core), ss, exec, policy, std::move(key),
                       std::move(*next));
          }
        });
  }

  StateStorage* provider() const {
    if (!HasContext()) return nullptr;
    StateStorage* ss = ctx().storage(options_.provider);
    return ss;
  }

  /// Deterministic per-operation seed for retry jitter.
  uint64_t NextOpSeed() {
    std::lock_guard<std::mutex> lock(core_->mu);
    return ActorIdHash()(ctx().self()) ^ (0x70657273ULL + ++core_->op_seq);
  }

  const PersistenceOptions options_;
  TState state_;
  std::shared_ptr<PersistCore> core_;
};

}  // namespace aodb

#endif  // AODB_STORAGE_PERSISTENT_ACTOR_H_

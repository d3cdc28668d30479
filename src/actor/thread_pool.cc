#include "actor/thread_pool.h"

#include <algorithm>
#include <array>

namespace aodb {

namespace {

/// Consecutive LIFO-slot pops before a worker must take from its FIFO queue
/// (keeps a post-happy task chain from starving queued work).
constexpr int kMaxLifoStreak = 16;
/// Max tasks taken from a victim in one steal (half the queue, capped).
constexpr size_t kStealBatch = 8;
/// Steal-retry rounds (with yields) before a worker parks.
constexpr int kSpinRounds = 2;

/// Identifies the pool worker running on this thread, so Post can use the
/// zero-contention local path.
struct TlsWorker {
  const void* pool = nullptr;
  void* worker = nullptr;
};
thread_local TlsWorker tls_worker;

}  // namespace

ThreadPoolExecutor::ThreadPoolExecutor(int num_threads) {
  if (num_threads < 1) num_threads = 1;
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
    workers_.back()->rng = (0x9e3779b97f4a7c15ULL * (i + 1)) | 1;
  }
  threads_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
  timer_thread_ = std::thread([this] { TimerLoop(); });
}

ThreadPoolExecutor::~ThreadPoolExecutor() { Shutdown(); }

void ThreadPoolExecutor::Post(Task task) {
  if (shutdown_.load(std::memory_order_acquire)) return;
  Worker* own = tls_worker.pool == this
                    ? static_cast<Worker*>(tls_worker.worker)
                    : nullptr;
  if (own != nullptr) {
    // Local post: the new task takes the LIFO slot (it is cache-hot — a
    // follow-on turn of the envelope just processed); the displaced slot
    // occupant moves to the queue.
    std::lock_guard<std::mutex> lock(own->mu);
    if (own->has_lifo) own->queue.push_back(std::move(own->lifo));
    own->lifo = std::move(task);
    own->has_lifo = true;
    own->size.fetch_add(1);
  } else {
    // External post (client threads, timer callbacks): round-robin across
    // worker queues so producers do not all serialize on one lock.
    size_t i = rr_.fetch_add(1, std::memory_order_relaxed) % workers_.size();
    Worker& w = *workers_[i];
    std::lock_guard<std::mutex> lock(w.mu);
    w.queue.push_back(std::move(task));
    w.size.fetch_add(1);
  }
  // Only signal when some worker is actually parked. At saturation this
  // branch is never taken, so a post is lock+push and nothing else.
  if (num_idle_.load() > 0) UnparkOne();
}

void ThreadPoolExecutor::PostAfter(Micros delay_us, std::function<void()> fn) {
  PostAt(clock()->Now() + (delay_us < 0 ? 0 : delay_us), std::move(fn));
}

void ThreadPoolExecutor::PostAt(Micros due, std::function<void()> fn) {
  bool wake;
  {
    std::lock_guard<std::mutex> lock(timer_mu_);
    if (shutdown_.load(std::memory_order_acquire)) return;
    // Only wake the timer thread when this entry becomes the new earliest
    // deadline; otherwise the thread's current wait already covers it.
    wake = timer_queue_.empty() || due < timer_queue_.front().due;
    timer_queue_.push_back(Timed{due, timer_seq_++, std::move(fn)});
    std::push_heap(timer_queue_.begin(), timer_queue_.end(),
                   std::greater<Timed>());
  }
  if (wake) timer_cv_.notify_one();
}

ExecutorStats ThreadPoolExecutor::Stats() const {
  ExecutorStats s;
  for (const auto& w : workers_) {
    s.tasks_run += w->tasks_run.load(std::memory_order_relaxed);
    s.busy_us += w->busy_us.load(std::memory_order_relaxed);
    s.steals += w->steals.load(std::memory_order_relaxed);
    s.parks += w->parks.load(std::memory_order_relaxed);
    s.queue_depth += std::max<int64_t>(0, w->size.load());
  }
  return s;
}

void ThreadPoolExecutor::Shutdown() {
  if (shutdown_.exchange(true, std::memory_order_acq_rel)) return;
  {
    std::lock_guard<std::mutex> lock(timer_mu_);
  }
  timer_cv_.notify_all();
  for (auto& w : workers_) {
    {
      std::lock_guard<std::mutex> lock(w->mu);
      w->notified = true;
    }
    w->cv.notify_all();
  }
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  if (timer_thread_.joinable()) timer_thread_.join();
}

int64_t ThreadPoolExecutor::TotalQueued() const {
  int64_t total = 0;
  for (const auto& w : workers_) total += w->size.load();
  return total;
}

void ThreadPoolExecutor::UnparkOne() {
  int index;
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
    if (idle_stack_.empty()) return;
    index = idle_stack_.back();
    idle_stack_.pop_back();
    num_idle_.fetch_sub(1);
  }
  Worker& w = *workers_[index];
  {
    std::lock_guard<std::mutex> lock(w.mu);
    w.notified = true;
  }
  w.cv.notify_one();
}

bool ThreadPoolExecutor::TryGetLocal(Worker& me, Task* out) {
  std::lock_guard<std::mutex> lock(me.mu);
  if (me.has_lifo && me.lifo_streak < kMaxLifoStreak) {
    *out = std::move(me.lifo);
    me.has_lifo = false;
    ++me.lifo_streak;
    me.size.fetch_sub(1);
    return true;
  }
  if (!me.queue.empty()) {
    *out = std::move(me.queue.front());
    me.queue.pop_front();
    me.lifo_streak = 0;
    me.size.fetch_sub(1);
    return true;
  }
  if (me.has_lifo) {  // Streak cap hit but the queue is empty anyway.
    *out = std::move(me.lifo);
    me.has_lifo = false;
    me.lifo_streak = 0;
    me.size.fetch_sub(1);
    return true;
  }
  return false;
}

bool ThreadPoolExecutor::TrySteal(int thief, Task* out) {
  const size_t n = workers_.size();
  if (n <= 1) return false;
  Worker& me = *workers_[thief];
  // xorshift64 for a cheap random victim starting point.
  me.rng ^= me.rng << 13;
  me.rng ^= me.rng >> 7;
  me.rng ^= me.rng << 17;
  const size_t start = static_cast<size_t>(me.rng % n);
  for (size_t k = 0; k < n; ++k) {
    const size_t v = (start + k) % n;
    if (v == static_cast<size_t>(thief)) continue;
    Worker& victim = *workers_[v];
    if (victim.size.load() <= 0) continue;  // Cheap pre-screen, no lock.
    std::array<Task, kStealBatch> grabbed;
    size_t took = 0;
    {
      std::unique_lock<std::mutex> lock(victim.mu, std::try_to_lock);
      if (!lock.owns_lock()) continue;  // Contended: move on, don't wait.
      // The LIFO slot is never stolen — it is the victim's cache-hot next
      // task. Steal the OLDEST queued tasks (front), which both preserves
      // rough global FIFO and leaves the victim its freshest work.
      size_t avail = victim.queue.size();
      if (avail == 0) continue;
      size_t take = std::min((avail + 1) / 2, kStealBatch);
      for (; took < take; ++took) {
        grabbed[took] = std::move(victim.queue.front());
        victim.queue.pop_front();
      }
      victim.size.fetch_sub(static_cast<int64_t>(took));
    }
    me.steals.fetch_add(static_cast<int64_t>(took),
                        std::memory_order_relaxed);
    *out = std::move(grabbed[0]);
    if (took > 1) {
      std::lock_guard<std::mutex> lock(me.mu);
      for (size_t i = 1; i < took; ++i) {
        me.queue.push_back(std::move(grabbed[i]));
      }
      me.size.fetch_add(static_cast<int64_t>(took - 1));
    }
    return true;
  }
  return false;
}

void ThreadPoolExecutor::RunTask(Worker& me, Task& task) {
  Micros start = clock()->Now();
  task.fn();
  Micros elapsed = clock()->Now() - start;
  task.fn = nullptr;  // Release captures before the next blocking wait.
  me.tasks_run.fetch_add(1, std::memory_order_relaxed);
  me.busy_us.fetch_add(elapsed, std::memory_order_relaxed);
}

void ThreadPoolExecutor::WorkerLoop(int index) {
  Worker& me = *workers_[index];
  tls_worker.pool = this;
  tls_worker.worker = &me;
  Task task;
  for (;;) {
    if (TryGetLocal(me, &task) || TrySteal(index, &task)) {
      RunTask(me, task);
      continue;
    }
    // Lightly spin before parking: a burst is often right behind.
    bool got = false;
    for (int spin = 0; spin < kSpinRounds && !got; ++spin) {
      std::this_thread::yield();
      got = TryGetLocal(me, &task) || TrySteal(index, &task);
    }
    if (got) {
      RunTask(me, task);
      continue;
    }
    if (shutdown_.load(std::memory_order_acquire)) {
      // Drain: no new work can be posted once shutdown_ is set, so the
      // total is monotonically decreasing; leave only when it hits zero
      // (another worker may still hold tasks we failed to steal above).
      if (TotalQueued() == 0) {
        tls_worker = TlsWorker{};
        return;
      }
      std::this_thread::yield();
      continue;
    }
    // Park. Register as idle FIRST, then re-check for work: a poster either
    // sees us on the idle stack (and unparks us) or we see its queue
    // increment here — never neither (both sides use seq-cst accesses).
    {
      std::lock_guard<std::mutex> lock(idle_mu_);
      idle_stack_.push_back(index);
      num_idle_.fetch_add(1);
    }
    if (TotalQueued() > 0 || shutdown_.load(std::memory_order_acquire)) {
      bool removed = false;
      {
        std::lock_guard<std::mutex> lock(idle_mu_);
        auto it = std::find(idle_stack_.begin(), idle_stack_.end(), index);
        if (it != idle_stack_.end()) {
          idle_stack_.erase(it);
          num_idle_.fetch_sub(1);
          removed = true;
        }
      }
      if (removed) continue;
      // Already popped by an unparker: its notification is in flight, fall
      // through and consume it so the token is not left dangling.
    }
    me.parks.fetch_add(1, std::memory_order_relaxed);
    std::unique_lock<std::mutex> lock(me.mu);
    me.cv.wait(lock, [this, &me] {
      return me.notified || me.has_lifo || !me.queue.empty() ||
             shutdown_.load(std::memory_order_acquire);
    });
    me.notified = false;
  }
}

void ThreadPoolExecutor::TimerLoop() {
  std::unique_lock<std::mutex> lock(timer_mu_);
  for (;;) {
    if (shutdown_.load(std::memory_order_acquire)) return;
    if (timer_queue_.empty()) {
      timer_cv_.wait(lock);
      continue;
    }
    Micros now = clock()->Now();
    const Timed& next = timer_queue_.front();
    if (next.due <= now) {
      std::pop_heap(timer_queue_.begin(), timer_queue_.end(),
                    std::greater<Timed>());
      std::function<void()> fn = std::move(timer_queue_.back().fn);
      timer_queue_.pop_back();
      lock.unlock();
      // Delayed callbacks (network delivery, storage completions, timers)
      // run on the timer thread itself; they are expected to be cheap
      // enqueue operations.
      fn();
      lock.lock();
      continue;
    }
    timer_cv_.wait_for(lock, std::chrono::microseconds(next.due - now));
  }
}

}  // namespace aodb

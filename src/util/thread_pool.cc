#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "util/env.h"
#include "util/logging.h"

namespace dpaudit {
namespace {

std::atomic<const ThreadPoolTelemetryHooks*> g_pool_hooks{nullptr};

uint64_t PoolNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

void SetThreadPoolTelemetryHooks(const ThreadPoolTelemetryHooks* hooks) {
  g_pool_hooks.store(hooks, std::memory_order_release);
}

// One region: the body, the shared cursor, and the count of runners that
// are queued or running. `runners` is guarded by the pool's mutex, so a
// runner's last access to the region happens before Retract() can return.
struct ThreadPool::Region {
  const ParticipantBody* fn = nullptr;
  size_t n = 0;
  size_t grain = 1;
  std::atomic<size_t> next{0};
  size_t runners = 0;

  // Self-scheduling loop: claim `grain` consecutive indices from the shared
  // cursor, run them, repeat until the range is exhausted. The runners and
  // the calling thread all execute this, so the region always makes
  // progress even when no runner starts.
  void Drain(size_t participant) {
    for (;;) {
      const size_t begin = next.fetch_add(grain, std::memory_order_relaxed);
      if (begin >= n) return;
      const size_t end = std::min(n, begin + grain);
      for (size_t i = begin; i < end; ++i) (*fn)(i, participant);
    }
  }
};

ThreadPool::ThreadPool(size_t num_threads) {
  num_threads = std::max<size_t>(1, num_threads);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Schedule(Region* region, size_t participant) {
  Task task;
  task.region = region;
  task.participant = participant;
  task.hooks = g_pool_hooks.load(std::memory_order_acquire);
  if (task.hooks != nullptr) {
    task.context = task.hooks->capture_context();
    task.enqueue_ns = PoolNowNs();
  }
  const ThreadPoolTelemetryHooks* hooks = task.hooks;
  size_t depth = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    DPAUDIT_CHECK(!shutting_down_) << "Schedule() after shutdown";
    queue_.push_back(task);
    ++region->runners;
    depth = queue_.size();
  }
  work_available_.notify_one();
  if (hooks != nullptr && hooks->record_queue_depth != nullptr) {
    hooks->record_queue_depth(depth);
  }
}

void ThreadPool::Retract(Region* region) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto unstarted =
      std::remove_if(queue_.begin(), queue_.end(),
                     [region](const Task& task) {
                       return task.region == region;
                     });
  region->runners -= static_cast<size_t>(queue_.end() - unstarted);
  queue_.erase(unstarted, queue_.end());
  runner_finished_.wait(lock, [region] { return region->runners == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(
          lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      task = queue_.front();
      queue_.pop_front();
    }
    if (task.hooks != nullptr) {
      const uint64_t start_ns = PoolNowNs();
      const void* previous = task.hooks->enter_context(task.context);
      task.region->Drain(task.participant);
      task.hooks->exit_context(previous);
      const uint64_t end_ns = PoolNowNs();
      task.hooks->record_task_ns(start_ns - task.enqueue_ns,
                                 end_ns - start_ns);
    } else {
      task.region->Drain(task.participant);
    }
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (--task.region->runners == 0) runner_finished_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(size_t n, size_t num_threads, const Body& fn) {
  ParallelForChunked(n, num_threads, /*grain=*/0, fn);
}

void ThreadPool::ParallelFor(size_t n, size_t num_threads,
                             const ParticipantBody& fn) {
  ParallelForChunked(n, num_threads, /*grain=*/0, fn);
}

void ThreadPool::ParallelForChunked(size_t n, size_t num_threads, size_t grain,
                                    const Body& fn) {
  ParallelForChunked(n, num_threads, grain,
                     ParticipantBody([&fn](size_t i, size_t) { fn(i); }));
}

void ThreadPool::ParallelForChunked(size_t n, size_t num_threads, size_t grain,
                                    const ParticipantBody& fn) {
  if (n == 0) return;
  const size_t width = std::min(num_threads, n);
  if (width <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i, 0);
    return;
  }
  ThreadPool& pool = SharedThreadPool();
  Region region;
  region.fn = &fn;
  region.n = n;
  // Auto grain: ~4 chunks per participant balances cursor traffic against
  // tail imbalance for cheap bodies; callers with heavyweight bodies pass 1.
  region.grain = grain > 0 ? grain : std::max<size_t>(1, n / (4 * width));
  // The caller is participant 0, so one runner fewer than the width; runners
  // beyond the pool size would only queue up behind each other.
  const size_t runners = std::min(width - 1, pool.num_threads());
  for (size_t r = 1; r <= runners; ++r) pool.Schedule(&region, r);
  try {
    region.Drain(0);
  } catch (...) {
    pool.Retract(&region);
    throw;
  }
  pool.Retract(&region);
}

ThreadPool& SharedThreadPool() {
  // Meyers singleton: constructed at first parallel region, joined at static
  // destruction (a leaked pool would trip LeakSanitizer and leave detached
  // threads racing static teardown under TSan).
  static ThreadPool pool(DefaultThreadCount());
  return pool;
}

namespace {

std::atomic<size_t>& ThreadCountOverrideStorage() {
  static std::atomic<size_t> value{0};
  return value;
}

}  // namespace

void SetDefaultThreadCountOverride(size_t value) {
  ThreadCountOverrideStorage().store(value, std::memory_order_relaxed);
}

size_t DefaultThreadCount() {
  // Precedence: explicit override (the --threads flag, pushed down by
  // core/runtime_options) > DPAUDIT_THREADS > hardware-derived default. The
  // env read stays per-call so tests can setenv/unsetenv between regions;
  // CI forces >1 on single-core runners so sanitizer jobs exercise real
  // concurrency, and operators pin it down on shared machines.
  const size_t override_value =
      ThreadCountOverrideStorage().load(std::memory_order_relaxed);
  if (override_value > 0) return std::min<size_t>(256, override_value);
  const int64_t forced = EnvInt64("DPAUDIT_THREADS", 0);
  if (forced > 0) {
    return std::min<size_t>(256, static_cast<size_t>(forced));
  }
  unsigned hc = std::thread::hardware_concurrency();
  if (hc == 0) hc = 4;
  return std::min<size_t>(16, std::max<size_t>(1, hc));
}

size_t NestedThreadBudget(size_t total_threads, size_t outer_tasks) {
  if (outer_tasks == 0) return std::max<size_t>(1, total_threads);
  return std::max<size_t>(1, total_threads / outer_tasks);
}

}  // namespace dpaudit

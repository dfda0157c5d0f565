// The process-wide worker pool and the parallel regions that run on it.
//
// Determinism contract: callers pass per-task seeds derived via Rng::Split, so
// results do not depend on which worker executes which task.

#ifndef DPAUDIT_UTIL_THREAD_POOL_H_
#define DPAUDIT_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dpaudit {

/// Telemetry hooks shared by every pool: queue/execute timing plus span-
/// context propagation from the scheduling thread to the worker (so profile
/// spans opened inside pool tasks nest under the scheduler's span — see
/// obs/span.h). Installed process-wide by obs/telemetry when telemetry is
/// enabled; with no hooks installed the pool pays one relaxed atomic load
/// per task. The hook pointer seen when a task is queued travels with it, so
/// a task is either fully instrumented or not at all.
struct ThreadPoolTelemetryHooks {
  /// Called on the scheduling thread; the token travels with the task.
  const void* (*capture_context)();
  /// Bracket task execution on the worker; enter returns the worker's
  /// previous context, which the pool passes back to exit.
  const void* (*enter_context)(const void* token);
  void (*exit_context)(const void* previous);
  /// Called on the worker after each task with its queue-wait and execution
  /// time in nanoseconds.
  void (*record_task_ns)(uint64_t queue_ns, uint64_t execute_ns);
  /// Called on the scheduling thread right after each enqueue with the queue
  /// length it observed (the task itself included), so exports can show how
  /// far ahead of the workers the schedulers run.
  void (*record_queue_depth)(size_t depth);
};

/// Installs (or, with nullptr, removes) the process-wide hooks. The struct
/// must outlive every pool task scheduled while it is installed.
void SetThreadPoolTelemetryHooks(const ThreadPoolTelemetryHooks* hooks);

/// A fixed set of workers that runs parallel regions. Parallel work has one
/// entry point, ParallelFor / ParallelForChunked, and one pool,
/// SharedThreadPool(): the constructor is private and that function is its
/// only caller, so no other pool can exist and no caller can leave a task
/// queued past its region. (A second pool would oversubscribe the machine,
/// pay thread spawn/join per owner, and need its own teardown story.)
///
/// A region of width w has participants 0..w-1. The calling thread is
/// participant 0; participants 1..w-1 are runner tasks queued on the pool.
/// Each participant repeatedly claims a chunk of the index range from a
/// shared cursor and runs the body on it, so the region completes even when
/// no runner ever starts (every worker busy, e.g. in an enclosing region).
/// Before a region returns it retracts the runners that have not started
/// from the queue and waits only for the ones that did; nothing outlives the
/// call, so the region's state lives on the caller's stack.
class ThreadPool {
 public:
  /// The region body: index in [0, n), and participant in [0, width). A
  /// participant index is held by one thread for the whole region, so
  /// per-participant state (model replicas, scratch buffers) indexed by it
  /// is never shared.
  using Body = std::function<void(size_t index)>;
  using ParticipantBody = std::function<void(size_t index, size_t participant)>;

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains the (by then empty) queue and joins all workers.
  ~ThreadPool();

  size_t num_threads() const { return workers_.size(); }

  /// Runs fn(i) for i in [0, n) and waits for completion. `fn` must be safe
  /// to invoke concurrently for distinct i.
  ///
  /// The region's width is min(num_threads, n): `num_threads` caps how many
  /// participants share THIS loop, not how many threads exist. Nested calls
  /// — a ParallelFor issued from inside a region body — cannot deadlock,
  /// because the inner caller drains its own range itself. A width of 1
  /// (num_threads <= 1 or n == 1) runs inline, in index order, on the
  /// caller as participant 0.
  static void ParallelFor(size_t n, size_t num_threads, const Body& fn);
  static void ParallelFor(size_t n, size_t num_threads,
                          const ParticipantBody& fn);

  /// ParallelFor with an explicit chunk size: participants repeatedly claim
  /// `grain` consecutive indices from the shared cursor (self-scheduling —
  /// an idle participant takes the next chunk no matter which conceptual
  /// "cell" it belongs to). grain = 0 picks a default that amortizes the
  /// cursor contention for cheap bodies; heavyweight bodies (experiment
  /// trials) should pass grain = 1 for maximal balance.
  static void ParallelForChunked(size_t n, size_t num_threads, size_t grain,
                                 const Body& fn);
  static void ParallelForChunked(size_t n, size_t num_threads, size_t grain,
                                 const ParticipantBody& fn);

 private:
  friend ThreadPool& SharedThreadPool();

  struct Region;  // one region's cursor and body, on its caller's stack

  struct Task {
    Region* region = nullptr;
    size_t participant = 0;
    const ThreadPoolTelemetryHooks* hooks = nullptr;  // seen when queued
    const void* context = nullptr;                    // captured span context
    uint64_t enqueue_ns = 0;
  };

  /// Starts `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);

  /// Queues a runner that joins `region` as `participant`.
  void Schedule(Region* region, size_t participant);

  /// Removes `region`'s runners that have not started from the queue, then
  /// waits until the started ones have finished.
  void Retract(Region* region);

  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable runner_finished_;
  std::deque<Task> queue_;
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
};

/// The process-wide persistent pool every region (and with it the sweep
/// scheduler, core/sweep_scheduler.h, and the gradient engine,
/// nn/gradient_engine.h) runs on. Created on first use with
/// DefaultThreadCount() workers — so DPAUDIT_THREADS is read once, at the
/// first parallel region — and torn down at static destruction, joining all
/// workers (no leaked threads under LeakSanitizer).
ThreadPool& SharedThreadPool();

/// Number of workers to use by default: hardware concurrency clamped to
/// [1, 16] so experiment binaries behave on small containers. The
/// DPAUDIT_THREADS environment variable (clamped to [1, 256]) overrides the
/// hardware-derived value — results are bit-identical for any thread count,
/// so this only trades wall clock for parallelism (and lets sanitizer CI
/// force real concurrency on small runners).
size_t DefaultThreadCount();

/// Installs (value > 0) or clears (0) a process-wide thread-count override
/// that takes precedence over DPAUDIT_THREADS in DefaultThreadCount. Applied
/// by core/runtime_options when the --threads flag (or an explicit
/// RuntimeOptions) is in effect. Install it BEFORE the first parallel
/// region: SharedThreadPool() sizes itself once, at first use.
void SetDefaultThreadCountOverride(size_t value);

/// Thread budget for each inner parallel region when `outer_tasks` of them
/// run concurrently under a total budget of `total_threads`: total / outer,
/// at least 1. Keeps nested parallelism (experiment repetitions on the
/// outside, per-example gradients on the inside) from oversubscribing the
/// machine.
size_t NestedThreadBudget(size_t total_threads, size_t outer_tasks);

}  // namespace dpaudit

#endif  // DPAUDIT_UTIL_THREAD_POOL_H_

#include "core/sweep_scheduler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "core/ledger_bridge.h"
#include "core/runtime_options.h"
#include "core/sweep_journal.h"
#include "core/trace.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "util/fault_injection.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace dpaudit {
namespace {

// Mutable per-cell state of one flattened sweep. Prep runs under the
// once_flag on whichever thread claims one of the cell's trials first;
// call_once publishes every field it writes to the other trial tasks.
struct CellRun {
  const SweepCell* cell = nullptr;

  std::once_flag once;
  Status prep_status = Status::Ok();
  DiExperimentConfig config;  // configured copy, dpsgd.threads resolved
  TraceFingerprint key;
  // The cell's one trial array, indexed by rep: replayed, resumed and
  // trained trials land here, and it is saved, journaled, ledgered and
  // returned as the summary from here.
  ExperimentTrace trace;
  bool record = false;   // Save() the trace once every rep has run
  size_t replayed = 0;   // leading trials replayed from the cache
  size_t resumed = 0;    // trials filled from the checkpoint journal
  std::vector<uint8_t> from_journal;  // per-rep: skip training, journal won
  std::vector<Status> trial_status;
  std::atomic<size_t> retried{0};  // extra attempts beyond each first try
  std::atomic<size_t> trials_finished{0};  // heartbeat: cell done detection
};

/// Deterministic per-attempt backoff jitter: splitmix64 over (seed, cell,
/// rep, attempt), so retry timing never depends on wall clock or thread
/// identity (results never depend on timing either way; this just keeps the
/// schedule reproducible for debugging).
uint64_t RetryJitterMs(uint64_t seed, size_t cell, size_t rep, size_t attempt,
                       uint64_t base_ms) {
  uint64_t z = seed ^ (0x9e3779b97f4a7c15ull * (cell + 1)) ^
               (0xbf58476d1ce4e5b9ull * (rep + 1)) ^
               (0x94d049bb133111ebull * attempt);
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return base_ms == 0 ? 0 : z % (base_ms + 1);
}

// --progress/DPAUDIT_PROGRESS (core/runtime_options.h): opt-in sweep
// heartbeat. A single monitor thread wakes every `secs` seconds and reports
// cells/trials done, throughput, and an ETA through DPAUDIT_LOG (stderr), so
// figure stdout stays byte-identical. With the knob unset no thread is
// started and the per-trial cost is two relaxed atomic increments.
class ProgressMonitor {
 public:
  ProgressMonitor(size_t total_cells, size_t total_trials)
      : total_cells_(total_cells), total_trials_(total_trials) {
    const int64_t seconds = CurrentRuntimeOptions().progress_seconds;
    if (seconds <= 0) return;
    interval_ = std::chrono::seconds(seconds);
    start_ns_ = obs::MonotonicNowNs();
    // Not pool work: the heartbeat must fire while the pool is saturated
    // with trials, so it owns a dedicated thread for the sweep's lifetime.
    thread_ = std::thread([this] { Loop(); });  // NOLINT(dpaudit-raw-thread)
  }

  ~ProgressMonitor() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  void TrialDone(size_t n = 1) {
    trials_done_.fetch_add(n, std::memory_order_relaxed);
  }
  void CellDone() { cells_done_.fetch_add(1, std::memory_order_relaxed); }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!done_) {
      if (cv_.wait_for(lock, interval_, [this] { return done_; })) break;
      Report();
    }
  }

  void Report() const {
    const uint64_t trials = trials_done_.load(std::memory_order_relaxed);
    const uint64_t cells = cells_done_.load(std::memory_order_relaxed);
    const double elapsed_s =
        static_cast<double>(obs::MonotonicNowNs() - start_ns_) * 1e-9;
    const double rate =
        elapsed_s > 0.0 ? static_cast<double>(trials) / elapsed_s : 0.0;
    const double pct =
        total_trials_ > 0
            ? 100.0 * static_cast<double>(trials) /
                  static_cast<double>(total_trials_)
            : 100.0;
    const double eta_s = rate > 0.0 && trials < total_trials_
                             ? static_cast<double>(total_trials_ - trials) /
                                   rate
                             : 0.0;
    char line[160];
    std::snprintf(line, sizeof(line),
                  "sweep progress: cells %llu/%zu, trials %llu/%zu "
                  "(%.1f%%), %.2f trials/s, eta %.0f s",
                  static_cast<unsigned long long>(cells), total_cells_,
                  static_cast<unsigned long long>(trials), total_trials_,
                  pct, rate, eta_s);
    DPAUDIT_LOG(INFO) << line;
  }

  const size_t total_cells_;
  const size_t total_trials_;
  std::atomic<uint64_t> trials_done_{0};
  std::atomic<uint64_t> cells_done_{0};
  std::chrono::seconds interval_{0};
  uint64_t start_ns_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // NOLINT(dpaudit-raw-thread)
};

// Fills the reps the trace cache did not cover from the checkpoint journal.
// The cache prefix wins where both apply — the bytes are identical either
// way (both are recordings of the same pure trial function). Journal-resumed
// reps are moved into their slots exactly as a live run would have filled
// them, so everything downstream (estimators, ledger, Save) is bit-identical.
// A resumed slot is never written again during the sweep, which is what
// SweepJournal::Take needs to serve a second cell with the same fingerprint.
void ResumeFromJournal(SweepJournal* journal, size_t reps, CellRun* run) {
  if (journal == nullptr) return;
  run->from_journal.assign(reps, 0);
  for (size_t rep = run->replayed; rep < reps; ++rep) {
    if (!journal->Take(run->key, rep, &run->trace.trials[rep])) continue;
    run->from_journal[rep] = 1;
    ++run->resumed;
  }
  if (run->resumed > 0) {
    DPAUDIT_LOG(INFO) << "sweep journal resumes " << run->resumed << "/"
                      << reps << " repetitions of cell "
                      << run->key.ToHex();
  }
}

// Lazy per-cell setup: deferred calibration, validation, trace-cache probe,
// prefix replay, checkpoint-journal resume. Runs inside the trial task set,
// so a later cell's (often expensive) calibration overlaps earlier cells'
// training instead of serializing the sweep.
void PrepareCell(size_t inner_threads, TraceStore* store, bool ledger,
                 SweepJournal* journal, CellRun* run) {
  DPAUDIT_SPAN("sweep_cell_prep");
  const SweepCell& cell = *run->cell;
  run->config = cell.config;
  if (cell.configure) {
    Status st = cell.configure(&run->config);
    if (!st.ok()) {
      run->prep_status = st;
      return;
    }
    if (run->config.repetitions != cell.config.repetitions) {
      run->prep_status = Status::InvalidArgument(
          "SweepCell::configure must not change repetitions");
      return;
    }
  }
  Status valid = run->config.dpsgd.Validate();
  if (!valid.ok()) {
    run->prep_status = valid;
    return;
  }
  if (run->config.dpsgd.threads == 0) {
    run->config.dpsgd.threads = inner_threads;
  }

  const size_t reps = run->config.repetitions;
  run->trial_status.assign(reps, Status::Ok());
  if (store != nullptr || ledger || journal != nullptr) {
    run->key = FingerprintExperiment(*cell.architecture, *cell.d,
                                     *cell.d_prime, run->config,
                                     cell.test_set);
    run->trace.fingerprint = run->key;
  }
  if (store != nullptr) {
    StatusOr<ExperimentTrace> cached = store->Load(run->key);
    if (cached.ok()) {
      // A shorter recording is this run's prefix and only the tail trains
      // (the prefix-extensible contract, core/trace.h). A longer one is cut
      // to `reps` below: a full hit is never re-saved, so the summary and
      // the ledger see exactly the trials a cold run would.
      run->trace.trials = std::move(cached->trials);
      run->replayed = std::min(run->trace.trials.size(), reps);
      if (run->replayed < reps) {
        DPAUDIT_LOG(INFO) << "trace " << run->key.ToHex() << " replays "
                          << run->replayed << "/" << reps
                          << " repetitions; extending";
      }
    } else if (cached.status().code() != StatusCode::kNotFound) {
      DPAUDIT_LOG(WARNING) << "ignoring unreadable trace " << run->key.ToHex()
                           << ": " << cached.status().message();
    }
    run->record = run->replayed < reps;
  }
  run->trace.trials.resize(reps);
  ResumeFromJournal(journal, reps, run);
}

void CountSweepMetrics(const SweepStats& stats) {
  DPAUDIT_METRIC_COUNT("dpaudit_sweep_cells_total", stats.cells);
  DPAUDIT_METRIC_COUNT("dpaudit_sweep_trace_full_hits_total",
                       stats.trace_full_hits);
  DPAUDIT_METRIC_COUNT("dpaudit_sweep_trace_prefix_hits_total",
                       stats.trace_prefix_hits);
  DPAUDIT_METRIC_COUNT("dpaudit_sweep_trace_misses_total",
                       stats.trace_misses);
  DPAUDIT_METRIC_COUNT("dpaudit_sweep_trials_replayed_total",
                       stats.trials_replayed);
  DPAUDIT_METRIC_COUNT("dpaudit_sweep_trials_trained_total",
                       stats.trials_trained);
  DPAUDIT_METRIC_COUNT("dpaudit_sweep_trials_resumed_total",
                       stats.trials_resumed);
  DPAUDIT_METRIC_COUNT("dpaudit_sweep_trials_retried_total",
                       stats.trials_retried);
  DPAUDIT_METRIC_COUNT("dpaudit_sweep_trials_failed_total",
                       stats.trials_failed);
  DPAUDIT_METRIC_COUNT("dpaudit_sweep_cells_degraded_total",
                       stats.cells_degraded);
}

}  // namespace

std::vector<StatusOr<DiExperimentSummary>> RunSweep(
    const std::vector<SweepCell>& cells, const SweepOptions& options,
    SweepStats* stats) {
  DPAUDIT_SPAN("sweep_schedule");
  const size_t threads =
      options.threads == 0 ? DefaultThreadCount() : options.threads;
  SweepStats local;
  local.cells = cells.size();
  const bool ledger = LedgerEnabled();

  // Flattened grid: cell i owns flat indices [offset[i], offset[i] + reps_i).
  // Repetition counts come from the static configs — configure may not
  // change them — so the grid is fully shaped before any cell runs.
  std::vector<CellRun> runs(cells.size());
  std::vector<size_t> offset(cells.size() + 1, 0);
  for (size_t i = 0; i < cells.size(); ++i) {
    runs[i].cell = &cells[i];
    offset[i + 1] = offset[i] + cells[i].config.repetitions;
  }
  const size_t total = offset.back();
  // Split the thread budget between the two levels of parallelism: up to
  // `threads` trials run side by side and each trial's gradient engine gets
  // the remainder, so trials x examples never oversubscribes the budget. A
  // saturated grid leaves each trial 1 thread; a single experiment with
  // fewer repetitions than threads keeps inner parallelism.
  const size_t inner_threads =
      NestedThreadBudget(threads, std::min(threads, total));
  const size_t retries = options.trial_retries;
  const uint64_t backoff_base_ms = options.retry_backoff_ms;
  ProgressMonitor monitor(cells.size(), total);

  // Checkpoint journal: loaded up front so PrepareCell can skip trials a
  // previous (crashed) run of this sweep already trained. Best-effort — a
  // journal that cannot be opened costs crash-safety, never the sweep.
  std::unique_ptr<SweepJournal> journal;
  if (!options.checkpoint.empty()) {
    StatusOr<std::unique_ptr<SweepJournal>> opened =
        SweepJournal::Open(options.checkpoint);
    if (opened.ok()) {
      journal = std::move(*opened);
      if (journal->loaded_trials() > 0) {
        DPAUDIT_LOG(INFO) << "sweep journal " << options.checkpoint
                          << " holds " << journal->loaded_trials()
                          << " completed trial(s)";
      }
    } else {
      DPAUDIT_LOG(WARNING) << "sweep checkpoint disabled: "
                           << opened.status().message();
    }
  }

  ThreadPool::ParallelForChunked(total, threads, /*grain=*/1,
                                 [&](size_t flat) {
    // flat -> (cell, rep). Cells are few; binary search keeps the map O(log).
    const size_t c = static_cast<size_t>(
        std::upper_bound(offset.begin(), offset.end(), flat) -
        offset.begin()) - 1;
    const size_t rep = flat - offset[c];
    CellRun& run = runs[c];
    std::call_once(run.once, [&] {
      PrepareCell(inner_threads, options.trace_store, ledger, journal.get(),
                  &run);
    });
    const size_t cell_reps = offset[c + 1] - offset[c];
    const bool resumed =
        !run.from_journal.empty() && run.from_journal[rep] != 0;
    if (!run.prep_status.ok() || rep < run.replayed || resumed) {
      monitor.TrialDone();
      if (run.trials_finished.fetch_add(1, std::memory_order_relaxed) + 1 ==
          cell_reps) {
        monitor.CellDone();
      }
      return;
    }
    // A worker hopping to a different cell than its previous trial is the
    // work-stealing event worth counting: it means dynamic dispatch moved
    // idle capacity across a former cell barrier.
    thread_local const void* last_cell = nullptr;
    if (last_cell != static_cast<const void*>(&run)) {
      if (last_cell != nullptr) {
        DPAUDIT_METRIC_COUNT("dpaudit_sweep_cell_switches_total", 1);
      }
      last_cell = static_cast<const void*>(&run);
    }
    // Failure isolation: a throwing (or fault-injected) trial is retried up
    // to the budget with jittered backoff; the trial is a pure function of
    // (config, seed, rep), so a retry that succeeds is bit-identical to a
    // first attempt that would have. Exhaustion marks the rep failed and the
    // cell degrades in the results loop instead of sinking the sweep.
    Status trial_result = Status::Ok();
    for (size_t attempt = 1;; ++attempt) {
      if (fault::FailTrialAttempt(c, rep)) {
        trial_result = Status::Internal(
            "injected trial fault (cell " + std::to_string(c) + ", rep " +
            std::to_string(rep) + ", attempt " + std::to_string(attempt) +
            ")");
      } else {
        try {
          trial_result = RunDiTrial(
              *run.cell->architecture, *run.cell->d, *run.cell->d_prime,
              run.config, rep, &run.trace.trials[rep], run.cell->test_set);
        } catch (const std::exception& e) {
          trial_result =
              Status::Internal(std::string("trial threw: ") + e.what());
        } catch (...) {
          trial_result = Status::Internal("trial threw a non-std exception");
        }
      }
      if (trial_result.ok() || attempt > retries) break;
      run.retried.fetch_add(1, std::memory_order_relaxed);
      DPAUDIT_LOG(WARNING) << "sweep trial (cell " << c << ", rep " << rep
                           << ") attempt " << attempt
                           << " failed: " << trial_result.message()
                           << "; retrying ("
                           << (retries - attempt + 1) << " left)";
      const uint64_t backoff_ms =
          backoff_base_ms * attempt +
          RetryJitterMs(run.config.seed, c, rep, attempt, backoff_base_ms);
      if (backoff_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(
            std::min<uint64_t>(backoff_ms, 10'000)));
      }
    }
    run.trial_status[rep] = trial_result;
    if (trial_result.ok() && journal != nullptr) {
      // Checkpoint the trial the moment it completes, from the worker — rows
      // land in completion order, which resume tolerates by keying on
      // (fingerprint, rep).
      journal->AppendTrial(run.key, rep, run.config.seed,
                           run.trace.trials[rep]);
    }
    monitor.TrialDone();
    if (run.trials_finished.fetch_add(1, std::memory_order_relaxed) + 1 ==
        cell_reps) {
      monitor.CellDone();
    }
  });

  std::vector<StatusOr<DiExperimentSummary>> results;
  results.reserve(cells.size());
  local.per_cell.resize(cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    CellRun& run = runs[i];
    if (cells[i].config.repetitions == 0) {
      // Zero-width cells never enter the grid, so prep never ran.
      results.emplace_back(
          Status::InvalidArgument("repetitions must be > 0"));
      continue;
    }
    if (!run.prep_status.ok()) {
      results.emplace_back(run.prep_status);
      continue;
    }
    const size_t reps = run.config.repetitions;
    Status first_failure = Status::Ok();
    size_t failed_reps = 0;
    for (const Status& st : run.trial_status) {
      if (st.ok()) continue;
      if (first_failure.ok()) first_failure = st;
      ++failed_reps;
    }
    SweepCellStats& cell_stats = local.per_cell[i];
    cell_stats.replayed = run.replayed;
    cell_stats.resumed = run.resumed;
    cell_stats.failed = failed_reps;
    cell_stats.retried = run.retried.load(std::memory_order_relaxed);
    cell_stats.trained = reps - run.replayed - run.resumed - failed_reps;
    local.trials_replayed += cell_stats.replayed;
    local.trials_resumed += cell_stats.resumed;
    local.trials_trained += cell_stats.trained;
    local.trials_retried += cell_stats.retried;
    local.trials_failed += cell_stats.failed;
    if (options.verbose) {
      DPAUDIT_LOG(INFO) << "sweep cell " << i << ": replayed "
                        << cell_stats.replayed << ", resumed "
                        << cell_stats.resumed << ", trained "
                        << cell_stats.trained << ", failed "
                        << cell_stats.failed << ", retried "
                        << cell_stats.retried << " (of " << reps
                        << " repetitions)";
    }
    if (failed_reps == reps) {
      // Nothing survived: keep the historical whole-cell error behavior.
      results.emplace_back(first_failure);
      continue;
    }
    const bool degraded = failed_reps > 0;
    if (degraded) {
      // Partial-repetition estimate: compact the trials down to the
      // surviving reps, preserving repetition order. The trace is NOT saved
      // — a cache entry must be a pure prefix of reps 0..k-1, which a
      // gapped recording is not — and journaled survivors keep their true
      // rep indices, so a re-run retries exactly the failed reps.
      ++local.cells_degraded;
      DPAUDIT_LOG(WARNING) << "sweep cell " << i << " degraded: "
                           << failed_reps << "/" << reps
                           << " repetitions exhausted the retry budget ("
                           << first_failure.message() << ")";
      std::vector<DiTrialResult> survivors;
      survivors.reserve(reps - failed_reps);
      for (size_t rep = 0; rep < reps; ++rep) {
        if (run.trial_status[rep].ok()) {
          survivors.push_back(std::move(run.trace.trials[rep]));
        }
      }
      run.trace.trials = std::move(survivors);
    } else {
      if (run.record) {
        DPAUDIT_SPAN("trace_record");
        Status saved = options.trace_store->Save(run.trace);
        if (!saved.ok()) {
          DPAUDIT_LOG(WARNING) << "cannot cache trace " << run.key.ToHex()
                               << ": " << saved.message();
        }
      }
      if (options.trace_store != nullptr) {
        if (run.replayed == reps) {
          ++local.trace_full_hits;
        } else if (run.replayed > 0) {
          ++local.trace_prefix_hits;
        } else {
          ++local.trace_misses;
        }
      }
    }
    // The sequential results loop is the single emission point: ledger rows
    // appear in cell order regardless of how work stealing interleaved the
    // trials, so the file is byte-stable across thread counts.
    if (ledger) {
      EmitLedgerExperiment(run.key, run.config, *cells[i].d,
                           *cells[i].d_prime, cells[i].test_set,
                           run.trace.trials);
      if (degraded) {
        EmitLedgerError(run.key, reps, run.trace.trials.size(), failed_reps,
                        first_failure.message());
      }
    }
    DiExperimentSummary summary;
    summary.trials = std::move(run.trace.trials);
    results.push_back(std::move(summary));
  }

  CountSweepMetrics(local);
  if (stats != nullptr) *stats = local;
  return results;
}

}  // namespace dpaudit

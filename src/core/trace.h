// Step-trace record/replay for the Exp^DI harness (Section 6.4 economics).
//
// The paper derives three epsilon' estimators — from per-step sensitivities,
// from posterior beliefs, and from the empirical advantage — out of the SAME
// repeated DPSGD runs, yet each audit consumer historically retrained its
// grid cell from scratch. An ExperimentTrace holds everything those
// estimators (and the figure binaries) read from a run: the trials
// themselves (core/experiment.h's DiTrialResult), with per step the clip
// norm, local and used sensitivity, noise sigma, the released-vs-centers
// log-likelihood contributions, and the belief trajectory, plus each trial's
// final/max beliefs, decision, and test accuracy. A TraceStore persists
// complete traces through io/serialization's checksummed framing, keyed by a
// content fingerprint of the experiment inputs; replaying a trace through
// the sweep scheduler (core/sweep_scheduler.h, which RunDiExperiment also
// runs on) yields a DiExperimentSummary bit-identical to a live run, so every
// downstream Auditor estimator is bit-identical too.
//
// Fingerprint contract: the key hashes the full DpSgdConfig (minus the
// thread count — results are thread-invariant by the gradient engine's
// determinism contract — and with the sampling rate only when it is not 1,
// so batch keys are independent of it), the experiment seed/challenge
// flags, the network architecture (description, parameter count, and
// current parameter values, which seed theta_0 when reinitialize_weights
// is false), and content digests of D, D', and the optional test set. Any change to any of these
// produces a different key, so a stale cache can never be replayed against
// new inputs.
//
// The repetition count is deliberately NOT part of the key: trial r is a
// pure function of (inputs above, r) via Rng::Split, so a recording with R
// trials is a bit-identical prefix of any run with R' >= R repetitions.
// Traces are therefore prefix-extensible — the sweep scheduler replays the
// cached prefix, trains only the missing tail, and saves the extended
// recording under the same key. Concurrent writers of the same key may race
// recordings of different lengths; Save is atomic (write + rename), every
// length is a valid prefix, and the last rename wins.

#ifndef DPAUDIT_CORE_TRACE_H_
#define DPAUDIT_CORE_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "util/status.h"

namespace dpaudit {

/// 128-bit content fingerprint (two independently seeded FNV-1a streams over
/// the canonical encoding of the experiment inputs).
struct TraceFingerprint {
  uint64_t hi = 0;
  uint64_t lo = 0;

  /// 32 lowercase hex characters, hi then lo — the cache file stem.
  std::string ToHex() const;
  static StatusOr<TraceFingerprint> FromHex(const std::string& hex);

  bool operator==(const TraceFingerprint& other) const {
    return hi == other.hi && lo == other.lo;
  }
  bool operator!=(const TraceFingerprint& other) const {
    return !(*this == other);
  }
};

/// A complete recorded experiment: every trial of a repeated experiment,
/// per-step records included. All doubles are stored as IEEE-754 bit
/// patterns, so the replayed trials — and every epsilon' estimator computed
/// from them — are bit-identical to the recording run.
struct ExperimentTrace {
  TraceFingerprint fingerprint;
  std::vector<DiTrialResult> trials;
};

/// Process-wide trace-cache activity, mirrored into the obs metrics registry
/// (dpaudit_trace_cache_{hits,misses,corrupt,evictions}_total). Counted
/// unconditionally — cache events are rare and `dpaudit_cli trace list`
/// reports them without telemetry enabled.
struct TraceCacheCounters {
  uint64_t hits = 0;       // Load() returned a valid entry
  uint64_t misses = 0;     // Load() found no entry
  uint64_t corrupt = 0;    // entries that failed validation (Load or List)
  uint64_t evictions = 0;  // entries removed by Evict/EvictAll
};
TraceCacheCounters GetTraceCacheCounters();

/// Content digest of a dataset (labels, shapes, and float bit patterns).
uint64_t DatasetDigest(const Dataset& dataset);

/// The cache key for RunDiExperiment(architecture, d, d_prime, config,
/// test_set). See the fingerprint contract above.
TraceFingerprint FingerprintExperiment(const Network& architecture,
                                       const Dataset& d,
                                       const Dataset& d_prime,
                                       const DiExperimentConfig& config,
                                       const Dataset* test_set = nullptr);

/// Framed (checksummed, versioned) trace blobs; see io/serialization.h.
StatusOr<std::vector<uint8_t>> SerializeTrace(const ExperimentTrace& trace);
StatusOr<ExperimentTrace> DeserializeTrace(const std::vector<uint8_t>& bytes);

/// Content-addressed on-disk cache of experiment traces: one
/// `<fingerprint>.dptrace` file per experiment under a flat directory.
/// Thread-compatible: distinct experiments write distinct files; concurrent
/// writers of the SAME key write byte-identical content.
class TraceStore {
 public:
  explicit TraceStore(std::string directory);

  /// The process-wide store configured by the DPAUDIT_TRACE_CACHE
  /// environment variable, or nullptr when the variable is unset/empty.
  /// Experiment binaries use this as their default cache.
  static TraceStore* FromEnv();

  const std::string& directory() const { return directory_; }

  /// NotFound when no entry exists; InvalidArgument when the entry exists
  /// but fails validation (truncation, checksum, key mismatch).
  StatusOr<ExperimentTrace> Load(const TraceFingerprint& key) const;

  /// Writes (or atomically overwrites) the entry for trace.fingerprint,
  /// creating the cache directory if needed.
  Status Save(const ExperimentTrace& trace) const;

  struct Entry {
    std::string key;     // fingerprint hex
    uint64_t bytes = 0;  // file size
    size_t repetitions = 0;
    size_t steps = 0;  // steps of the first trial (uniform across trials)
  };

  /// All valid entries, sorted by key. Unreadable/corrupt files are skipped.
  StatusOr<std::vector<Entry>> List() const;

  /// Removes one entry by fingerprint hex; NotFound when absent.
  Status Evict(const std::string& key_hex) const;

  /// Removes every .dptrace entry; returns how many were deleted.
  StatusOr<size_t> EvictAll() const;

  /// The path an entry for `key` lives at.
  std::string PathFor(const TraceFingerprint& key) const;

 private:
  std::string directory_;
};

}  // namespace dpaudit

#endif  // DPAUDIT_CORE_TRACE_H_

// Sweep checkpoint journal: crash-safe resume for audit sweeps.
//
// A paper-scale sweep (Figures 8-10, Table 2) is hours of (cell x
// repetition) trials; losing the whole grid to one crash at 95% is not
// acceptable for an audit service. The journal is an append-only JSONL file
// (`--checkpoint` / DPAUDIT_SWEEP_CHECKPOINT; off by default) that
// records every freshly trained trial the moment it completes: the cell's
// content fingerprint (the same 128-bit key as the trace cache), the
// repetition index, the seed, and the FULL trial record — per-step
// observables included — terminated by a line digest. A re-launched sweep
// loads the journal, skips every recorded trial, and recomputes only the
// tail; because the stored doubles round-trip bit-exactly (%.17g), the
// resumed run's stdout AND ledger are byte-identical to an uninterrupted
// run.
//
// Crash model: rows are written through io/append_log (one write + flush
// per line), so a SIGKILL can tear at most the final line. The loader
// detects the torn tail, drops it, and Open() truncates it away before
// appending — the torn trial simply re-runs. Rows are content-addressed by
// (fingerprint, rep), so a stale journal against changed inputs skips
// nothing and is harmless.
//
// Concurrency: trials complete on pool workers in any order; AppendTrial is
// thread-safe and rows may appear in any order. Resume correctness never
// depends on row order.

#ifndef DPAUDIT_CORE_SWEEP_JOURNAL_H_
#define DPAUDIT_CORE_SWEEP_JOURNAL_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/trace.h"
#include "io/append_log.h"
#include "util/status.h"

namespace dpaudit {

inline constexpr uint32_t kSweepJournalSchemaVersion = 1;

/// First row of every journal: enough provenance for `dpaudit_cli sweep
/// resume` to re-launch the recorded command.
struct SweepJournalManifest {
  uint32_t schema_version = kSweepJournalSchemaVersion;
  std::string binary;              // argv[0] as originally invoked
  std::vector<std::string> args;   // argv[1..], original (pre-stripping)
  std::string cwd;                 // working directory at journal creation
};

/// A parsed journal: the manifest plus every valid trial row, keyed by
/// (fingerprint hex, repetition). Later duplicates win (a re-run may journal
/// the same trial again; the payloads are bit-identical by determinism).
struct LoadedSweepJournal {
  SweepJournalManifest manifest;
  bool has_manifest = false;
  std::map<std::string, std::map<uint64_t, DiTrialResult>> trials;
  size_t trial_rows = 0;     // valid trial rows loaded
  size_t dropped_rows = 0;   // corrupt/undigestible rows skipped
  bool torn_tail = false;    // file ended mid-line (crash signature)
  long long valid_bytes = 0; // offset to truncate to before appending
};

/// Parses the journal at `path` without opening it for writing (the
/// `sweep status` read path). NotFound when the file does not exist.
StatusOr<LoadedSweepJournal> LoadSweepJournal(const std::string& path);

/// Records the process command line for the journal manifest. Binaries call
/// this from main (bench/bench_common.h does it) BEFORE runtime flags are
/// stripped, so `sweep resume` re-executes the exact original invocation.
void RecordCommandLineForJournal(int argc, char* const* argv);

class SweepJournal {
 public:
  /// Opens the journal at `path` for this sweep: loads existing rows
  /// (tolerating and truncating a torn tail), then opens for append. A new
  /// or empty file gets a manifest row first. One journal instance serves
  /// one RunSweep call.
  static StatusOr<std::unique_ptr<SweepJournal>> Open(
      const std::string& path);

  /// Moves the recorded trial for (key, rep) into `*out` and returns true;
  /// false when the journal holds none. The row leaves the journal, so a
  /// resumed trial is held once, in the sweep's trial array. Another cell
  /// with the same fingerprint gets a copy from the first taker's `*out`,
  /// which must therefore stay in place, unmodified, until the last Take.
  /// Thread-safe; cells prepare on pool workers.
  bool Take(const TraceFingerprint& key, uint64_t rep, DiTrialResult* out);

  /// Appends one freshly trained trial. Thread-safe; called from pool
  /// workers as trials complete. A write failure logs once and disables
  /// further appends (crash-safety degrades; the sweep itself continues).
  void AppendTrial(const TraceFingerprint& key, uint64_t rep, uint64_t seed,
                   const DiTrialResult& trial);

  size_t loaded_trials() const { return loaded_.trial_rows; }
  const std::string& path() const { return path_; }

 private:
  SweepJournal() = default;

  std::string path_;
  LoadedSweepJournal loaded_;
  std::mutex take_mu_;  // guards loaded_.trials and taken_ during Take
  // Where each taken row went, keyed like loaded_.trials.
  std::map<std::string, std::map<uint64_t, const DiTrialResult*>> taken_;
  AppendLog log_;
  std::atomic<bool> append_broken_{false};
};

// Serialization internals, exposed for tests and `sweep status`.
std::string EncodeJournalManifestRow(const SweepJournalManifest& manifest);
std::string EncodeJournalTrialRow(const TraceFingerprint& key, uint64_t rep,
                                  uint64_t seed, const DiTrialResult& trial);
/// Strict row decode (digest verified). False on any mismatch.
bool DecodeJournalTrialRow(const std::string& line, std::string* fp_hex,
                           uint64_t* rep, uint64_t* seed,
                           DiTrialResult* trial);

}  // namespace dpaudit

#endif  // DPAUDIT_CORE_SWEEP_JOURNAL_H_

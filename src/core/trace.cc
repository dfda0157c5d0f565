#include "core/trace.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "core/dpsgd.h"
#include "core/runtime_options.h"
#include "io/serialization.h"
#include "obs/metrics.h"
#include "tensor/tensor.h"

namespace dpaudit {
namespace {

// Registry-backed cache counters; references are process-lifetime stable.
obs::Counter& HitCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "dpaudit_trace_cache_hits_total");
  return c;
}
obs::Counter& MissCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "dpaudit_trace_cache_misses_total");
  return c;
}
obs::Counter& CorruptCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "dpaudit_trace_cache_corrupt_total");
  return c;
}
obs::Counter& EvictionCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "dpaudit_trace_cache_evictions_total");
  return c;
}

}  // namespace

TraceCacheCounters GetTraceCacheCounters() {
  TraceCacheCounters counters;
  counters.hits = HitCounter().Value();
  counters.misses = MissCounter().Value();
  counters.corrupt = CorruptCounter().Value();
  counters.evictions = EvictionCounter().Value();
  return counters;
}

namespace {

namespace fs = std::filesystem;

constexpr char kTraceSuffix[] = ".dptrace";

// Bump whenever the canonical fingerprint encoding or the trace payload
// schema changes; old cache entries then simply stop matching/parsing.
// v2: repetitions removed from the fingerprint (prefix-extensible traces).
constexpr uint32_t kTraceSchemaVersion = 2;

// Second FNV-1a offset basis (the standard basis with a flipped low byte)
// so hi and lo are independent 64-bit streams over the same bytes.
constexpr uint64_t kFnvSeedHi = 0xcbf29ce4842223a5ULL;

void HashBytes(const std::vector<uint8_t>& bytes, TraceFingerprint* out) {
  out->lo = Fnv1a64(bytes.data(), bytes.size());
  out->hi = Fnv1a64(bytes.data(), bytes.size(), kFnvSeedHi);
}

void PutBool(std::vector<uint8_t>& out, bool b) {
  wire::PutU32(out, b ? 1 : 0);
}

void PutString(std::vector<uint8_t>& out, const std::string& s) {
  wire::PutU64(out, s.size());
  out.insert(out.end(), s.begin(), s.end());
}

void PutDataset(std::vector<uint8_t>& out, const Dataset& dataset) {
  wire::PutU64(out, dataset.size());
  for (size_t i = 0; i < dataset.size(); ++i) {
    wire::PutU64(out, dataset.labels[i]);
    const Tensor& x = dataset.inputs[i];
    wire::PutU32(out, static_cast<uint32_t>(x.rank()));
    for (size_t dim : x.shape()) wire::PutU64(out, dim);
    for (float v : x.vec()) wire::PutF32(out, v);
  }
}

}  // namespace

std::string TraceFingerprint::ToHex() const {
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return std::string(buf);
}

StatusOr<TraceFingerprint> TraceFingerprint::FromHex(const std::string& hex) {
  if (hex.size() != 32) {
    return Status::InvalidArgument("fingerprint hex must be 32 characters");
  }
  TraceFingerprint key;
  uint64_t* parts[2] = {&key.hi, &key.lo};
  for (int p = 0; p < 2; ++p) {
    uint64_t v = 0;
    for (int i = 0; i < 16; ++i) {
      char c = hex[16 * p + i];
      uint64_t digit;
      if (c >= '0' && c <= '9') {
        digit = static_cast<uint64_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        digit = static_cast<uint64_t>(c - 'a') + 10;
      } else if (c >= 'A' && c <= 'F') {
        digit = static_cast<uint64_t>(c - 'A') + 10;
      } else {
        return Status::InvalidArgument("fingerprint hex has non-hex digit");
      }
      v = (v << 4) | digit;
    }
    *parts[p] = v;
  }
  return key;
}

uint64_t DatasetDigest(const Dataset& dataset) {
  std::vector<uint8_t> bytes;
  PutDataset(bytes, dataset);
  return Fnv1a64(bytes.data(), bytes.size());
}

TraceFingerprint FingerprintExperiment(const Network& architecture,
                                       const Dataset& d,
                                       const Dataset& d_prime,
                                       const DiExperimentConfig& config,
                                       const Dataset* test_set) {
  std::vector<uint8_t> bytes;
  wire::PutU32(bytes, kTraceSchemaVersion);

  // DpSgdConfig, field by field. config.dpsgd.threads is deliberately
  // omitted: the engine's determinism contract makes results identical for
  // any thread count.
  const DpSgdConfig& dpsgd = config.dpsgd;
  wire::PutU64(bytes, dpsgd.epochs);
  wire::PutF64(bytes, dpsgd.learning_rate);
  wire::PutF64(bytes, dpsgd.clip_norm);
  wire::PutF64(bytes, dpsgd.noise_multiplier);
  wire::PutU32(bytes, static_cast<uint32_t>(dpsgd.sensitivity_mode));
  wire::PutU32(bytes, static_cast<uint32_t>(dpsgd.neighbor_mode));
  wire::PutU32(bytes, static_cast<uint32_t>(dpsgd.optimizer));
  PutBool(bytes, dpsgd.adaptive_clipping);
  wire::PutF64(bytes, dpsgd.clip_quantile);
  wire::PutF64(bytes, dpsgd.clip_smoothing);
  PutBool(bytes, dpsgd.per_layer_clipping);

  // Experiment-level knobs. config.repetitions is deliberately omitted:
  // trial r depends only on (seed, r), so a shorter recording is a
  // bit-identical prefix of a longer run and shares its key (the
  // prefix-extensible contract in the header).
  wire::PutU64(bytes, config.seed);
  PutBool(bytes, config.randomize_challenge_bit);
  PutBool(bytes, config.reinitialize_weights);

  // Architecture: structure and current parameters (theta_0 when weights are
  // not reinitialized per trial).
  PutString(bytes, architecture.Describe());
  wire::PutU64(bytes, architecture.NumParams());
  for (float p : architecture.FlatParams()) wire::PutF32(bytes, p);

  // Dataset contents.
  PutDataset(bytes, d);
  PutDataset(bytes, d_prime);
  PutBool(bytes, test_set != nullptr && !test_set->empty());
  if (test_set != nullptr && !test_set->empty()) {
    PutDataset(bytes, *test_set);
  }
  // The sampling rate closes the encoding only when it is not 1, so batch
  // keys do not depend on it and traces cached before the field existed
  // keep replaying. The datasets are length prefixed, so the trailing field
  // cannot alias another encoding.
  if (dpsgd.sampling_rate != 1.0) wire::PutF64(bytes, dpsgd.sampling_rate);

  TraceFingerprint key;
  HashBytes(bytes, &key);
  return key;
}

StatusOr<std::vector<uint8_t>> SerializeTrace(const ExperimentTrace& trace) {
  std::vector<uint8_t> payload;
  wire::PutU32(payload, kTraceSchemaVersion);
  wire::PutU64(payload, trace.fingerprint.hi);
  wire::PutU64(payload, trace.fingerprint.lo);
  wire::PutU64(payload, trace.trials.size());
  for (const DiTrialResult& trial : trace.trials) {
    PutBool(payload, trial.trained_on_d);
    PutBool(payload, trial.adversary_says_d);
    wire::PutF64(payload, trial.final_belief_d);
    wire::PutF64(payload, trial.max_belief_d);
    wire::PutF64(payload, trial.test_accuracy);
    wire::PutU64(payload, trial.belief_history.size());
    for (double b : trial.belief_history) wire::PutF64(payload, b);
    wire::PutU64(payload, trial.steps.size());
    for (const StepRecord& step : trial.steps) {
      wire::PutF64(payload, step.clip_norm);
      wire::PutF64(payload, step.local_sensitivity);
      wire::PutF64(payload, step.sensitivity_used);
      wire::PutF64(payload, step.sigma);
      wire::PutF64(payload, step.log_density_d);
      wire::PutF64(payload, step.log_density_dprime);
      wire::PutF64(payload, step.belief_d);
    }
  }
  return FrameBlob(kBlobKindTrace, payload);
}

StatusOr<ExperimentTrace> DeserializeTrace(const std::vector<uint8_t>& bytes) {
  DPAUDIT_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                           UnframeBlob(bytes, kBlobKindTrace));
  wire::Reader reader(payload.data(), payload.size());
  DPAUDIT_ASSIGN_OR_RETURN(uint32_t schema, reader.U32());
  if (schema != kTraceSchemaVersion) {
    return Status::InvalidArgument("unsupported trace schema version");
  }
  ExperimentTrace trace;
  DPAUDIT_ASSIGN_OR_RETURN(trace.fingerprint.hi, reader.U64());
  DPAUDIT_ASSIGN_OR_RETURN(trace.fingerprint.lo, reader.U64());
  DPAUDIT_ASSIGN_OR_RETURN(uint64_t num_trials, reader.U64());
  // Each trial needs at least its fixed-size head; bounds the resize below.
  if (num_trials > payload.size()) {
    return Status::InvalidArgument("trace trial count exceeds payload");
  }
  trace.trials.resize(num_trials);
  for (DiTrialResult& trial : trace.trials) {
    DPAUDIT_ASSIGN_OR_RETURN(uint32_t trained, reader.U32());
    DPAUDIT_ASSIGN_OR_RETURN(uint32_t says_d, reader.U32());
    trial.trained_on_d = trained != 0;
    trial.adversary_says_d = says_d != 0;
    DPAUDIT_ASSIGN_OR_RETURN(trial.final_belief_d, reader.F64());
    DPAUDIT_ASSIGN_OR_RETURN(trial.max_belief_d, reader.F64());
    DPAUDIT_ASSIGN_OR_RETURN(trial.test_accuracy, reader.F64());
    DPAUDIT_ASSIGN_OR_RETURN(uint64_t history, reader.U64());
    if (history * 8 > reader.remaining()) {
      return Status::InvalidArgument("trace belief history exceeds payload");
    }
    trial.belief_history.resize(history);
    for (double& b : trial.belief_history) {
      DPAUDIT_ASSIGN_OR_RETURN(b, reader.F64());
    }
    DPAUDIT_ASSIGN_OR_RETURN(uint64_t steps, reader.U64());
    if (steps * 56 > reader.remaining()) {
      return Status::InvalidArgument("trace step count exceeds payload");
    }
    trial.steps.resize(steps);
    for (StepRecord& step : trial.steps) {
      DPAUDIT_ASSIGN_OR_RETURN(step.clip_norm, reader.F64());
      DPAUDIT_ASSIGN_OR_RETURN(step.local_sensitivity, reader.F64());
      DPAUDIT_ASSIGN_OR_RETURN(step.sensitivity_used, reader.F64());
      DPAUDIT_ASSIGN_OR_RETURN(step.sigma, reader.F64());
      DPAUDIT_ASSIGN_OR_RETURN(step.log_density_d, reader.F64());
      DPAUDIT_ASSIGN_OR_RETURN(step.log_density_dprime, reader.F64());
      DPAUDIT_ASSIGN_OR_RETURN(step.belief_d, reader.F64());
    }
  }
  if (reader.remaining() != 0) {
    return Status::InvalidArgument("trailing bytes in trace payload");
  }
  return trace;
}

TraceStore::TraceStore(std::string directory)
    : directory_(std::move(directory)) {}

TraceStore* TraceStore::FromEnv() {
  // --trace-cache/DPAUDIT_TRACE_CACHE through core/runtime_options (CLI flag
  // wins when a binary published options), read on every call. One store
  // per directory, never freed: a caller may hold the pointer for as long as
  // it likes, even after the options name another directory.
  const std::string dir = CurrentRuntimeOptions().trace_cache;
  if (dir.empty()) return nullptr;
  static std::mutex mu;
  static auto* stores = new std::map<std::string, std::unique_ptr<TraceStore>>;
  std::lock_guard<std::mutex> lock(mu);
  std::unique_ptr<TraceStore>& store = (*stores)[dir];
  if (store == nullptr) store = std::make_unique<TraceStore>(dir);
  return store.get();
}

std::string TraceStore::PathFor(const TraceFingerprint& key) const {
  return (fs::path(directory_) / (key.ToHex() + kTraceSuffix)).string();
}

StatusOr<ExperimentTrace> TraceStore::Load(const TraceFingerprint& key) const {
  const std::string path = PathFor(key);
  std::error_code ec;
  if (!fs::exists(path, ec)) {
    MissCounter().Add();
    return Status::NotFound("no trace cached at " + path);
  }
  StatusOr<std::vector<uint8_t>> bytes = ReadBlobFile(path);
  if (!bytes.ok()) {
    CorruptCounter().Add();
    return bytes.status();
  }
  StatusOr<ExperimentTrace> trace = DeserializeTrace(*bytes);
  if (!trace.ok()) {
    CorruptCounter().Add();
    return trace.status();
  }
  if (trace->fingerprint != key) {
    CorruptCounter().Add();
    return Status::InvalidArgument("trace file " + path +
                                   " holds a different fingerprint");
  }
  HitCounter().Add();
  return trace;
}

Status TraceStore::Save(const ExperimentTrace& trace) const {
  std::error_code ec;
  fs::create_directories(directory_, ec);
  if (ec) {
    return Status::Internal("cannot create trace cache directory " +
                            directory_ + ": " + ec.message());
  }
  DPAUDIT_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, SerializeTrace(trace));
  // Write-then-rename so a crashed writer never leaves a truncated entry
  // under the final name (readers either see the old bytes or the new).
  const std::string path = PathFor(trace.fingerprint);
  const std::string tmp = path + ".tmp";
  DPAUDIT_RETURN_IF_ERROR(WriteBlobFile(tmp, bytes));
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return Status::Internal("cannot publish trace entry " + path);
  }
  return Status::Ok();
}

StatusOr<std::vector<TraceStore::Entry>> TraceStore::List() const {
  std::vector<Entry> entries;
  std::error_code ec;
  fs::directory_iterator it(directory_, ec);
  if (ec) return entries;  // absent directory == empty cache
  for (const fs::directory_entry& file : it) {
    const std::string name = file.path().filename().string();
    if (name.size() <= sizeof(kTraceSuffix) - 1 ||
        name.substr(name.size() - (sizeof(kTraceSuffix) - 1)) !=
            kTraceSuffix) {
      continue;
    }
    StatusOr<std::vector<uint8_t>> bytes = ReadBlobFile(file.path().string());
    if (!bytes.ok()) {
      CorruptCounter().Add();
      continue;
    }
    StatusOr<ExperimentTrace> trace = DeserializeTrace(*bytes);
    if (!trace.ok()) {
      CorruptCounter().Add();
      continue;
    }
    Entry entry;
    entry.key = trace->fingerprint.ToHex();
    entry.bytes = bytes->size();
    entry.repetitions = trace->trials.size();
    entry.steps = trace->trials.empty() ? 0 : trace->trials[0].steps.size();
    entries.push_back(std::move(entry));
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.key < b.key; });
  return entries;
}

Status TraceStore::Evict(const std::string& key_hex) const {
  DPAUDIT_ASSIGN_OR_RETURN(TraceFingerprint key,
                           TraceFingerprint::FromHex(key_hex));
  const std::string path = PathFor(key);
  std::error_code ec;
  if (!fs::remove(path, ec) || ec) {
    return Status::NotFound("no trace cached at " + path);
  }
  EvictionCounter().Add();
  return Status::Ok();
}

StatusOr<size_t> TraceStore::EvictAll() const {
  size_t removed = 0;
  std::error_code ec;
  fs::directory_iterator it(directory_, ec);
  if (ec) return removed;
  for (const fs::directory_entry& file : it) {
    const std::string name = file.path().filename().string();
    if (name.size() > sizeof(kTraceSuffix) - 1 &&
        name.substr(name.size() - (sizeof(kTraceSuffix) - 1)) ==
            kTraceSuffix) {
      std::error_code remove_ec;
      if (fs::remove(file.path(), remove_ec) && !remove_ec) {
        EvictionCounter().Add();
        ++removed;
      }
    }
  }
  return removed;
}

}  // namespace dpaudit

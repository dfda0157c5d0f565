#!/usr/bin/env bash
# Benchmarks the experiment-suite hot path and the trace cache:
#   1. mechanism/adversary microbenchmarks at paper gradient dimensionality
#      (BM_GaussianPerturb, BM_LogLikelihoodRatio, BM_DiAdversaryOnStep);
#   2. the fig08+fig09+fig10 trio wall-clock, cold-cache (records traces)
#      and warm-cache (replays them), with --telemetry on so each binary's
#      own JSONL event stream supplies per-phase columns;
#   3. the flattened sweep scheduler at DPAUDIT_THREADS 1 and 4, plus the
#      shared-pool region microbenchmark, with cells/sec and worker
#      occupancy pulled from telemetry;
#   4. the gradient engine at 8 lanes (DPAUDIT_BATCH_LANES=8) vs the
#      width-1 reference (DPAUDIT_BATCH_LANES=1): the MNIST b64
#      clipped-gradient microbenchmark plus fig08 wall-clock, cold and warm
#      trace cache, with per-phase telemetry columns.
# Writes BENCH_experiment_suite.json, BENCH_sweep_scheduler.json, and
# BENCH_batched_lanes.json at the repo root with the pre-change baselines
# (measured on the same machine before each change landed) embedded next to
# the fresh numbers. Build first:
#   cmake -B build -S . && cmake --build build -j
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build"
bench_bin="${build_dir}/bench/bench_micro"
out="${repo_root}/BENCH_experiment_suite.json"
micro_json="$(mktemp /tmp/dpaudit_micro.XXXXXX.json)"
cache_dir="$(mktemp -d /tmp/dpaudit_trace_cache.XXXXXX)"
telemetry_cold="$(mktemp -d /tmp/dpaudit_telemetry_cold.XXXXXX)"
telemetry_warm="$(mktemp -d /tmp/dpaudit_telemetry_warm.XXXXXX)"
trap 'rm -rf "${micro_json}" "${cache_dir}" "${telemetry_cold}" \
             "${telemetry_warm}"' EXIT

for bin in bench_micro bench_fig08_eps_from_sensitivity \
           bench_fig09_eps_from_belief bench_fig10_eps_from_advantage; do
  if [[ ! -x "${build_dir}/bench/${bin}" ]]; then
    echo "error: ${build_dir}/bench/${bin} not built (cmake --build build -j)" >&2
    exit 1
  fi
done

# Provenance folded into every BENCH_*.json below: the commit the numbers
# were measured at, the ledger/telemetry schema version, and the build_info
# gauge (simd dispatch, thread default) from the CLI's metrics exposition.
export DPAUDIT_PROV_COMMIT="$(git -C "${repo_root}" rev-parse --short HEAD \
                              2>/dev/null || echo unknown)"
export DPAUDIT_PROV_SCHEMA=1
export DPAUDIT_PROV_BUILD_INFO="$("${build_dir}/tools/dpaudit_cli" metrics \
    2>/dev/null | grep '^dpaudit_build_info' || true)"

echo "== microbenchmarks (paper gradient dimensionality) =="
"${bench_bin}" \
  --benchmark_filter='BM_(GaussianPerturb|LogLikelihoodRatio|DiAdversaryOnStep)/' \
  --benchmark_out="${micro_json}" \
  --benchmark_out_format=json \
  --benchmark_repetitions="${BENCH_REPETITIONS:-1}"

# Each binary profiles itself (--telemetry) and the per-phase columns below
# come from its JSONL event export; profiles land on stderr -> log file.
run_trio() {
  local telemetry_dir="$1"
  local start end
  start=$(date +%s.%N)
  "${build_dir}/bench/bench_fig08_eps_from_sensitivity" \
      --telemetry="${telemetry_dir}" > /dev/null 2> "${telemetry_dir}/stderr.log"
  "${build_dir}/bench/bench_fig09_eps_from_belief" \
      --telemetry="${telemetry_dir}" > /dev/null 2>> "${telemetry_dir}/stderr.log"
  "${build_dir}/bench/bench_fig10_eps_from_advantage" \
      --telemetry="${telemetry_dir}" > /dev/null 2>> "${telemetry_dir}/stderr.log"
  end=$(date +%s.%N)
  echo "$(python3 -c "print(f'{${end} - ${start}:.2f}')")"
}

echo "== fig08+fig09+fig10 trio, cold trace cache =="
export DPAUDIT_TRACE_CACHE="${cache_dir}"
cold_seconds=$(run_trio "${telemetry_cold}")
echo "cold: ${cold_seconds}s"

echo "== fig08+fig09+fig10 trio, warm trace cache =="
warm_seconds=$(run_trio "${telemetry_warm}")
echo "warm: ${warm_seconds}s"
unset DPAUDIT_TRACE_CACHE

python3 - "${out}" "${micro_json}" "${cold_seconds}" "${warm_seconds}" \
    "${telemetry_cold}" "${telemetry_warm}" <<'EOF'
import json, os, sys
out_path, micro_path, cold_s, warm_s, tdir_cold, tdir_warm = sys.argv[1:7]
with open(micro_path) as f:
    micro = json.load(f)

TRIO = ["bench_fig08_eps_from_sensitivity",
        "bench_fig09_eps_from_belief",
        "bench_fig10_eps_from_advantage"]


def read_phases(telemetry_dir, binary):
    """Per-phase span columns from the binary's own events.jsonl."""
    path = os.path.join(telemetry_dir, binary + ".events.jsonl")
    wall_ns = 0
    phases = {}
    with open(path) as f:
        for line in f:
            event = json.loads(line)
            if event.get("type") == "run":
                wall_ns = int(event["wall_ns"])
            elif event.get("type") == "span":
                phases[event["path"]] = {
                    "count": int(event["count"]),
                    "total_ms": round(int(event["total_ns"]) / 1e6, 3),
                    "self_ms": round(int(event["self_ns"]) / 1e6, 3),
                }
    if not phases:
        raise SystemExit(f"no span events in {path}")
    top_ns = sum(p["total_ms"] for name, p in phases.items()
                 if "/" not in name) * 1e6
    return {
        "wall_seconds": round(wall_ns / 1e9, 3),
        "span_coverage": round(top_ns / wall_ns, 3) if wall_ns else 0.0,
        "phases": phases,
    }

doc = {
    "description": "Experiment-suite benchmarks: mechanism/adversary "
                   "microbenchmarks at paper gradient dimensionality and "
                   "the fig08+fig09+fig10 wall-clock with the step-trace "
                   "cache cold vs warm.",
    "context": micro.get("context", {}),
    "microbenchmarks": [
        b for b in micro.get("benchmarks", [])
        if b.get("run_type", "iteration") != "aggregate"
    ],
    "experiment_trio": {
        "binaries": TRIO,
        "cold_cache_seconds": float(cold_s),
        "warm_cache_seconds": float(warm_s),
        "per_phase_cold": {b: read_phases(tdir_cold, b) for b in TRIO},
        "per_phase_warm": {b: read_phases(tdir_warm, b) for b in TRIO},
    },
    # Measured on the same machine (1 CPU, default bench params) immediately
    # before this change: no trace cache, per-coordinate Gaussian sampling,
    # unfused scalar log-density loops.
    "pre_pr_baseline": {
        "unit": "ns",
        "experiment_trio_seconds": 72.0,
        "benchmarks": {
            "BM_GaussianPerturb/2370": 72015,
            "BM_GaussianPerturb/89828": 2556671,
            "BM_LogLikelihoodRatio/2370": 2 * 14507,
            "BM_LogLikelihoodRatio/89828": 2 * 549419,
            "BM_DiAdversaryOnStep/2370": 29123,
            "BM_DiAdversaryOnStep/89828": 1090273,
        },
        "notes": "BM_LogLikelihoodRatio baseline is two separate LogDensity "
                 "calls (the pre-change adversary's per-step cost); "
                 "per-call LogDensity measured 14507 ns (n=2370) and "
                 "549419 ns (n=89828).",
    },
}

base = doc["pre_pr_baseline"]["benchmarks"]
speedups = {}
for b in doc["microbenchmarks"]:
    name = b["name"]
    if name in base and b.get("real_time", 0) > 0:
        speedups[name] = round(base[name] / b["real_time"], 2)
doc["microbenchmark_speedups_vs_baseline"] = speedups
doc["trio_speedup_warm_vs_pre_pr"] = round(
    doc["pre_pr_baseline"]["experiment_trio_seconds"] / float(warm_s), 2)
doc["trio_speedup_cold_vs_pre_pr"] = round(
    doc["pre_pr_baseline"]["experiment_trio_seconds"] / float(cold_s), 2)

doc["provenance"] = {
    "schema_version": int(os.environ.get("DPAUDIT_PROV_SCHEMA", "1")),
    "git_commit": os.environ.get("DPAUDIT_PROV_COMMIT", "unknown"),
    "build_info": os.environ.get("DPAUDIT_PROV_BUILD_INFO", ""),
}

with open(out_path, "w") as f:
    json.dump(doc, f, indent=2)
print(f"wrote {out_path}")
print(f"  trio: {cold_s}s cold, {warm_s}s warm "
      f"(baseline {doc['pre_pr_baseline']['experiment_trio_seconds']}s, "
      f"warm speedup {doc['trio_speedup_warm_vs_pre_pr']}x)")
for b in TRIO:
    phases = doc["experiment_trio"]["per_phase_warm"][b]
    print(f"  {b}: span coverage {phases['span_coverage'] * 100:.1f}% "
          f"of {phases['wall_seconds']}s wall (warm)")
for name, s in sorted(speedups.items()):
    print(f"  {name}: {s}x vs baseline")
EOF

# ---------------------------------------------------------------------------
# Sweep scheduler: the flattened (cell x repetition) grid, cold and warm, at
# 1 and 4 threads.

sweep_out="${repo_root}/BENCH_sweep_scheduler.json"
pool_json="$(mktemp /tmp/dpaudit_pool_micro.XXXXXX.json)"
sweep_tmp="$(mktemp -d /tmp/dpaudit_sweep_bench.XXXXXX)"
trap 'rm -rf "${micro_json}" "${cache_dir}" "${telemetry_cold}" \
             "${telemetry_warm}" "${pool_json}" "${sweep_tmp}"' EXIT

echo "== shared-pool region microbenchmark =="
"${bench_bin}" \
  --benchmark_filter='BM_ParallelForSharedPool/' \
  --benchmark_out="${pool_json}" \
  --benchmark_out_format=json \
  --benchmark_repetitions="${BENCH_REPETITIONS:-1}"

# run_sweep_trio THREADS PHASE: one trio pass; telemetry JSONL lands in
# ${sweep_tmp}/flattened_THREADSt_PHASE/, wall seconds on stdout.
run_sweep_trio() {
  local threads="$1" phase="$2"
  local tdir="${sweep_tmp}/flattened_${threads}t_${phase}"
  mkdir -p "${tdir}"
  DPAUDIT_THREADS="${threads}" run_trio "${tdir}"
}

declare -A sweep_seconds
for threads in 1 4; do
  export DPAUDIT_TRACE_CACHE="${sweep_tmp}/cache_${threads}t"
  mkdir -p "${DPAUDIT_TRACE_CACHE}"
  echo "== trio, threads=${threads}, cold cache =="
  sweep_seconds["${threads}_cold"]=$(run_sweep_trio "${threads}" cold)
  echo "cold: ${sweep_seconds[${threads}_cold]}s"
  echo "== trio, threads=${threads}, warm cache =="
  sweep_seconds["${threads}_warm"]=$(run_sweep_trio "${threads}" warm)
  echo "warm: ${sweep_seconds[${threads}_warm]}s"
  unset DPAUDIT_TRACE_CACHE
done

python3 - "${sweep_out}" "${pool_json}" "${sweep_tmp}" \
    "${sweep_seconds[1_cold]}" "${sweep_seconds[1_warm]}" \
    "${sweep_seconds[4_cold]}" "${sweep_seconds[4_warm]}" <<'EOF'
import json, os, sys
(out_path, pool_path, tmp_dir, f1c, f1w, f4c, f4w) = sys.argv[1:8]
with open(pool_path) as f:
    pool_micro = json.load(f)

TRIO = ["bench_fig08_eps_from_sensitivity",
        "bench_fig09_eps_from_belief",
        "bench_fig10_eps_from_advantage"]


def read_run(threads, phase):
    """Sweep counters + worker occupancy from the trio's events.jsonl."""
    tdir = os.path.join(tmp_dir, f"flattened_{threads}t_{phase}")
    counters = {}
    execute_us = 0.0
    wall_ns = 0
    for binary in TRIO:
        with open(os.path.join(tdir, binary + ".events.jsonl")) as f:
            for line in f:
                event = json.loads(line)
                if event.get("type") == "run":
                    wall_ns += int(event["wall_ns"])
                elif (event.get("type") == "counter" and
                      event["name"].startswith("dpaudit_sweep_")):
                    counters[event["name"]] = (
                        counters.get(event["name"], 0) + int(event["value"]))
                elif (event.get("type") == "distribution" and
                      event["name"] == "dpaudit_pool_execute_us"):
                    execute_us += event["count"] * event["mean"]
    wall_s = wall_ns / 1e9
    cells = counters.get("dpaudit_sweep_cells_total", 0)
    # Occupancy: summed task execute time over the workers' capacity. The
    # calling thread drains chunks too, so > 1/threads means real overlap.
    occupancy = (execute_us / 1e6) / (wall_s * int(threads)) if wall_s else 0.0
    return {
        "wall_seconds": round(wall_s, 3),
        "cells": cells,
        "cells_per_second": round(cells / wall_s, 3) if wall_s else 0.0,
        "worker_occupancy": round(occupancy, 3),
        "sweep_counters": counters,
    }

runs = {}
seconds = {("1", "cold"): f1c, ("1", "warm"): f1w,
           ("4", "cold"): f4c, ("4", "warm"): f4w}
for (threads, phase), measured in seconds.items():
    entry = read_run(threads, phase)
    entry["measured_seconds"] = float(measured)
    runs[f"flattened_{threads}t_{phase}"] = entry

doc = {
    "description": "Flattened (cell x repetition) sweep scheduler over the "
                   "fig08+fig09+fig10 trio, cold and warm trace cache, 1 "
                   "and 4 threads; plus the shared-pool region microbenchmark. "
                   "cells/sec and worker occupancy come from each binary's "
                   "telemetry JSONL.",
    "pool_microbenchmarks": [
        b for b in pool_micro.get("benchmarks", [])
        if b.get("run_type", "iteration") != "aggregate"
    ],
    "context": pool_micro.get("context", {}),
    "trio_runs": runs,
    # Measured on the same machine (default bench params) immediately before
    # this change: per-cell ParallelFor with a pool constructed per region,
    # sequential cells, and repetition counts baked into the trace
    # fingerprint (so fig10's 24 reps could not extend fig08/09's 12-rep
    # recordings).
    "pre_pr_baseline": {
        "trio_cold_seconds_1t": 51.92,
        "trio_warm_seconds_1t": 0.15,
        "trio_cold_seconds_4t": 51.63,
        "trio_warm_seconds_4t": 0.13,
        "per_binary_cold_seconds_1t": {
            "bench_fig08_eps_from_sensitivity": 17.45,
            "bench_fig09_eps_from_belief": 0.04,
            "bench_fig10_eps_from_advantage": 34.87,
        },
        "notes": "4-thread baseline shows no speedup because this "
                 "machine exposes a single core; the per-cell path also "
                 "could not overlap cells regardless of width.",
    },
}

base = doc["pre_pr_baseline"]
doc["speedups"] = {
    "flattened_cold_1t_vs_pre_pr": round(
        base["trio_cold_seconds_1t"] / runs["flattened_1t_cold"]["measured_seconds"], 2),
    "flattened_cold_4t_vs_pre_pr": round(
        base["trio_cold_seconds_4t"] / runs["flattened_4t_cold"]["measured_seconds"], 2),
}

doc["provenance"] = {
    "schema_version": int(os.environ.get("DPAUDIT_PROV_SCHEMA", "1")),
    "git_commit": os.environ.get("DPAUDIT_PROV_COMMIT", "unknown"),
    "build_info": os.environ.get("DPAUDIT_PROV_BUILD_INFO", ""),
}

with open(out_path, "w") as f:
    json.dump(doc, f, indent=2)
print(f"wrote {out_path}")
for key in ("flattened_1t_cold", "flattened_1t_warm",
            "flattened_4t_cold", "flattened_4t_warm"):
    r = runs[key]
    print(f"  {key}: {r['measured_seconds']}s, {r['cells']} cells, "
          f"{r['cells_per_second']} cells/s, "
          f"occupancy {r['worker_occupancy']}")
for name, s in sorted(doc["speedups"].items()):
    print(f"  {name}: {s}x")
EOF

# ---------------------------------------------------------------------------
# Batched multi-example lanes: the gradient engine walks lane-packs of eight
# examples through one fused forward/backward pass (DPAUDIT_BATCH_LANES=8)
# vs packs of one, the width-1 reference (DPAUDIT_BATCH_LANES=1). Both
# widths are bit-identical by construction; this section measures them.

lanes_out="${repo_root}/BENCH_batched_lanes.json"
lanes_json="$(mktemp /tmp/dpaudit_lanes_micro.XXXXXX.json)"
lanes_tmp="$(mktemp -d /tmp/dpaudit_lanes_bench.XXXXXX)"
trap 'rm -rf "${micro_json}" "${cache_dir}" "${telemetry_cold}" \
             "${telemetry_warm}" "${pool_json}" "${sweep_tmp}" \
             "${lanes_json}" "${lanes_tmp}"' EXIT

echo "== clipped-gradient-sum microbenchmark, 1-lane vs 8-lane packs =="
"${bench_bin}" \
  --benchmark_filter='BM_ClippedGradientSumMnistLanes/' \
  --benchmark_out="${lanes_json}" \
  --benchmark_out_format=json \
  --benchmark_repetitions="${BENCH_REPETITIONS:-3}"

# run_fig08 LANES PHASE: one fig08 pass under DPAUDIT_BATCH_LANES=LANES;
# telemetry JSONL lands in ${lanes_tmp}/lanes<LANES>_<PHASE>/, wall seconds
# on stdout.
run_fig08() {
  local lanes="$1" phase="$2"
  local tdir="${lanes_tmp}/lanes${lanes}_${phase}"
  mkdir -p "${tdir}"
  local start end
  start=$(date +%s.%N)
  DPAUDIT_BATCH_LANES="${lanes}" \
      "${build_dir}/bench/bench_fig08_eps_from_sensitivity" \
      --telemetry="${tdir}" > /dev/null 2> "${tdir}/stderr.log"
  end=$(date +%s.%N)
  python3 -c "print(f'{${end} - ${start}:.2f}')"
}

declare -A lanes_seconds
for lanes in 1 8; do
  export DPAUDIT_TRACE_CACHE="${lanes_tmp}/cache_lanes${lanes}"
  mkdir -p "${DPAUDIT_TRACE_CACHE}"
  echo "== fig08, DPAUDIT_BATCH_LANES=${lanes}, cold cache =="
  lanes_seconds["${lanes}_cold"]=$(run_fig08 "${lanes}" cold)
  echo "cold: ${lanes_seconds[${lanes}_cold]}s"
  echo "== fig08, DPAUDIT_BATCH_LANES=${lanes}, warm cache =="
  lanes_seconds["${lanes}_warm"]=$(run_fig08 "${lanes}" warm)
  echo "warm: ${lanes_seconds[${lanes}_warm]}s"
  unset DPAUDIT_TRACE_CACHE
done

python3 - "${lanes_out}" "${lanes_json}" "${lanes_tmp}" \
    "${lanes_seconds[1_cold]}" "${lanes_seconds[1_warm]}" \
    "${lanes_seconds[8_cold]}" "${lanes_seconds[8_warm]}" <<'EOF'
import json, os, statistics, sys
out_path, micro_path, tmp_dir, c1, w1, c8, w8 = sys.argv[1:8]
with open(micro_path) as f:
    micro = json.load(f)

FIG08 = "bench_fig08_eps_from_sensitivity"


def read_phases(tdir, binary):
    """Per-phase span columns from the binary's own events.jsonl."""
    path = os.path.join(tdir, binary + ".events.jsonl")
    wall_ns = 0
    phases = {}
    with open(path) as f:
        for line in f:
            event = json.loads(line)
            if event.get("type") == "run":
                wall_ns = int(event["wall_ns"])
            elif event.get("type") == "span":
                phases[event["path"]] = {
                    "count": int(event["count"]),
                    "total_ms": round(int(event["total_ns"]) / 1e6, 3),
                    "self_ms": round(int(event["self_ns"]) / 1e6, 3),
                }
    if not phases:
        raise SystemExit(f"no span events in {path}")
    top_ns = sum(p["total_ms"] for name, p in phases.items()
                 if "/" not in name) * 1e6
    return {
        "wall_seconds": round(wall_ns / 1e9, 3),
        "span_coverage": round(top_ns / wall_ns, 3) if wall_ns else 0.0,
        "phases": phases,
    }


def median_ms(name):
    # The lanes benchmarks declare Unit(kMillisecond), so real_time is
    # already in milliseconds.
    times = [b["real_time"] for b in micro.get("benchmarks", [])
             if b["name"] == name
             and b.get("run_type", "iteration") != "aggregate"]
    if not times:
        raise SystemExit(f"benchmark {name} missing from {micro_path}")
    return statistics.median(times)

lanes1_ms = median_ms("BM_ClippedGradientSumMnistLanes/64/1/1")
lanes8_ms = median_ms("BM_ClippedGradientSumMnistLanes/64/1/8")

runs = {}
for lanes, phase, measured in (("1", "cold", c1), ("1", "warm", w1),
                               ("8", "cold", c8), ("8", "warm", w8)):
    runs[f"lanes{lanes}_{phase}"] = {
        "measured_seconds": float(measured),
        "per_phase": read_phases(
            os.path.join(tmp_dir, f"lanes{lanes}_{phase}"), FIG08),
    }

doc = {
    "description": "Batched multi-example lane packs through the "
                   "per-example gradient engine (DPAUDIT_BATCH_LANES=8) vs "
                   "the width-1 reference (DPAUDIT_BATCH_LANES=1): MNIST b64 "
                   "single-thread clipped-gradient-sum microbenchmark and "
                   "fig08 wall-clock, cold and warm trace cache, with "
                   "per-phase telemetry columns. Both widths produce "
                   "bit-identical per-example gradients; warm runs replay "
                   "the step-trace cache and are lane-independent.",
    "context": micro.get("context", {}),
    "microbenchmarks": [
        b for b in micro.get("benchmarks", [])
        if b.get("run_type", "iteration") != "aggregate"
    ],
    "clipped_gradient_sum_mnist_b64_1t": {
        "lanes1_ms": round(lanes1_ms, 3),
        "lanes8_ms": round(lanes8_ms, 3),
        "speedup_lanes8_vs_lanes1": round(lanes1_ms / lanes8_ms, 2),
    },
    "fig08_runs": runs,
    "fig08_speedups": {
        "cold_lanes8_vs_lanes1": round(float(c1) / float(c8), 2),
        "warm_lanes8_vs_lanes1": round(float(w1) / float(w8), 2),
    },
}

doc["provenance"] = {
    "schema_version": int(os.environ.get("DPAUDIT_PROV_SCHEMA", "1")),
    "git_commit": os.environ.get("DPAUDIT_PROV_COMMIT", "unknown"),
    "build_info": os.environ.get("DPAUDIT_PROV_BUILD_INFO", ""),
}

with open(out_path, "w") as f:
    json.dump(doc, f, indent=2)
print(f"wrote {out_path}")
cg = doc["clipped_gradient_sum_mnist_b64_1t"]
print(f"  ClippedGradientSum MNIST b64 1t: {cg['lanes1_ms']}ms 1-lane, "
      f"{cg['lanes8_ms']}ms 8-lane "
      f"({cg['speedup_lanes8_vs_lanes1']}x)")
for key in ("lanes1_cold", "lanes8_cold", "lanes1_warm", "lanes8_warm"):
    r = runs[key]
    print(f"  fig08 {key}: {r['measured_seconds']}s "
          f"(span coverage {r['per_phase']['span_coverage'] * 100:.1f}%)")
print(f"  fig08 cold speedup: "
      f"{doc['fig08_speedups']['cold_lanes8_vs_lanes1']}x")
EOF

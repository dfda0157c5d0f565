#!/usr/bin/env bash
# Per-layer cost of the 8-lane kernels, before vs after a change: runs the
# BM_LaneLayer/<net>/<layer>/<fwd|bwd> microbenchmarks of two bench_micro
# binaries in alternating rounds on one pinned core and writes the per-layer
# table (median over rounds of each round's best repetition, in us per
# example) to BENCH_lane_kernels.json.
#
#   scripts/run_lane_kernel_bench.sh BEFORE_BENCH_MICRO AFTER_BENCH_MICRO \
#       [ROUNDS] [OUT_JSON]
#
# Build both binaries in Release (cmake --build <dir> --target bench_micro).
# Run on an idle host: timings drift under load.
set -euo pipefail

before="$1"
after="$2"
rounds="${3:-5}"
out="${4:-BENCH_lane_kernels.json}"
cpu="${LANE_BENCH_CPU:-0}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

for ((r = 0; r < rounds; ++r)); do
  for side in before after; do
    bin="$before"
    [[ "$side" == after ]] && bin="$after"
    taskset -c "$cpu" "$bin" --benchmark_filter='^BM_LaneLayer/' \
        --benchmark_min_time=0.1 --benchmark_repetitions=3 \
        --benchmark_format=json > "$tmp/$side.$r.json" 2>/dev/null
  done
done

python3 - "$tmp" "$rounds" "$out" "$before" "$after" <<'PY'
import json, os, statistics, subprocess, sys

tmp, rounds, out, before, after = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4], sys.argv[5]
lanes = 8

def load(side):
    per_round = []
    context = None
    for r in range(rounds):
        with open(os.path.join(tmp, f"{side}.{r}.json")) as f:
            data = json.load(f)
        context = data["context"]
        best = {}
        for b in data["benchmarks"]:
            if b.get("run_type") != "iteration":
                continue
            us = b["real_time"] / lanes  # time unit is us per 8-lane call
            best[b["run_name"]] = min(us, best.get(b["run_name"], us))
        per_round.append(best)
    names = list(per_round[0])
    return context, {n: statistics.median(rr[n] for rr in per_round) for n in names}

ctx_before, t_before = load("before")
ctx_after, t_after = load("after")

def git(*args):
    try:
        return subprocess.run(["git", *args], capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"

def compiler():
    try:
        return subprocess.run(["c++", "--version"], capture_output=True,
                              text=True, check=True).stdout.splitlines()[0]
    except (OSError, subprocess.CalledProcessError):
        return "unknown"

rows = []
totals = {}
for name, b in t_before.items():
    a = t_after[name]
    _, net, layer, direction = name.split("/")
    rows.append({"benchmark": name, "net": net, "layer": layer,
                 "direction": direction, "before_us_per_example": round(b, 3),
                 "after_us_per_example": round(a, 3),
                 "speedup": round(b / a, 2)})
    tb, ta = totals.get(net, (0.0, 0.0))
    totals[net] = (tb + b, ta + a)

result = {
    "description": "Per-layer cost of the 8-lane batched kernels at the audit benchmark's shapes (28x28 MNIST conv net with 4/8 filters; Purchase 600-48-30 MLP), single thread, before and after chain-blocking the lane kernels. Median over alternating rounds of each round's best repetition; microseconds per example (one 8-lane call / 8). Results are bit-identical before and after.",
    "provenance": {
        "commit": git("rev-parse", "--short", "HEAD"),
        "build_type": "Release (-O3 -g, portable x86-64, runtime AVX2/FMA dispatch)",
        "compiler": compiler(),
        "cores": os.cpu_count(),
        "threads": 1,
        "lanes": lanes,
        "pinned_cpu": int(os.environ.get("LANE_BENCH_CPU", "0")),
        "rounds": rounds,
        "mhz_per_cpu": ctx_after.get("mhz_per_cpu"),
        "caches": ctx_after.get("caches"),
        "load_avg_before": ctx_before.get("load_avg"),
        "load_avg_after": ctx_after.get("load_avg"),
        "before_binary": before,
        "after_binary": after,
    },
    "per_layer": rows,
    "per_network_total_us_per_example": {
        net: {"before": round(b, 2), "after": round(a, 2),
              "speedup": round(b / a, 2)}
        for net, (b, a) in totals.items()
    },
}
with open(out, "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")
for r in rows:
    print(f"{r['benchmark']:40s} {r['before_us_per_example']:7.2f} -> "
          f"{r['after_us_per_example']:7.2f}  x{r['speedup']:.2f}")
for net, (b, a) in totals.items():
    print(f"{net} total {b:.2f} -> {a:.2f} us/example  x{b / a:.2f}")
PY

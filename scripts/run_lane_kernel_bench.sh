#!/usr/bin/env bash
# Per-layer cost of the 8-lane kernels and the whole neighbour-sum step,
# before vs after a change: runs the BM_LaneLayer/<net>/<layer>/<fwd|bwd>
# and BM_ClippedNeighborSums/<net>/<lanes>/<neighbours> microbenchmarks of
# two bench_micro binaries in alternating rounds on one pinned core and
# writes the tables (median over rounds of each round's best repetition, in
# us per example) to BENCH_lane_kernels.json.
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

# Alternate which binary runs first, so drift on a shared host does not
# always land on the same side.
for ((r = 0; r < rounds; ++r)); do
  order="before after"
  (( r % 2 == 1 )) && order="after before"
  for side in $order; do
    bin="$before"
    [[ "$side" == after ]] && bin="$after"
    taskset -c "$cpu" "$bin" \
        --benchmark_filter='^(BM_LaneLayer|BM_ClippedNeighborSums)/' \
        --benchmark_min_time=0.1 --benchmark_repetitions=3 \
        --benchmark_format=json > "$tmp/$side.$r.json" 2>/dev/null
  done
done

python3 - "$tmp" "$rounds" "$out" "$before" "$after" <<'PY'
import json, os, statistics, subprocess, sys

tmp, rounds, out, before, after = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4], sys.argv[5]
lanes = 8
unit_us = {"ns": 1e-3, "us": 1.0, "ms": 1e3, "s": 1e6}

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
            # Examples per call: items per second times CPU seconds.
            cpu_s = b["cpu_time"] * unit_us[b["time_unit"]] * 1e-6
            examples = round(b["items_per_second"] * cpu_s)
            us = b["real_time"] * unit_us[b["time_unit"]] / examples
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
step_rows = []
totals = {}
nets = {"0": "mnist", "1": "purchase"}
for name, b in t_before.items():
    a = t_after[name]
    if name.startswith("BM_ClippedNeighborSums/"):
        _, net, width, neighbours = name.split("/")
        step_rows.append({"benchmark": name, "net": nets[net],
                          "lanes": int(width),
                          "neighbours": "bounded" if neighbours == "0" else "unbounded",
                          "before_us_per_example": round(b, 3),
                          "after_us_per_example": round(a, 3),
                          "speedup": round(b / a, 2)})
        continue
    _, net, layer, direction = name.split("/")
    rows.append({"benchmark": name, "net": net, "layer": layer,
                 "direction": direction, "before_us_per_example": round(b, 3),
                 "after_us_per_example": round(a, 3),
                 "speedup": round(b / a, 2)})
    tb, ta = totals.get(net, (0.0, 0.0))
    totals[net] = (tb + b, ta + a)

result = {
    "description": "Per-layer cost of the 8-lane batched kernels at the audit benchmark's shapes (28x28 MNIST conv net with 4/8 filters; Purchase 600-48-30 MLP) and the whole one-step neighbour-sum call (BM_ClippedNeighborSums, 40-record D, bounded and unbounded neighbours, lanes 1 and 8), single thread, before and after a change. Median over alternating rounds of each round's best repetition; microseconds per example. Results are bit-identical before and after.",
    "provenance": {
        # -dirty: the after binary was built from uncommitted changes.
        "commit": git("describe", "--always", "--dirty"),
        "build_type": "Release (-O3 -g, portable x86-64, runtime SIMD dispatch)",
        # The clip-stage kernel tier each binary ran (bench_micro's "simd"
        # context; "unknown" from a binary that does not report it).
        "simd_before": ctx_before.get("simd", "unknown"),
        "simd_after": ctx_after.get("simd", "unknown"),
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
    "neighbor_sums": step_rows,
    "per_network_total_us_per_example": {
        net: {"before": round(b, 2), "after": round(a, 2),
              "speedup": round(b / a, 2)}
        for net, (b, a) in totals.items()
    },
}
with open(out, "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")
for r in rows + step_rows:
    print(f"{r['benchmark']:40s} {r['before_us_per_example']:7.2f} -> "
          f"{r['after_us_per_example']:7.2f}  x{r['speedup']:.2f}")
for net, (b, a) in totals.items():
    print(f"{net} total {b:.2f} -> {a:.2f} us/example  x{b / a:.2f}")
PY

#!/usr/bin/env bash
# Thread scaling of the paper's sweep binaries (fig08, fig09, fig10, tab2),
# written to BENCH_scaling.json at the repo root:
#
#   cmake -B build -S . -DCMAKE_BUILD_TYPE=Release && cmake --build build -j
#   scripts/run_scaling_bench.sh
#
# Five rounds alternate 1 thread and N = nproc threads (DPAUDIT_THREADS).
# In each, every binary runs cold against its own empty trace cache, then
# warm against the cache it just filled. These untraced runs give the
# end-to-end numbers: cold wall time (median and quartiles), the children's
# user+sys CPU, and warm wall time. Everything else is the binaries' own
# output: trial counts and per-phase span rows from the metrics.prom of one
# extra --telemetry run per (binary, threads), sizes and SIMD from the header
# lines. Traced runs are slower than untraced ones, so their rows sit under
# `traced_run`.
#
# Fails unless build/ is a Release build, and if a binary's stdout differs
# between thread counts, cold and warm, or traced and untraced runs (the
# `simd=... threads=...` header line excepted). DPAUDIT_REPS, _MNIST_N,
# _PURCHASE_N, _EPOCHS and _SEED pass through; every other DPAUDIT_*
# variable is dropped. The file's `history` array is carried over as is.
# Run on an idle host: the load average before and after is recorded.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cmake_cache="${repo_root}/build/CMakeCache.txt"
if ! grep -qx 'CMAKE_BUILD_TYPE:STRING=Release' "${cmake_cache}" 2>/dev/null
then
  echo "error: ${cmake_cache} does not record CMAKE_BUILD_TYPE=Release;" \
       "configure with: cmake -B build -S . -DCMAKE_BUILD_TYPE=Release" >&2
  exit 1
fi

exec python3 - "${repo_root}" <<'PY'
import datetime, glob, json, os, re, resource, shutil, statistics
import subprocess, sys, tempfile, time

root = sys.argv[1]
build = os.path.join(root, "build")
out_path = os.path.join(root, "BENCH_scaling.json")
BINARIES = ["bench_fig08_eps_from_sensitivity", "bench_fig09_eps_from_belief",
            "bench_fig10_eps_from_advantage", "bench_tab2_advantage"]
ROUNDS = 5
SIZE_VARS = ("DPAUDIT_REPS", "DPAUDIT_MNIST_N", "DPAUDIT_PURCHASE_N",
             "DPAUDIT_EPOCHS", "DPAUDIT_SEED")
cores = len(os.sched_getaffinity(0))
THREADS = sorted({1, cores})
for binary in BINARIES:
    if not os.access(os.path.join(build, "bench", binary), os.X_OK):
        sys.exit(f"error: build/bench/{binary} not built "
                 "(cmake --build build -j)")
base_env = {k: v for k, v in os.environ.items()
            if not k.startswith("DPAUDIT_") or k in SIZE_VARS}
tmp = tempfile.mkdtemp(prefix="dpaudit_scaling.")


def run(binary, threads, cache, *args):
    """One run against trace cache `cache`: (stdout, wall s, user+sys s)."""
    env = dict(base_env, DPAUDIT_THREADS=str(threads),
               DPAUDIT_TRACE_CACHE=cache)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    done = subprocess.run([os.path.join(build, "bench", binary), *args],
                          env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if done.returncode != 0:
        sys.exit(f"error: {binary} (threads={threads}) exited "
                 f"{done.returncode}:\n{done.stderr[-2000:]}")
    cpu = (after.ru_utime - before.ru_utime
           + after.ru_stime - before.ru_stime)
    return done.stdout, wall, cpu


def header(stdout):
    """The `reps=...` and `simd=... threads=...` header fields."""
    fields = {}
    for line in stdout.splitlines()[:4]:
        if line.startswith(("reps=", "simd=")):
            fields.update(kv.split("=", 1) for kv in line.split())
    return fields


reference = {}


def check(binary, threads, stdout, what):
    """Same stdout on every run of a binary, apart from the simd= line."""
    if header(stdout).get("threads") != str(threads):
        sys.exit(f"error: {binary} did not run at {threads} threads")
    body = "".join(line for line in stdout.splitlines(True)
                   if not line.startswith("simd="))
    if reference.setdefault(binary, body) != body:
        sys.exit(f"error: {binary} stdout differs on the {what} run "
                 f"at {threads} threads")


def fresh(name):
    path = os.path.join(tmp, name)
    shutil.rmtree(path, ignore_errors=True)
    return path


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 3), "q1": round(q1, 3),
            "q3": round(q3, 3), "runs": [round(v, 3) for v in values]}


def traced(binary, threads):
    """One cold --telemetry run: its span rows, counters and build_info from
    metrics.prom, and its wall time from profile.txt."""
    tdir = fresh("telemetry")
    stdout, _, _ = run(binary, threads, fresh("cache"), f"--telemetry={tdir}")
    check(binary, threads, stdout, "traced")
    types, counters, totals, counts, build_info = {}, {}, {}, {}, {}
    with open(os.path.join(tdir, binary + ".metrics.prom")) as f:
        for line in f:
            if line.startswith("# TYPE "):
                _, _, base, kind = line.split()
                types[base] = kind
                continue
            name, value = line.rsplit(" ", 1)
            base = name.split("{", 1)[0]
            labels = dict(re.findall(r'(\w+)="([^"]*)"', name))
            if base == "dpaudit_span_seconds_total":
                totals[labels["path"]] = round(float(value) * 1e9)
            elif base == "dpaudit_span_count":
                counts[labels["path"]] = int(value)
            elif base == "dpaudit_build_info":
                build_info = labels
            elif types.get(base) == "counter":
                counters[name] = int(value)
    spans = {}
    for path, total_ns in totals.items():
        # Self time is total minus the direct children's totals (obs/span.cc).
        children_ns = sum(t for p, t in totals.items()
                          if p.rpartition("/")[0] == path)
        spans[path] = {"count": counts[path],
                       "total_ms": round(total_ns / 1e6, 3),
                       "self_ms": round(max(total_ns - children_ns, 0) / 1e6,
                                        3)}
    with open(os.path.join(tdir, binary + ".profile.txt")) as f:
        wall_s = float(re.search(r"^wall ([0-9.]+) s", f.read(), re.M)[1])
    return {"wall_s": wall_s, "spans": spans}, counters, build_info, \
        header(stdout)


def compiler():
    found = glob.glob(os.path.join(build, "CMakeFiles", "*",
                                   "CMakeCXXCompiler.cmake"))
    if not found:
        return "unknown"
    with open(found[0]) as f:
        text = f.read()
    get = lambda key: re.search(rf'set\({key} "([^"]*)"\)', text).group(1)
    return f"{get('CMAKE_CXX_COMPILER_ID')} {get('CMAKE_CXX_COMPILER_VERSION')}"


try:
    with open(out_path) as f:
        history = json.load(f).get("history", [])
except FileNotFoundError:
    history = []

try:
    load_before = [round(x, 2) for x in os.getloadavg()]
    samples = {(b, t): {"cold": [], "cpu": [], "warm": []}
               for b in BINARIES for t in THREADS}
    for r in range(ROUNDS):
        for threads in THREADS if r % 2 == 0 else THREADS[::-1]:
            for binary in BINARIES:
                cache = fresh("cache")
                stdout, wall, cpu = run(binary, threads, cache)
                check(binary, threads, stdout, "cold")
                warm_stdout, warm_wall, _ = run(binary, threads, cache)
                check(binary, threads, warm_stdout, "warm")
                s = samples[(binary, threads)]
                s["cold"].append(wall)
                s["cpu"].append(cpu)
                s["warm"].append(warm_wall)
                print(f"round {r + 1}/{ROUNDS} {binary} threads={threads}: "
                      f"cold {wall:.2f} s, warm {warm_wall:.2f} s",
                      flush=True)

    rows = []
    for binary in BINARIES:
        for threads in THREADS:
            traced_run, counters, build_info, sizes = traced(binary, threads)
            s = samples[(binary, threads)]
            trials = counters["dpaudit_sweep_trials_trained_total"]
            cold = spread(s["cold"])
            rows.append({
                "binary": binary, "threads": threads,
                "cold_wall_s": cold, "cpu_s": spread(s["cpu"]),
                "warm_wall_s": spread(s["warm"]),
                "trials_trained": trials,
                "trials_per_s": round(trials / cold["median"], 3),
                "traced_run": traced_run})
    load_after = [round(x, 2) for x in os.getloadavg()]
finally:
    shutil.rmtree(tmp, ignore_errors=True)

git = lambda *args: subprocess.run(["git", "-C", root, *args],
                                   capture_output=True, text=True).stdout
commit = git("rev-parse", "--short", "HEAD").strip() or "unknown"
# "-dirty": the binaries were built from uncommitted source changes.
if git("status", "--porcelain", "--untracked-files=no", "--",
       "src", "bench", "CMakeLists.txt").strip():
    commit += "-dirty"
doc = {
    "description": "Thread scaling of the fig08/fig09/fig10/tab2 sweeps, "
                   "written by scripts/run_scaling_bench.sh. cold_wall_s, "
                   "cpu_s (children's user+sys) and warm_wall_s are over the "
                   "untraced rounds; trials_per_s is trials_trained over the "
                   "cold median; traced_run is one extra --telemetry run.",
    "provenance": {
        "commit": commit,
        "binary_commit": build_info.get("commit", "unknown"),
        "build_type": "Release",
        "compiler": compiler(),
        "cores": cores,
        "threads": THREADS,
        "lanes": int(build_info.get("batch_lanes", 0)),
        "simd": sizes.get("simd", "unknown"),
        "sizes": {k: int(sizes[k]) for k in
                  ("reps", "epochs", "|D|_mnist", "|D|_purchase", "seed")},
        "rounds": ROUNDS,
        "date": datetime.datetime.now(datetime.timezone.utc)
                .replace(microsecond=0).isoformat(),
        "loadavg_before": load_before,
        "loadavg_after": load_after,
    },
    "rows": rows,
    "history": history,
}
with open(out_path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"wrote {out_path}")
for row in rows:
    c = row["cold_wall_s"]
    print(f"  {row['binary']} threads={row['threads']}: cold {c['median']} s "
          f"[{c['q1']}, {c['q3']}], cpu {row['cpu_s']['median']} s, "
          f"{row['trials_per_s']} trials/s, "
          f"warm {row['warm_wall_s']['median']} s")
PY

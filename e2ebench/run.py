#!/usr/bin/env python3
"""NashDB end-to-end benchmark (see README.md in this directory).

One run of one workload:

    python3 e2ebench/run.py --workload real2|stream|chaos --seed N \
        --seconds S --trace 0|1

builds the benchmark driver from the checkout's sources (CMake, Release,
into $CARGO_TARGET_DIR or .bench_build), runs it, checks its outputs and
prints every metric by name with its unit, then one JSON result line:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer metrics of
a separate traced run. Exits 1 when the output check fails.

Steadiness report:

    python3 e2ebench/run.py --steadiness N [--first-seed K] [--seconds S]

runs every workload N times, interleaved, with seeds K..K+N-1, and prints
per workload and end-to-end metric the median, quartiles, min/max and
whether the quartile spread fits the metric's bound; it exits 1 when a
run fails or a spread exceeds its bound.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("real2", "stream", "chaos")
RUN_TIMEOUT_S = 175

# nashdb_sim --workload=real2 --scale=0.25 prints these (cents, GB,
# seconds, nodes at the precision it prints them). real2 replays that
# trace at every seed, so every real2 run must reproduce them.
REAL2_GOLDEN = (("cost_cents", 1, 9382.0), ("moved_gb", 1, 3623.2),
                ("latency_p50_s", 1, 557.6), ("span_mean", 2, 6.45))

# Context printed beside a metric so no number is read without its regime.
NOTES = {
    "setup_s": "median of {setup_passes} bootstrap-only passes over "
               "{setup_inputs} input(s)",
    "queries_per_s": "{queries} queries per pass, {passes} passes",
    "round_ms_p50": "n={rounds} rounds",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log("e2ebench: " + msg)
    sys.exit(code)


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def source_id():
    """The commit when the checkout is a git repository, else a digest of
    the library sources (the benchmark's checkout carries no .git)."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def build():
    """Configures and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "driver.h")):
        fail(f"no NashDB sources under {ROOT}/src")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "e2ebench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            fail("build failed: " + " ".join(cmd), 3)
    return build_dir, os.path.join(build_dir, "e2e_bench")


def run_driver(cmd):
    """Runs the driver to completion (killing it on timeout or on a
    signal to this process); returns its last stdout line as JSON."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)

    def stop(signum, frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    old = {s: signal.signal(s, stop) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"driver exceeded {RUN_TIMEOUT_S} s: {' '.join(cmd)}", 4)
    finally:
        for s, h in old.items():
            signal.signal(s, h)
    if proc.returncode != 0:
        fail(f"driver exited {proc.returncode}: {' '.join(cmd)}", 4)
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        fail("driver printed nothing", 4)
    return json.loads(lines[-1])


def check(res, names):
    """Returns the list of failed output checks."""
    problems = [k for k, ok in res["checks"].items() if not ok]
    for key in ("invalid_config", "invalid_plan"):
        if key in res:
            problems.append(f"{key}: {res[key]}")
    if res["workload"] == "real2":
        out = res["outputs"][0]
        for key, digits, want in REAL2_GOLDEN:
            if round(out[key], digits) != want:
                problems.append(f"real2 {key} {out[key]!r} != nashdb_sim's "
                                f"{want}")
    for name in names:
        v = res["metrics"].get(name)
        if v is None or not math.isfinite(v):
            problems.append(f"metric {name} missing or not finite")
    if res["mode"] == "timed":
        for name in names:
            if res["metrics"].get(name, 0) <= 0:
                problems.append(f"end-to-end metric {name} is not positive")
    if res["attempted"] < 1:
        problems.append("no query attempted")
    return problems


def fmt(v):
    if isinstance(v, int) or float(v).is_integer():
        return f"{v:.0f}"
    return f"{v:.6g}"


def report(res, specs, source):
    """Prints the regime and every metric; returns the result metrics."""
    r = res["regime"]
    mode = res["mode"]
    print(f"e2ebench {res['workload']} seed {res['seed']} ({mode}): "
          f"{r['queries']} queries, {r['rounds']} rounds, "
          f"{fmt(r['nodes_p50'])} nodes, {fmt(r['fragments_p50'])} fragments, "
          f"{r['candidates_per_request']:.1f} candidates/request, "
          f"{r['query_path']} query path, faults {r['faults']}, "
          f"admission control {r['overload']}")
    print(f"  nproc {res['nproc']}, build {res['build_type']}, "
          f"reconfig_threads {res['reconfig_threads']}, source {source}, "
          f"inputs {res['input_seeds']}")
    ctx = dict(res, queries=r["queries"], rounds=r["rounds"])
    if mode == "timed":
        ctx["rounds"] = res["samples"]["rounds"]
    notes = dict(NOTES)
    if r["query_path"] == "batched":
        notes["routing.route_s"] = "includes the driver's commit callback"
    not_applicable = res.get("not_applicable", "").split()
    metrics = {}
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        value = res["metrics"][name]
        note = notes.get(name, "").format(**ctx)
        if name in not_applicable:
            note = "n/a on this workload (reported as 0)"
        print(f"  {name:36s} {fmt(value):>16s} {unit:8s} {note}")
        metrics[name] = {"value": value, "unit": unit}
    for i, o in enumerate(res["outputs"]):
        print(f"  input {i}: {o['total']} queries = {o['completed']} "
              f"completed + {o['aborted']} aborted + {o['shed']} shed; "
              f"{o['transitions']} transitions, {o['repairs']} repairs, "
              f"{o['crashes']} crashes, {o['partitions']} partitions, "
              f"{o['retries']} retries; {o['moved_gb']:.1f} GB moved")
    print(f"  digest {res['digest']}")
    if mode == "timed" and res["repeats"] == 0:
        print("  passes_identical: n/a (no repeated pass; real2 is checked "
              "against nashdb_sim's figures instead)")
    if res.get("skipped_passes"):
        print(f"  skipped untraced passes to stay within the time limit: "
              f"{res['skipped_passes']}")
    if res.get("replay_truncated"):
        print("  the replay stopped at its deadline; replay metrics cover "
              f"{res['configs_replayed']} configurations")
    return metrics


def run_once(args, bench):
    build_dir, exe = build()
    trace = args.trace == 1
    seed = args.seed % (1 << 64)  # any integer names a seed
    cmd = [exe, f"--workload={args.workload}", f"--seed={seed}",
           f"--seconds={args.seconds}", f"--spec-dir={HERE}"]
    if trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace", "--trace-out=" + os.path.join(
            traces, f"{args.workload}-seed{seed}.json")]
    res = run_driver(cmd)
    specs = bench["per_layer" if trace else "end_to_end"]
    problems = check(res, [s["name"] for s in specs])
    metrics = report(res, specs, source_id())
    if problems:
        for p in problems:
            print(f"  CHECK FAILED: {p}")
    else:
        print("  checks: all passed (" + ", ".join(res["checks"]) + ")")
    result = {"correct": not problems, "attempted": int(res["attempted"]),
              "failed": int(res["failed"]), "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1


def steadiness(args, bench):
    here = os.path.abspath(__file__)
    values = {w: {} for w in WORKLOADS}
    ok = True
    for i in range(args.steadiness):
        seed = args.first_seed + i
        for w in WORKLOADS:
            cmd = [sys.executable, here, "--workload", w, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            start = time.monotonic()
            out = subprocess.run(cmd, capture_output=True, text=True)
            took = time.monotonic() - start
            lines = out.stdout.strip().splitlines()
            try:
                res = json.loads(lines[-1])
            except (IndexError, ValueError):
                res = {"correct": False, "metrics": {}}
            if out.returncode != 0 or not res["correct"]:
                ok = False
                log(f"run {w} seed {seed} failed:\n{out.stdout}{out.stderr}")
            log(f"[{i + 1}/{args.steadiness}] {w} seed {seed}: {took:.1f} s")
            for name, m in res["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
    bounds = {s["name"]: s for s in bench["end_to_end"]}
    print(f"steadiness: {args.steadiness} interleaved runs per workload, "
          f"seeds {args.first_seed}..{args.first_seed + args.steadiness - 1}")
    for w in WORKLOADS:
        print(f"== {w}")
        print(f"  {'metric':20s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'min':>12s} {'max':>12s} {'spread':>7s} {'bound':>6s} verdict")
        for name, spec in bounds.items():
            vals = values[w].get(name, [])
            if len(vals) < 2:
                print(f"  {name:20s} (too few runs)")
                ok = False
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("inf")
            bound = spec["bound"]
            verdict = ("steady" if spread <= bound / 3 else
                       "within bound" if spread <= bound else "TOO NOISY")
            if spread > bound:
                ok = False
            print(f"  {name:20s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{min(vals):12.6g} {max(vals):12.6g} {spread:7.3f} "
                  f"{bound:6.3f} {verdict}")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", type=int, default=0, metavar="N")
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()
    bench = load_benchmark()
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if args.steadiness > 0:
        sys.exit(steadiness(args, bench))
    if args.workload is None:
        fail("--workload is required")
    sys.exit(run_once(args, bench))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build svard_bench and run it (standard library only).

One run, the form a benchmark harness calls:

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1

builds the benchmark if needed, runs workload W once, prints progress on
stderr and, as the last line of stdout, one JSON object with exactly the
keys "correct", "attempted", "failed" and "metrics". --trace 0 reports
the end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer ones.
It exits 0 when every output check passed and 1 otherwise (2 on a build
or usage failure, with no result line).

Sets of runs, the form a person calls:

    python3 benchmark/run.py [--runs N] [--sets K] [--seed S]
                             [--seconds S] [--traced] [--smoke]
                             [--threads N] [--out FILE]

runs every workload N times per set (seeds S, S+1, ...; the workload
order alternates between runs) and prints each workload's fail ratio
and each end-to-end metric's median and interquartile range. It fails
when a run fails or an IQR exceeds half the metric's bound. With
--sets 2 it also fails when the two sets' medians differ by more than
the bound, or a seed's digest differs between them; --traced adds one
traced run per workload and set (the sim/defense counts must match
between sets) and writes the per-layer metrics and span table to
.bench_build/results/layers.json; --out writes the summary as JSON.
A setup_s difference under SETUP_FLOOR_S never counts.

The build lives in .bench_build/ at the repository root; traces and
work files stay under it too.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmark"
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "svard_bench"
RUN_TIMEOUT_S = 170
# A set-up change smaller than this does not count (run_sets).
SETUP_FLOOR_S = 0.05


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build():
    """Configure (once) and build svard_bench; False when impossible."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"no library sources next to the benchmark in {ROOT}")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "svard_bench", "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout's last line is the result.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=child_env())
        if proc.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return BINARY.is_file()


def child_env():
    """The environment minus SVARD_* knobs (tracing, metrics, logging)
    that would change what the benchmark measures, with temporary files
    (the compiler's included) kept under the build directory."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SVARD_")}
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def run_bench(workload, seed, seconds, trace, threads=None, smoke=False):
    """Run svard_bench once; its JSON result, or None on a crash."""
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}",
           f"--work-dir={BUILD_DIR / 'work' / workload}"]
    if trace:
        cmd.append(f"--trace={BUILD_DIR / 'traces' / f'{workload}-{seed}'}")
    if threads:
        cmd.append(f"--threads={threads}")
    if smoke:
        cmd.append("--smoke")
    pins = load_json(BENCH_DIR / "baseline.json")
    digest = pins["smoke_digests" if smoke else "digests"].get(workload)
    if digest and seed == pins["seed"]:
        cmd.append(f"--expect-digest={digest}")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=child_env(), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log(f"{workload}: svard_bench exited {proc.returncode}")
        return None
    return json.loads(lines[-1])


def metric_specs(trace):
    spec = load_json(ROOT / "BENCHMARK.json")
    return spec["per_layer" if trace else "end_to_end"]


def single_run(args):
    if not build():
        return 2
    result = run_bench(args.workload, args.seed, args.seconds, args.trace,
                       args.threads, args.smoke)
    if result is None:
        return 2
    metrics = {}
    for m in metric_specs(args.trace):
        got = result["metrics"].get(m["name"])
        if got is None:
            log(f"metric {m['name']} missing from the result")
            result["correct"] = False
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    for name, m in metrics.items():
        log(f"{args.workload}: {name} = {m['value']:.6g} {m['unit']}")
    line = {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics}
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def spread(values):
    """(median, q1, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def allowed(metric, base):
    """How far a metric may move from `base` before it counts: its
    relative bound, and for setup_s at least SETUP_FLOOR_S."""
    limit = metric["bound"] * base
    if metric["name"] == "setup_s":
        limit = max(limit, SETUP_FLOOR_S)
    return limit


def worse_by(first, second, better):
    """Amount by which `second` is worse than `first`."""
    return second - first if better == "lower" else first - second


def is_count(name, unit):
    return unit == "count" and name.split(".")[0] in ("sim", "defense")


def run_sets(args):
    if not build():
        return 2
    spec = load_json(ROOT / "BENCHMARK.json")
    names = [w["name"] for w in spec["workloads"]]
    e2e = spec["end_to_end"]
    ok = True
    sets = []
    raw = []
    digests = {}  # (workload, seed) -> digest of each set
    counts = {}   # workload -> {count metric: value} of each set
    layers = {}
    for s in range(args.sets):
        values = {w: {m["name"]: [] for m in e2e} for w in names}
        tally = {w: [0, 0] for w in names}  # attempted, failed
        for i in range(args.runs):
            order = names if i % 2 == 0 else names[::-1]
            for w in order:
                seed = args.seed + i
                start = time.monotonic()
                res = run_bench(w, seed, args.seconds, False, args.threads,
                                args.smoke)
                took = time.monotonic() - start
                if res is None:
                    ok = False
                    continue
                tally[w][0] += res["attempted"]
                tally[w][1] += res["failed"]
                digests.setdefault((w, seed), []).append(res["digest"])
                if not res["correct"]:
                    ok = False
                    log(f"set {s + 1} run {i + 1} {w}: FAILED "
                        f"{res.get('errors')}")
                    continue
                raw.append({"set": s + 1, "run": i + 1, **res})
                for m in e2e:
                    values[w][m["name"]].append(
                        res["metrics"][m["name"]]["value"])
                log(f"set {s + 1} run {i + 1} {w} seed {seed}: "
                    f"{res['reps']} reps, digest {res['digest']}, "
                    f"{took:.1f} s")
        sets.append(values)
        for w, (attempted, failed) in tally.items():
            print(f"set {s + 1} {w}: fail_ratio {failed}/{attempted}")
            ok = ok and failed == 0 and attempted > 0
        if args.traced:
            for w in names:
                res = run_bench(w, args.seed, args.seconds, True,
                                args.threads, args.smoke)
                if res is None or not res["correct"]:
                    ok = False
                    log(f"traced {w}: FAILED {(res or {}).get('errors')}")
                    continue
                digests.setdefault((w, args.seed), []).append(res["digest"])
                counts.setdefault(w, []).append(
                    {k: v["value"] for k, v in res["metrics"].items()
                     if is_count(k, v["unit"])})
                layers[w] = {"metrics": res["metrics"],
                             "spans": res["spans"]}
                print(f"set {s + 1} traced {w}:")
                for name, m in res["metrics"].items():
                    print(f"  {name:34} {m['value']:14.6g} {m['unit']}")

    summary = {"runs": args.runs, "seconds": args.seconds,
               "seed": args.seed, "sets": [], "results": raw}
    for s, values in enumerate(sets):
        print(f"set {s + 1}: median [q1, q3] iqr/median, allowed")
        rows = {}
        for w in names:
            for m in e2e:
                v = values[w][m["name"]]
                if not v:
                    continue
                med, q1, q3 = spread(v)
                steady = q3 - q1 <= allowed(m, med) / 2
                ok = ok and steady
                rows.setdefault(w, {})[m["name"]] = {
                    "median": med, "q1": q1, "q3": q3,
                    "iqr_over_median": (q3 - q1) / med, "unit": m["unit"]}
                print(f"  {w:18} {m['name']:12} {med:12.6g} "
                      f"[{q1:.6g}, {q3:.6g}] {100 * (q3 - q1) / med:5.1f}%,"
                      f" {100 * allowed(m, med) / med / 2:.1f}%"
                      f"{'' if steady else '  TOO WIDE'}")
        summary["sets"].append(rows)
    if args.sets >= 2:
        print("set 2 against set 1 (medians):")
        for w in names:
            for m in e2e:
                a = summary["sets"][0].get(w, {}).get(m["name"])
                b = summary["sets"][1].get(w, {}).get(m["name"])
                if not a or not b:
                    ok = False
                    continue
                worse = worse_by(a["median"], b["median"], m["better"])
                agree = worse <= allowed(m, a["median"])
                ok = ok and agree
                print(f"  {w:18} {m['name']:12} "
                      f"{100 * worse / a['median']:+6.1f}% worse: "
                      f"{'ok' if agree else 'DISAGREE'}")
        for (w, seed), got in sorted(digests.items()):
            if len(set(got)) > 1:
                ok = False
                print(f"  {w} seed {seed}: digests differ: {got}")
        for w, got in counts.items():
            if any(c != got[0] for c in got):
                ok = False
                print(f"  {w}: sim/defense counts differ between sets")

    if layers:
        out = BUILD_DIR / "results" / "layers.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(layers, indent=2) + "\n")
        summary["layers"] = layers
        log(f"wrote {out}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    print("all checks passed" if ok else "CHECKS FAILED")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", help="run this workload once")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()
    if args.workload:
        return single_run(args)
    return run_sets(args)


if __name__ == "__main__":
    sys.exit(main())

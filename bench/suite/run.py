#!/usr/bin/env python3
"""Build and run the bench_suite benchmark, or compare two sets of its runs.

Run one workload (builds bench_suite first, then prints the result as the
last line of standard output, one JSON object):

    python3 bench/suite/run.py --workload factor-hmat --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 runs
the traced variant and reports its per-layer metrics. Reports and traces go
to <build dir>/runs/. The build directory is $CARGO_TARGET_DIR when set,
else .bench_build, under the repository root.

Compare two sets of reports (exit status 1 when any pair reads worse):

    python3 bench/suite/run.py --compare A1.json A2.json -- B1.json B2.json

A file may also be a trajectory (an object with a "runs" list); FILE@LABEL
selects its runs whose "set" is LABEL. Other modes:

    run.py --overhead UNTRACED.json TRACED.json   tracing overhead per workload
    run.py --collect OUT.json LABEL=FILE...        write a trajectory file
    run.py --smoke                                 build and run the smoke check
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SUITE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "bench_suite"


def build():
    """Configures (once) and builds bench_suite; returns the binary path."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(SUITE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target", "bench_suite",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return out / "bench_suite"


def run_binary(cmd, env):
    """Runs the benchmark binary, forwarding its output to stderr."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise


def run(args):
    bench = load_benchmark()
    binary = build()
    runs = build_dir() / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}.seed{args.seed}"
    report = runs / (stem + (".layers.json" if args.trace else ".json"))
    report.unlink(missing_ok=True)
    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--out={report}",
           f"--scratch-dir={runs}", f"--git={args.git}"]
    if args.trace:
        cmd.append(f"--trace={runs / (stem + '.trace.json')}")
    # Spill and checkpoint files stay inside the build directory.
    env = dict(os.environ, TMPDIR=str(runs))
    status = run_binary(cmd, env)
    if not report.exists():
        log(f"bench_suite exited {status} without a report")
        return 1
    with open(report) as f:
        result = json.load(f)

    listed = bench["per_layer" if args.trace else "end_to_end"]
    source = result["layers" if args.trace else "metrics"]
    metrics = {}
    for m in listed:
        got = source.get(m["name"])
        if got is None or not isinstance(got["value"], (int, float)) \
                or not math.isfinite(got["value"]):
            log(f"metric {m['name']} missing from {report}")
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    correct = status == 0 and result["failed"] == 0 and result["attempted"] > 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


# -- reading report files ---------------------------------------------------

def load_runs(spec):
    """Runs named by FILE or FILE@LABEL (see the module docstring)."""
    path, _, label = spec.partition("@")
    with open(path) as f:
        doc = json.load(f)
    runs = doc["runs"] if "runs" in doc else [doc]
    return [r for r in runs if not label or r.get("set") == label]


def by_workload(specs, traced):
    groups = {}
    for spec in specs:
        for r in load_runs(spec):
            if bool(r.get("traced")) == traced:
                groups.setdefault(r["workload"], []).append(r)
    return groups


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


MIN_PAIRS = 10  # a gain needs at least ten parent/change pairs


def verdict(a, b, bound, better):
    """better / worse / within / unresolved for one (workload, metric).

    `a` is the parent set, `b` the change. Spreads are quartile distances
    relative to the median; runs are paired in the order given.
    """
    sign = -1.0 if better == "lower" else 1.0  # sign * delta > 0: improved
    ma, q1a, q3a = summary(a)
    mb, q1b, q3b = summary(b)
    spread = max((q3a - q1a) / ma, (q3b - q1b) / mb)
    gain = sign * (mb - ma) / ma
    pairs = list(zip(a, b))
    enough = len(pairs) >= MIN_PAIRS
    if spread > bound:
        all_better = all(sign * (y - x) > 0 for x in a for y in b)
        return "better" if enough and all_better else "unresolved"
    if gain < -bound:
        return "worse"
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if enough and wins >= 0.9 * len(pairs) and gain > 0 \
            and abs(mb - ma) > q3a - q1a:
        return "better"
    return "within"


def compare(set_a, set_b):
    bench = load_benchmark()
    groups_a = by_workload(set_a, traced=False)
    groups_b = by_workload(set_b, traced=False)
    worse = False
    header = (f"{'workload':<14} {'metric':<18} {'A median [q1, q3]':<34} "
              f"{'B median [q1, q3]':<34} {'delta':>8} {'bound':>6}  verdict")
    print(header)
    for workload in sorted(set(groups_a) | set(groups_b)):
        a_runs = groups_a.get(workload, [])
        b_runs = groups_b.get(workload, [])
        for m in bench["end_to_end"]:
            name = m["name"]
            a = [r["metrics"][name]["value"] for r in a_runs
                 if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in b_runs
                 if name in r["metrics"]]
            if not a or not b:
                print(f"{workload:<14} {name:<18} missing in one set")
                worse = True
                continue
            v = verdict(a, b, m["bound"], m["better"])
            worse = worse or v == "worse"
            ma, q1a, q3a = summary(a)
            mb, q1b, q3b = summary(b)
            print(f"{workload:<14} {name:<18} "
                  f"{f'{ma:.5g} [{q1a:.5g}, {q3a:.5g}] n={len(a)}':<34} "
                  f"{f'{mb:.5g} [{q1b:.5g}, {q3b:.5g}] n={len(b)}':<34} "
                  f"{(mb - ma) / ma:+8.2%} {m['bound']:6.0%}  {v}")
        failed = sum(r["failed"] for r in a_runs + b_runs)
        attempted = sum(r["attempted"] for r in a_runs + b_runs)
        print(f"{workload:<14} {'fail_ratio':<18} {failed}/{attempted}")
        worse = worse or failed > 0
    return 1 if worse else 0


def overhead(untraced, traced):
    """bench.trace_overhead_pct from the latency_ms of the two runs."""
    plain = by_workload([untraced], traced=False)
    with_trace = by_workload([traced], traced=True)
    for workload in sorted(set(plain) & set(with_trace)):
        u = statistics.median(r["metrics"]["latency_ms"]["value"]
                              for r in plain[workload])
        t = statistics.median(r["metrics"]["latency_ms"]["value"]
                              for r in with_trace[workload])
        print(f"{workload:<14} bench.trace_overhead_pct {100 * (t / u - 1):+.2f} %")
    return 0


def collect(out, labelled):
    runs = []
    for item in labelled:
        label, _, path = item.partition("=")
        for r in load_runs(path):
            runs.append(dict(r, set=label))
    with open(out, "w") as f:
        json.dump({"runs": runs}, f, indent=1)
        f.write("\n")
    return 0


def smoke():
    binary = build()
    out = build_dir() / "smoke"
    return subprocess.run([str(binary), "--smoke", f"--out-dir={out}"],
                          env=dict(os.environ, TMPDIR=str(out.parent)),
                          timeout=RUN_TIMEOUT_S).returncode


def main():
    argv = sys.argv[1:]
    if argv[:1] == ["--compare"]:
        rest = argv[1:]
        if "--" not in rest:
            log("usage: run.py --compare A... -- B...")
            return 2
        cut = rest.index("--")
        return compare(rest[:cut], rest[cut + 1:])
    if argv[:1] == ["--overhead"] and len(argv) == 3:
        return overhead(argv[1], argv[2])
    if argv[:1] == ["--collect"] and len(argv) >= 3:
        return collect(argv[1], argv[2:])
    if argv == ["--smoke"]:
        return smoke()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["factor-hmat", "factor-sparse", "freq-sweep",
                            "serve"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--git", default="unknown",
                   help="revision recorded in the report")
    return run(p.parse_args(argv))


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        log(f"run.py: {e}")
        sys.exit(1)

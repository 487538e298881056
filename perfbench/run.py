#!/usr/bin/env python3
"""Build and run the dataspace service benchmark, or compare two result sets.

Run one workload (the last stdout line is the result, one JSON object):
    python3 perfbench/run.py --workload table1_reads --seed 1 --seconds 30 --trace 0

Run every workload, print every metric, exit 1 if any correctness gate fails:
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Compare two result sets (directories of result files, e.g. a copy of
perfbench/results from the parent commit and one from the change):
    python3 perfbench/run.py compare PARENT_DIR CHANGE_DIR

Each run also writes a result file under perfbench/results/.
"""

import datetime
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ["table1_reads", "ingest_push", "reads_under_writes"]


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def build():
    """Build the benchmark binary from source; returns its path or None."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    target = os.path.join(ROOT, target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        built = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        log(f"cannot run cargo: {e}")
        return None
    binary = os.path.join(target, "release", "perfbench")
    if built.returncode != 0 or not os.path.exists(binary):
        log("build failed")
        return None
    return binary


def run_one(binary, workload, seed, seconds, trace):
    """Run one workload; echo its report; save the result file. Returns
    (exit code, parsed result or None)."""
    os.makedirs(RESULTS, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", RESULTS]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=max(170, 3 * float(seconds) + 60))
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish in time")
        return 1, None
    lines = proc.stdout.splitlines()
    record, result = None, None
    for line in lines:
        if line.startswith("record "):
            record = json.loads(line[len("record "):])
            record["git_revision"] = command_output(["git", "rev-parse", "HEAD"]) or "unknown"
            record["rustc"] = command_output(["rustc", "-V"]) or "unknown"
            line = "record " + json.dumps(record)
        elif line.startswith("{"):
            result = json.loads(line)
            continue
        print(line)
    if result is None:
        log(f"{workload} printed no result (exit {proc.returncode})")
        return proc.returncode or 1, None
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S.%fZ")
    path = os.path.join(RESULTS, f"{workload}-seed{seed}-trace{trace}-{stamp}.json")
    with open(path, "w") as f:
        json.dump({"record": record, "result": result}, f, indent=1)
    print(json.dumps(result), flush=True)
    return proc.returncode, result


def parse_run_args(argv):
    opts = {"--workload": None, "--seed": None, "--seconds": None, "--trace": "0"}
    it = iter(argv)
    for flag in it:
        if flag not in opts:
            raise SystemExit(f"run.py: unknown flag {flag}\n{__doc__}")
        opts[flag] = next(it, None)
    if None in opts.values():
        raise SystemExit(f"run.py: --workload, --seed and --seconds are required\n{__doc__}")
    return opts


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric, parent, change, more_failures):
    """Classify one (metric, workload) pair by the benchmark's own rules.
    `parent` and `change` map each seed to its runs' values, in run order.
    improved when the change wins at least 9/10 of the pairs (a pair is one
    parent run and one change run on the same seed; ties count for neither)
    and the medians differ by more than the parent's own quartile spread;
    regressed when the change's median is worse than the parent's by more
    than the metric's bound; unresolved when the spread of either side
    exceeds the bound and no side wins every run, or when the change would
    count as improved but failed more operations than the parent; unchanged
    otherwise."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    pairs = [pc for seed in sorted(set(parent) & set(change))
             for pc in zip(parent[seed], change[seed])]
    parent = [v for runs in parent.values() for v in runs]
    change = [v for runs in change.values() for v in runs]
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    worse = (cm - pm) / pm if lower else (pm - cm) / pm
    wins = sum(1 for p, c in pairs if (c < p if lower else c > p))
    parent_spread = (p3 - p1) / pm
    spread = max(parent_spread, (c3 - c1) / cm)
    dominates = (max(change) < min(parent)) if lower else (min(change) > max(parent))
    if pairs and wins >= 0.9 * len(pairs) and -worse > parent_spread:
        kind = "unresolved" if more_failures else "improved"
    elif worse > bound:
        kind = "regressed" if spread <= bound else "unresolved"
    elif spread > bound and not dominates:
        kind = "unresolved"
    else:
        kind = "unchanged"
    return {
        "parent": {"median": pm, "q1": p1, "q3": p3, "runs": len(parent)},
        "change": {"median": cm, "q1": c1, "q3": c3, "runs": len(change)},
        "worse_by": worse, "bound": bound, "wins": wins, "pairs": len(pairs),
        "verdict": kind,
    }


def load_set(directory):
    """workload -> (metric -> seed -> values in run order, failed operations
    summed over the runs). The file name carries the run's time."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0-*.json")),
                       key=lambda p: p.rsplit("-", 1)[-1]):
        with open(path) as f:
            data = json.load(f)
        workload = data["record"]["workload"]
        seed = data["record"]["seed"]
        metrics, failed = runs.setdefault(workload, ({}, [0]))
        failed[0] += data["result"]["failed"]
        for name, m in data["result"]["metrics"].items():
            metrics.setdefault(name, {}).setdefault(seed, []).append(m["value"])
    return {w: (metrics, failed[0]) for w, (metrics, failed) in runs.items()}


def compare(parent_dir, change_dir):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parent, change = load_set(parent_dir), load_set(change_dir)
    rows = []
    for workload in WORKLOADS:
        p_metrics, p_failed = parent.get(workload, ({}, 0))
        c_metrics, c_failed = change.get(workload, ({}, 0))
        for metric in spec["end_to_end"]:
            p = p_metrics.get(metric["name"])
            c = c_metrics.get(metric["name"])
            if not p or not c:
                continue
            row = verdict(metric, p, c, c_failed > p_failed)
            row.update(workload=workload, metric=metric["name"], unit=metric["unit"],
                       failed={"parent": p_failed, "change": c_failed})
            rows.append(row)
    print(f"{'workload':<20} {'metric':<14} {'parent median':>14} {'change median':>14} "
          f"{'worse by':>9} {'bound':>6} {'wins':>7}  verdict")
    for r in rows:
        print(f"{r['workload']:<20} {r['metric']:<14} {r['parent']['median']:>14.4g} "
              f"{r['change']['median']:>14.4g} {100 * r['worse_by']:>8.1f}% "
              f"{100 * r['bound']:>5.0f}% {r['wins']:>3}/{r['pairs']:<3}  {r['verdict']}")
    os.makedirs(RESULTS, exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    path = os.path.join(RESULTS, f"compare-{stamp}.json")
    with open(path, "w") as f:
        json.dump({"parent": os.path.abspath(parent_dir), "change": os.path.abspath(change_dir),
                   "rows": rows}, f, indent=1)
    log(f"comparison written to {path}")
    return 0 if rows else 1


def main(argv):
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            raise SystemExit(__doc__)
        return compare(argv[1], argv[2])
    opts = parse_run_args(argv)
    binary = build()
    if binary is None:
        return 1
    workloads = WORKLOADS if opts["--workload"] == "all" else [opts["--workload"]]
    worst = 0
    for workload in workloads:
        code, result = run_one(binary, workload, int(opts["--seed"]), opts["--seconds"],
                               int(opts["--trace"]))
        if result is None or not result["correct"] or code != 0:
            worst = 1
    return worst


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

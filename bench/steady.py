"""Steadiness check: run the benchmark repeatedly and report each metric's
spread, the distance between its first and third quartile over its median.

    python3 bench/steady.py --runs 10 --label set-a [--workloads suites,faces,queries]

Each run is a fresh `bench/run.py` process with its own seed (1..runs).
The results, with the host's CPU steal over each run, go to
bench/results/<label>.json.  Compare two labels taken at different times:

    python3 bench/steady.py --compare set-a set-b

Check that a traced run's counts repeat exactly across runs and seeds, and
record its per-layer metrics:

    python3 bench/steady.py --traced --label traced
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
BENCHMARK = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}


def spread(values):
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    proc = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    steal = re.search(r"host_steal_s=(\S+)", proc.stdout)
    raw = re.search(r"unscaled medians: wall (\S+) s, setup (\S+) s; host speed (\S+)", proc.stdout)
    return {
        "seed": seed, "started": t0, "elapsed_s": time.time() - t0,
        "exit": proc.returncode, "steal_s": float(steal.group(1)) if steal else None,
        "raw_wall_s": float(raw.group(1)) if raw else None,
        "raw_setup_s": float(raw.group(2)) if raw else None,
        "host_speed": float(raw.group(3)) if raw else None,
        "result": json.loads(lines[-1]) if proc.returncode == 0 else None,
        "stderr": proc.stderr[-2000:],
    }


def summarize(runs):
    ok = [r["result"] for r in runs if r["result"]]
    out = {}
    for name in BOUNDS:
        values = [r["metrics"][name]["value"] for r in ok]
        if len(values) >= 2:
            out[name] = {"median": statistics.median(values), "spread": spread(values),
                         "bound": BOUNDS[name], "min": min(values), "max": max(values)}
    out["all_correct"] = all(r["correct"] for r in ok) and len(ok) == len(runs)
    return out


COUNT_SUFFIXES = (".calls", ".misses", ".cache_size", ".face_ratio")


def traced(label, workloads, seeds=(1, 2, 3)):
    """Traced runs on several seeds: the per-layer metrics of each, and
    whether every count repeats exactly across runs and seeds."""
    doc = {"label": label, "seconds": BENCHMARK["run_seconds"], "seeds": list(seeds), "workloads": {}}
    for w in workloads:
        runs = []
        for seed in seeds:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "1"]
            proc = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True, timeout=200)
            if proc.returncode != 0:
                print(w, seed, "exit", proc.returncode, proc.stderr[-2000:], flush=True)
                return 1
            runs.append({
                "seed": seed,
                "relabeling": re.search(r"relabeling=(\S+)", proc.stdout).group(1),
                "counts_repeat_within_run": "traced counts differ" not in proc.stderr,
                "metrics": {k: v["value"] for k, v in
                            json.loads(proc.stdout.strip().splitlines()[-1])["metrics"].items()},
            })
            print(w, seed, runs[-1]["relabeling"], flush=True)
        counts = [{k: v for k, v in r["metrics"].items() if k.endswith(COUNT_SUFFIXES)} for r in runs]
        same = all(c == counts[0] for c in counts) and all(r["counts_repeat_within_run"] for r in runs)
        medians = {k: statistics.median(r["metrics"][k] for r in runs) for k in runs[0]["metrics"]}
        doc["workloads"][w] = {"runs": runs, "counts_identical": same, "median": medians}
        print(f"  {w}: counts identical across runs and seeds: {same}")
        for k, v in medians.items():
            print(f"    {k:36s} {v:14.6g}")
    (BENCH / "results").mkdir(exist_ok=True)
    (BENCH / "results" / f"{label}.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if all(d["counts_identical"] for d in doc["workloads"].values()) else 1


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--label")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    parser.add_argument("--compare", nargs=2)
    parser.add_argument("--traced", action="store_true",
                        help="traced runs on seeds 1-3 instead: per-layer metrics and count repeats")
    args = parser.parse_args()
    results_dir = BENCH / "results"
    if args.traced:
        return traced(args.label, args.workloads.split(","))
    if args.compare:
        a, b = (json.loads((results_dir / f"{x}.json").read_text()) for x in args.compare)
        for w in a["summary"]:
            if w not in b["summary"]:
                continue
            for name, bound in BOUNDS.items():
                m1 = a["summary"][w][name]["median"]
                m2 = b["summary"][w][name]["median"]
                print(f"{w:8s} {name:12s} {m1:12.5g} {m2:12.5g} change {m2 / m1 - 1:+.3f} bound {bound}")
        return 0
    doc = {"label": args.label, "seconds": BENCHMARK["run_seconds"], "runs": {}, "summary": {}}
    for w in args.workloads.split(","):
        runs = []
        for seed in range(1, args.runs + 1):
            runs.append(run_once(w, seed, BENCHMARK["run_seconds"]))
            r = runs[-1]
            vals = {k: round(v["value"], 5) for k, v in r["result"]["metrics"].items()} if r["result"] else r["stderr"]
            print(w, seed, f"{r['elapsed_s']:.1f}s", "steal", r["steal_s"], "speed", r["host_speed"],
                  "raw wall", r["raw_wall_s"], vals, flush=True)
        doc["runs"][w] = runs
        doc["summary"][w] = summarize(runs)
        for name, s in doc["summary"][w].items():
            if isinstance(s, dict):
                print(f"  {w} {name}: median {s['median']:.5g} spread {s['spread']:.4f} "
                      f"(bound {s['bound']}, a third {s['bound'] / 3:.4f})", flush=True)
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{args.label}.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

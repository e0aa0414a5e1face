"""Benchmark for bruhatpoly: three workloads, each op checked by an oracle.

    python3 bench/run.py --workload suites|faces|queries|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout (the program is imported from ./src).
Each pass runs the workload's fixed op list, in order, in a fresh
single-threaded child process, so module caches start empty and grow as
they do for a user.  Passes repeat until --seconds have been measured.

Times are the child's CPU time, which leaves out the hypervisor's steal.
This host's vCPUs also change speed by up to 1.7 times in phases of
seconds, so every time is scaled to the reference speed of bench/speed.py
by speed probes taken next to it in the same process, and each metric is a
median: over passes for wall_s, over passes per op for the latency
percentiles, over fresh processes for setup_s.  The unscaled medians are
printed beside them.  See bench/README.md.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (end-to-end with --trace 0, per-layer with --trace 1).  The lines
before it print every metric by name with its unit, and fail_ratio.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import speed  # noqa: E402
import workloads  # noqa: E402

# Relabelings the seed may pick per workload: only those under which a
# traced run gives identical counts and the op times stay the same (see
# bench/README.md).
ALLOWED = {
    "suites": ("identity",),
    "faces": ("identity",),
    "queries": ("identity",),
}
MIN_PASSES = 3
PROBES_PER_PASS = 2
CHILD_TIMEOUT_S = 150
RUN_LIMIT_S = 165  # stop starting passes after this, so a run ends well within 180 s

END_TO_END = (
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
WORKERS = ("lifting_pair", "dimension_pair", "faces_pair", "rpoly_pair",
           "parabolic_instance", "minkowski_pair", "dimension_rank_pair", "diameter_pair")


class ChildFailed(Exception):
    pass


def _env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(*args):
    """Start a child; return it and its CPU seconds until it said "ready"."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), *args],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        cwd=ROOT, env=_env(), text=True,
    )
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    line = proc.stdout.readline()
    if not line.startswith("ready "):
        timer.cancel()
        proc.kill()
        _, err = proc.communicate()
        raise ChildFailed(f"child did not start: {line!r} {err.strip()[-400:]}")
    return proc, timer, float(line.split()[1])


def setup_probe():
    """Set-up seconds of one fresh process, and its speed probe."""
    proc, timer, ready = _spawn("setup")
    try:
        # read through proc.stdout: its buffer may already hold the probe
        # line, which communicate() would skip
        out = proc.stdout.read()
        err = proc.stderr.read()
        proc.wait()
    finally:
        timer.cancel()
    try:
        return ready, json.loads(out)["cal"]
    except (ValueError, KeyError):
        raise ChildFailed(f"set-up child exited {proc.returncode}: {err.strip()[-400:]}") from None


class Pass:
    """One run of the op list in a fresh child.

    ops[i] = [raw seconds, scaled seconds, output, error].
    """

    def __init__(self, ready, ops, cals, end):
        self.ready, self.ops, self.cals, self.end = ready, ops, cals, end
        self.wall = sum(op[1] for op in ops)
        self.raw_wall = end["wall_s"]
        self.bad = []

    @property
    def setup(self):
        return self.ready, self.cals[0]

    @property
    def factor(self):
        """Reference speed over the pass's median speed."""
        return speed.REFERENCE_S / statistics.median(self.cals)


def run_pass(ops, trace_spans=None):
    """Run the ops in a fresh child.  Each op is scaled by the median of
    the four speed probes nearest to it: the two on either side of it and
    the one before and after those."""
    args = ("run", "trace", str(trace_spans)) if trace_spans else ("run",)
    proc, timer, ready = _spawn(*args)
    try:
        proc.stdin.write(json.dumps(ops) + "\n")
        proc.stdin.close()
        results, cals, before, end = [], [], [], None
        for line in proc.stdout:
            rec = json.loads(line)
            if "cal" in rec:
                cals.append(rec["cal"])
            elif "end" in rec:
                end = rec["end"]
            else:
                results.append([rec["s"], None, rec["out"], rec["error"]])
                before.append(len(cals) - 1)
        err = proc.stderr.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if end is None or proc.returncode != 0 or (before and before[-1] >= len(cals) - 1):
        raise ChildFailed(f"child exited {proc.returncode}: {err.strip()[-400:]}")
    for op, j in zip(results, before):
        op[1] = op[0] * speed.REFERENCE_S / statistics.median(cals[max(0, j - 1):j + 3])
    return Pass(ready, results, cals, end)


def read_steal_s():
    """CPU steal of the whole host so far, in seconds, from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def tail_rank(n):
    """Index into n sorted latencies of the highest percentile that still
    has at least ten ops above it, and that percentile."""
    idx = max(0, n - 11)
    return idx, 100.0 * (idx + 1) / n


class Verifier:
    """Checks op outputs against the oracle; an output identical to one
    already judged for the same op gets the same verdict."""

    def __init__(self, checks):
        self.checks = checks
        self.seen = {}

    def ok(self, i, out, error):
        if error is not None:
            return False
        key = (i, json.dumps(out, sort_keys=True))
        if key not in self.seen:
            try:
                self.seen[key] = bool(self.checks[i](out))
            except Exception:  # malformed output fails its op
                self.seen[key] = False
        return self.seen[key]


def measure(workload, seed, seconds, trace):
    lab = ALLOWED[workload][seed % len(ALLOWED[workload])]
    t_build = time.perf_counter()
    pairs = workloads.WORKLOADS[workload](lab)
    ops = [op for op, _check in pairs]
    verifier = Verifier([check for _op, check in pairs])
    build_s = time.perf_counter() - t_build

    steal0 = read_steal_s()
    setup_probe()  # compiles the package's bytecode; not counted
    setups, passes, traced = [], [], []
    attempted = failed = 0
    spans_path = None
    if trace:
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{workload}.jsonl"
    started = time.perf_counter()
    deadline = started + seconds
    last = 0.0
    k = 0
    while True:
        now = time.perf_counter()
        if k >= MIN_PASSES and (now + last > deadline or now - started > RUN_LIMIT_S):
            break
        setups.extend(setup_probe() for _ in range(PROBES_PER_PASS))
        is_traced = trace and k % 2 == 1
        t0 = time.perf_counter()
        p = run_pass(ops, spans_path if is_traced else None)
        last = time.perf_counter() - t0
        setups.append(p.setup)
        p.bad = [i for i, (_r, _s, out, error) in enumerate(p.ops) if not verifier.ok(i, out, error)]
        p.bad += list(range(len(p.ops), len(ops)))
        attempted += len(ops)
        failed += len(p.bad)
        (traced if is_traced else passes).append(p)
        k += 1
    run_s = time.perf_counter() - started
    steal1 = read_steal_s()

    per_op = sorted(statistics.median(p.ops[i][1] for p in passes) for i in range(len(ops)))
    idx, pct = tail_rank(len(per_op))
    report = {
        "workload": workload, "relabeling": lab, "ops": len(ops),
        "passes": len(passes), "traced_passes": len(traced),
        "run_s": run_s, "oracle_s": build_s,
        "steal_s": None if steal0 is None else steal1 - steal0,
        "attempted": attempted, "failed": failed,
        "tail_percentile": pct,
        "raw_wall_s": statistics.median(p.raw_wall for p in passes),
        "raw_setup_s": statistics.median(ready for ready, _cal in setups),
        "speed": statistics.median(speed.REFERENCE_S / c for p in passes for c in p.cals),
        "failed_ops": sorted({i for p in passes + traced for i in p.bad})[:20],
    }
    metrics = {
        "wall_s": statistics.median(p.wall for p in passes),
        "op_p50_ms": 1e3 * statistics.median(per_op),
        "op_tail_ms": 1e3 * per_op[idx],
        "peak_rss_mb": statistics.median(p.end["rss_kb"] for p in passes) / 1024,
        "setup_s": statistics.median(ready * speed.REFERENCE_S / cal for ready, cal in setups),
    }
    if trace:
        report["layers"] = layer_metrics(traced, passes)
    return report, metrics


def layer_metrics(traced, passes):
    """Per-layer numbers: counts from the traced passes, which must agree,
    and times as the median over traced passes, scaled like the rest."""
    counts = [_counts(p.end["trace"]) for p in traced]
    if any(c != counts[0] for c in counts):
        print("warning: traced counts differ between passes", file=sys.stderr)
    per_pass = [_layers(p.end["trace"], p.factor) for p in traced]
    m = {k: statistics.median(d[k] for d in per_pass) for k in per_pass[0]}
    m["trace.overhead"] = (statistics.median(p.wall for p in traced)
                           / statistics.median(p.wall for p in passes))
    return m


def _layers(trace, factor):
    stats, caches = trace["stats"], trace["caches"]

    def calls(*names):
        return sum(stats.get(n, [0])[0] for n in names)

    def self_s(*names):
        return factor * sum(stats.get(n, [0, 0, 0.0])[2] for n in names)

    def layer_self(layer):
        return factor * sum(v[2] for k, v in stats.items() if k.startswith(layer + "."))

    def ratio(name):
        c = stats.get(name, [0, 0, 0, 0])
        return c[3] / c[0] if c[0] else 0.0

    iv = caches["intervals.interval"]
    return {
        "exactlp.solve_eq_lp.calls": calls("exactlp.solve_eq_lp"),
        "exactlp.solve_eq_lp.self_s": self_s("exactlp.solve_eq_lp"),
        "exactlp.is_face.calls": calls("exactlp.is_face"),
        "exactlp.is_face.face_ratio": ratio("exactlp.is_face"),
        "exactlp.affine_rank.calls": calls("exactlp.affine_rank"),
        "exactlp.self_s": layer_self("exactlp"),
        "perms.bruhat_leq.calls": calls("perms.bruhat_leq"),
        "perms.bruhat_leq.self_s": self_s("perms.bruhat_leq"),
        "perms.covers.calls": calls("perms.covers_up", "perms.covers_down"),
        "perms.covers.self_s": self_s("perms.covers_up", "perms.covers_down"),
        "perms.self_s": layer_self("perms"),
        "intervals.interval.calls": calls("intervals.interval"),
        "intervals.interval.misses": iv["misses"],
        "intervals.interval.cache_size": iv["currsize"],
        "intervals.self_s": layer_self("intervals"),
        "polytopes.is_face.calls": calls("polytopes.is_face"),
        "polytopes.is_face.face_ratio": ratio("polytopes.is_face"),
        "polytopes.block_partition.calls": calls("polytopes.block_partition"),
        "polytopes.self_s": layer_self("polytopes"),
        "rpoly.r_polynomial.calls": calls("rpoly.r_polynomial"),
        "rpoly.r_tilde.calls": calls("rpoly.r_tilde"),
        "rpoly.self_s": layer_self("rpoly"),
        "parabolic.self_s": layer_self("parabolic"),
        "checks.self_s": layer_self("checks"),
        **{f"checks.{w}.self_s": self_s(f"checks.{w}") for w in WORKERS},
        "cli.self_s": layer_self("cli"),
    }


def _counts(trace):
    return (
        {k: (v[0], v[3]) for k, v in trace["stats"].items()},
        {k: (c["misses"], c["currsize"]) for k, c in trace["caches"].items()},
    )


PER_LAYER_UNITS = {"calls": "count", "misses": "count", "cache_size": "count",
                   "self_s": "s", "face_ratio": "ratio", "overhead": "ratio"}


def per_layer_unit(name):
    return PER_LAYER_UNITS[name.rsplit(".", 1)[1]]


def print_report(report, metrics):
    print(f"workload={report['workload']} relabeling={report['relabeling']} ops={report['ops']} "
          f"passes={report['passes']} traced_passes={report['traced_passes']} "
          f"run_s={report['run_s']:.1f} oracle_s={report['oracle_s']:.2f} "
          f"host_steal_s={report['steal_s']}")
    units = dict(END_TO_END)
    for name, value in metrics.items():
        print(f"  {name:14s} {value:12.4f} {units[name]}")
    print(f"  {'fail_ratio':14s} {report['failed'] / report['attempted']:12.4f} ratio "
          f"({report['failed']} of {report['attempted']} op runs failed)")
    print(f"  op_tail_ms is the p{report['tail_percentile']:.2f} latency: "
          f"10 of {report['ops']} ops are slower")
    print(f"  unscaled medians: wall {report['raw_wall_s']:.4f} s, setup "
          f"{report['raw_setup_s']:.4f} s; host speed {report['speed']:.3f} of reference")
    if report["failed_ops"]:
        print(f"  failed ops (first 20): {report['failed_ops']}")
    for name, value in report.get("layers", {}).items():
        print(f"  {name:36s} {value:14.6g} {per_layer_unit(name)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bruhatpoly" / "__init__.py").is_file():
        print(f"bruhatpoly sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            report, metrics = measure(name, args.seed, args.seconds, args.trace == 1)
        except ChildFailed as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        print_report(report, metrics)
        summary["attempted"] += report["attempted"]
        summary["failed"] += report["failed"]
        if args.trace:
            chosen = {k: (v, per_layer_unit(k)) for k, v in report["layers"].items()}
        else:
            chosen = {k: (v, dict(END_TO_END)[k]) for k, v in metrics.items()}
        prefix = f"{name}." if len(names) > 1 else ""
        summary["metrics"].update(
            {prefix + k: {"value": v, "unit": u} for k, (v, u) in chosen.items()}
        )
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

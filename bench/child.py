"""One fresh, single-threaded process of the benchmark.

Usage (from the checkout root, with src/ on PYTHONPATH):

    python3 bench/child.py setup        import bruhatpoly, say "ready",
                                        print one speed probe, exit
    python3 bench/child.py run          ... then read one JSON list of ops
                                        from stdin and run them in order
    python3 bench/child.py run trace SPANS   the same, traced; spans go to
                                        the file SPANS

Times are the process's CPU time (time.process_time): the code under test
is single-threaded and does no I/O, so that is its wall time less the time
the hypervisor ran something else on the vCPU (steal).  Set-up is the CPU
time at "ready", which covers interpreter start and importing bruhatpoly
with its CLI, everything the first op needs.
Every op's result goes to stdout as one JSON line as soon as it finishes,
outside the timed region, so the child holds no outputs and its peak RSS is
the program's own.  Before the first op, before any op that starts more
than CAL_EVERY_S after the last probe, and after the last op, the child
writes a {"cal": seconds} line from speed.calibrate(); the parent scales
each op by the probes on either side of it.
"""

import sys
import time

import bruhatpoly  # noqa: F401  (set-up ends when these imports do)
import bruhatpoly.cli  # noqa: F401

sys.stdout.write(f"ready {time.process_time()!r}\n")
sys.stdout.flush()

import json  # noqa: E402

import speed  # noqa: E402

CAL_EVERY_S = 0.05

if sys.argv[1] == "setup":
    sys.stdout.write(json.dumps({"cal": speed.calibrate()}) + "\n")
    sys.exit(0)

import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import resource  # noqa: E402

from bruhatpoly import cli  # noqa: E402


def _tuples(x):
    return tuple(_tuples(a) for a in x) if isinstance(x, list) else x


def _prepare(op):
    """A zero-argument callable for the op."""
    if "cli" in op:
        argv = list(op["cli"])

        def run_cli():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
            return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

        return run_cli
    module, name = op["call"].split(".")
    mod = importlib.import_module(f"bruhatpoly.{module}")
    fn = getattr(mod, name)  # after tracing is installed, the wrapper
    args = _tuples(op["args"])
    return lambda: fn(*args)


def main():
    tracer = None
    if len(sys.argv) > 2 and sys.argv[2] == "trace":
        import tracer as tracing

        tracer = tracing.install()
    calls = [_prepare(op) for op in json.loads(sys.stdin.readline())]
    proto = sys.stdout
    clock = time.process_time
    wall = 0.0
    cal_at = None
    for i, call in enumerate(calls):
        if cal_at is None or clock() - cal_at > CAL_EVERY_S:
            proto.write(json.dumps({"cal": speed.calibrate()}) + "\n")
            cal_at = clock()
        if tracer is not None:
            tracer.begin_op(i)
        t0 = clock()
        try:
            out = call()
            error = None
        except Exception as exc:  # an op that raises counts as failed
            out, error = None, f"{type(exc).__name__}: {exc}"
        dt = clock() - t0
        wall += dt
        if tracer is not None:
            tracer.end_op(dt)
        proto.write(json.dumps({"i": i, "s": dt, "out": out, "error": error}) + "\n")
    proto.write(json.dumps({"cal": speed.calibrate()}) + "\n")
    proto.flush()
    tail = {
        "wall_s": wall,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tail["trace"] = tracer.report()
        if len(sys.argv) > 3:
            tracer.write_spans(sys.argv[3])
    proto.write(json.dumps({"end": tail}) + "\n")
    proto.flush()


main()

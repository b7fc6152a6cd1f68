"""One run of one workload, in a process of its own.

``run.py`` starts this file with numpy's thread counts pinned to one and
reads the single JSON line it prints.  Untraced (``--trace 0``), the
workload runs ops for ``--seconds`` seconds of op time and reports the
end-to-end metrics.  Traced (``--trace 1``), it runs the workload's fixed
number of ops twice from fresh set-ups, first untraced and then traced,
so that the per-layer counts depend on the seed alone, the tracing
overhead is the difference of the two medians, and the two runs' outputs
must agree.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3

E2E_UNITS = {
    "op_s_p50": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class Phase:
    """Op times, outputs and failures of a sequence of ops."""

    def __init__(self):
        self.times = []
        self.digests = []
        self.errors = []

    @property
    def attempted(self):
        return len(self.times)

    @property
    def failed(self):
        return len(self.errors)


def run_ops(wl, state, seconds=None, n_ops=None, tracer=None):
    """Closed loop: op *i+1* starts when op *i* has returned and been checked.

    Runs until *seconds* of op time have passed, or for *n_ops* ops.  Input
    generation, the correctness check and a garbage collection run between
    ops, outside the op timer and outside the trace.  decomap's objects
    hold reference cycles, so without the collection the garbage of
    earlier ops piles up until the collector's next full pass, and peak
    memory and op times would depend on where those passes fall.  The
    set-up's objects are frozen out of these collections.
    """
    phase = Phase()
    gc.collect()
    gc.freeze()
    try:
        _loop(wl, state, seconds, n_ops, tracer, phase)
    finally:
        gc.unfreeze()
    return phase


def _loop(wl, state, seconds, n_ops, tracer, phase):
    spent = 0.0
    i = 0
    while (i < n_ops) if n_ops is not None else (spent < seconds):
        inp = wl.inputs(state, i)
        out = err = None
        if tracer is not None:
            tracer.begin(i)
        t0 = time.perf_counter()
        try:
            out = wl.op(state, inp)
        except Exception:
            err = traceback.format_exc(limit=-3)
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end()
        if err is None:
            try:
                err = wl.check(state, inp, out)
            except Exception:
                err = traceback.format_exc(limit=-3)
        phase.times.append(dt)
        phase.digests.append(None if err else wl.digest(out))
        if err:
            phase.errors.append(f"op {i}: {err}")
        out = None
        gc.collect()
        spent += dt
        i += 1


def provenance(args):
    import numpy

    from decomap import gf2kernel

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "gf2_backend": gf2kernel.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "threads_env": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _p90(times):
    return statistics.quantiles(times, n=10, method="inclusive")[8] if len(times) > 1 else times[0]


def timed_run(wl, args, import_s):
    """Set up SETUP_REPEATS times, then run ops for ``args.seconds``.

    setup_s is the imports (process start until the workload module is
    loaded) plus the median of the set-ups: the time from process start
    to the first timed op, with the set-up's share made steadier.
    """
    prep = []
    for _ in range(SETUP_REPEATS):
        state = None
        gc.collect()
        t0 = time.perf_counter()
        state = wl.prepare(args.seed)
        prep.append(time.perf_counter() - t0)
    phase = run_ops(wl, state, seconds=args.seconds)
    times = phase.times
    q1, p50, q3 = statistics.quantiles(times, n=4, method="inclusive") if len(times) > 1 else times * 3
    metrics = {
        "op_s_p50": p50,
        "ops_per_s": len(times) / sum(times),
        "setup_s": import_s + statistics.median(prep),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {
        "op_s_q1": q1,
        "op_s_q3": q3,
        "op_s_p90": _p90(times),
        "fail_ratio": phase.failed / phase.attempted,
        "import_s": import_s,
        "prepare_s": prep,
    }
    return phase, {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, extra


def traced_run(wl, seed):
    from tracer import Tracer, unwrapped_bindings

    n_ops = wl.trace_ops
    untraced = run_ops(wl, wl.prepare(seed), n_ops=n_ops)
    gc.collect()
    tracer = Tracer()
    tracer.install()
    try:
        errors = [f"untraced binding: {b}" for b in unwrapped_bindings()]
        tracer.begin("setup")
        state = wl.prepare(seed)
        tracer.end()
        traced = run_ops(wl, state, n_ops=n_ops, tracer=tracer)
    finally:
        tracer.uninstall()
    if traced.digests != untraced.digests:
        errors.append("traced outputs differ from untraced outputs")
    metrics, layers = tracer.summary()
    p50_t = statistics.median(traced.times)
    p50_u = statistics.median(untraced.times)
    metrics.update({
        "trace.op_s_p50": (p50_t, "s"),
        "trace.untraced_op_s_p50": (p50_u, "s"),
        "trace.overhead_s": (p50_t - p50_u, "s"),
        "trace.ops": (n_ops, "count"),
    })
    phase = Phase()
    for part in (untraced, traced):
        phase.times += part.times
        phase.errors += part.errors
    return phase, metrics, {"layers": layers, "tracer": tracer, "run_errors": errors}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    import_s = time.perf_counter() - T_START
    wl = workloads.WORKLOADS[args.workload]
    prov = provenance(args)
    if args.trace:
        phase, metrics, extra = traced_run(wl, args.seed)
        tracer = extra.pop("tracer")
        tracer.dump(
            OUT / f"trace-{args.workload}-seed{args.seed}.json",
            {"provenance": prov, "metrics": metrics, "layers": extra["layers"]},
        )
    else:
        phase, metrics, extra = timed_run(wl, args, import_s)
    run_errors = extra.pop("run_errors", [])
    result = {
        "correct": phase.failed == 0 and not run_errors,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": extra,
        "errors": run_errors + phase.errors[:5],
        "provenance": prov,
    }
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

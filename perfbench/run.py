"""decomap benchmark: four closed-loop, single-client workloads.

    python3 perfbench/run.py                      # every workload, one table
    python3 perfbench/run.py --workload torus-query --seed 3 --seconds 25 --trace 0

Each workload runs in a fresh subprocess (``worker.py``) with numpy's
thread counts pinned to one, so peak memory and cold caches belong to one
workload.  Untraced runs report the end-to-end metrics; traced runs
(``--trace 1``) report the per-layer metrics of ``tracer.py`` and write
the spans and the elimination log to ``perfbench/out/``.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("torus-build", "torus-query", "torus-interleave", "squares-q")
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
WORKER_TIMEOUT_S = 170


def run_worker(workload, seed, seconds, trace):
    """Run one workload in its own process and return its result dict."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, env={**os.environ, **PINNED}, stdout=subprocess.PIPE,
        text=True, timeout=WORKER_TIMEOUT_S, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def describe(workload, res):
    """Human-readable report of one result."""
    p = res["provenance"]
    x = res["extra"]
    out = [
        f"== {workload}  seed {p['seed']}  seconds {p['seconds']}  trace {p['trace']}",
        f"   python {p['python']}, numpy {p['numpy']}, numba "
        f"{'present' if p['numba_present'] else 'absent'}, gf2 backend {p['gf2_backend']},"
        f" nproc {p['nproc']}, cpu {p['cpu_model']}",
        f"   ops {res['attempted']}, failed {res['failed']}, correct {res['correct']}",
    ]
    for err in res["errors"]:
        out.append("   error: " + err.strip().replace("\n", "\n          "))
    if not p["trace"]:
        m = {k: v["value"] for k, v in res["metrics"].items()}
        n = res["attempted"]
        p90_note = "" if n >= 100 else f"  (only {n} ops; a p90 needs 100)"
        out += [
            f"   op_s_p50     {m['op_s_p50']:.4f} s  (q1 {x['op_s_q1']:.4f}, q3 {x['op_s_q3']:.4f})",
            f"   op_s_p90     {x['op_s_p90']:.4f} s{p90_note}",
            f"   ops_per_s    {m['ops_per_s']:.4f} 1/s",
            f"   setup_s      {m['setup_s']:.4f} s",
            f"   peak_rss_mb  {m['peak_rss_mb']:.1f} MB",
            f"   fail_ratio   {x['fail_ratio']:.4f} ({res['failed']}/{n})",
        ]
    else:
        out.append("   " + "no wait metric: nothing in decomap queues or waits")
        for name, v in res["metrics"].items():
            layer = x["layers"].get(name)
            tail = ""
            if layer and "per_op_median_s" in layer:
                tail = (f"  per op q1 {layer['per_op_q1_s']:.4g}"
                        f" median {layer['per_op_median_s']:.4g} q3 {layer['per_op_q3_s']:.4g}")
            elif layer:
                tail = f"  ({layer['hits']} hits / {layer['base_calls']} calls)"
            out.append(f"   {name:<42} {v['value']:.6g} {v['unit']}{tail}")
    return "\n".join(out)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "decomap" / "__init__.py").is_file():
        print(f"decomap sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_worker(w, args.seed, args.seconds, args.trace)
                   for w in names}
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for w, res in results.items():
        print(describe(w, res))
    if len(results) == 1:
        (res,) = results.values()
        metrics = res["metrics"]
    else:
        metrics = {f"{w}/{k}": v for w, res in results.items() for k, v in res["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

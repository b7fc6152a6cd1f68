"""Record the golden values the correctness gates compare against.

    python3 perfbench/record_golden.py

Writes ``perfbench/golden.json``: the sha256 of the JSON and DOT that the
``torus-build`` op emits, and for each of the 40 ``torus-query`` base
intervals the extension and oracle dims, taken from the first block of
the default seed's stream.  Each base interval is also evaluated without
jitter, and the script refuses to write a table in which the jitter
changes a dim.  Run it only on a commit whose outputs are trusted.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from decomap.interval_cover import OpenInterval  # noqa: E402

DEFAULT_SEED = 1


def main():
    import hashlib

    build = workloads.TorusBuild()
    doc, dot = build.op(build.prepare(DEFAULT_SEED), None)
    golden = {
        "torus-build": {
            "json_sha256": hashlib.sha256(doc.encode()).hexdigest(),
            "dot_sha256": hashlib.sha256(dot.encode()).hexdigest(),
            "json_bytes": len(doc.encode()),
        }
    }
    query = workloads.TorusQuery()
    state = query.prepare(DEFAULT_SEED)
    stream = state["stream"]
    dims = {}
    for i in range(workloads.QUERY_BLOCK):
        k, v = stream[i]
        if k in dims:
            continue
        ext, oracle = query.op(state, (k, v))
        i0, j0 = stream.bases[k]
        base = OpenInterval(stream.slots[i0], stream.slots[j0])
        ext0, oracle0 = query.op(state, (k, base))
        got = [list(ext), list(oracle.dims())]
        if got != [list(ext0), list(oracle0.dims())]:
            raise SystemExit(f"jitter changes the dims of base interval {k}: {v} vs {base}")
        err = workloads.oracle_cross_check(oracle)
        if err:
            raise SystemExit(f"base interval {k}: {err}")
        dims[k] = got
    golden["torus-query"] = {
        "seed": DEFAULT_SEED,
        "bases": [[str(stream.slots[i]), str(stream.slots[j])] for i, j in stream.bases],
        "dims": [dims[k] for k in range(len(stream.bases))],
    }
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {workloads.GOLDEN_PATH}")


if __name__ == "__main__":
    main()

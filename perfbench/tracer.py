"""Tracing of ``decomap`` from outside the package.

:meth:`Tracer.install` wraps the public functions of every ``decomap``
module (plus the Q-field elimination ``exactlinalg._rref_q`` and a few
public methods) and rebinds *every* name that points at one of them in
every ``decomap.*`` namespace, since modules import each other's functions
by name.  Nothing inside ``src/`` changes.

While recording, each call becomes a span ``(name, start, end, parent)``
kept in memory, and the hooks below count the work done at the same
boundary: one row per elimination (shape, nonzeros, field, seconds and the
calling public function), boundary nonzeros, cache hits read from outside
as the change in a cache's size across the call, bytes emitted and
``NotInSpan`` failures.  :meth:`Tracer.summary` turns this into the
per-layer metrics and :meth:`Tracer.dump` writes everything out.

Nothing in ``decomap`` queues or waits: every call runs to completion on
the caller's thread, so no layer has a wait metric.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

import numpy as np

MODULES = (
    "gf2kernel", "exactlinalg", "simplicial", "homology", "interval_cover",
    "cosheaf_homology", "leray_cosheaf", "convergence", "assets", "cli_io",
)
PRIVATE = {"exactlinalg": ("_rref_q",)}
METHODS = (
    ("exactlinalg", "SpanSolver", "__init__"),
    ("exactlinalg", "SpanSolver", "solve"),
    ("homology", "GradedVectorSpace", "class_solver"),
)
ELIMINATIONS = {"gf2kernel.gf2_rref": "gf2", "exactlinalg._rref_q": "q"}
LINALG = ("gf2kernel.", "exactlinalg.")

NO_WAIT = (
    "no wait metric: nothing in decomap queues or waits; every call runs to"
    " completion on the caller's thread"
)

# metric -> span names whose inclusive seconds it sums
TIME_METRICS = {
    "cli_io.parse_s": ("cli_io.parse_complex_file", "cli_io.parse_cover_file"),
    "cli_io.emit_s": ("cli_io.graph_to_json", "cli_io.emit_json", "cli_io.graph_to_dot"),
    "simplicial.preimage_s": ("simplicial.preimage_subcomplex", "simplicial.preimage_of_union"),
    "simplicial.boundary_s": ("simplicial.boundary_matrix",),
    "simplicial.components_s": ("simplicial.connected_components",),
    "interval_cover.sub_nerve_s": ("interval_cover.sub_nerve",),
    "interval_cover.admissible_s": ("interval_cover.admissible",),
    "gf2kernel.rref_s": ("gf2kernel.gf2_rref",),
    "gf2kernel.matmul_s": ("gf2kernel.gf2_matmul",),
    "exactlinalg.row_reduce_s": ("exactlinalg.row_reduce",),
    "exactlinalg.rank_s": ("exactlinalg.rank",),
    "exactlinalg.kernel_basis_s": ("exactlinalg.kernel_basis",),
    "exactlinalg.cokernel_basis_s": ("exactlinalg.cokernel_basis",),
    "exactlinalg.span_solver_s": ("exactlinalg.SpanSolver.__init__",),
    "exactlinalg.span_solve_s": ("exactlinalg.SpanSolver.solve",),
    "exactlinalg.q_elim_s": ("exactlinalg._rref_q",),
    "homology.homology_s": ("homology.homology",),
    "homology.induced_map_s": ("homology.induced_map",),
    "cosheaf_homology.restriction_s": ("cosheaf_homology.homology_of_restriction",),
    "cosheaf_homology.induced_map_s": ("cosheaf_homology.induced_cosheaf_map",),
    "leray_cosheaf.build_s": ("leray_cosheaf.build_cellular_leray",),
    "convergence.extension_s": ("convergence.continuous_extension",),
    "convergence.mv_s": ("convergence.mv_isomorphism",),
    "convergence.square_s": ("convergence.verify_commuting_square",),
    "convergence.interleaving_s": ("convergence.interleaving_check",),
}
# metric -> span names whose self seconds (minus child spans) it sums
SELF_METRICS = {
    "leray_cosheaf.mapper_self_s": ("leray_cosheaf.build_decorated_mapper",),
}
# metric -> span names whose calls it counts
CALL_METRICS = {
    "simplicial.preimage_calls": TIME_METRICS["simplicial.preimage_s"],
    "simplicial.boundary_calls": ("simplicial.boundary_matrix",),
    "gf2kernel.rref_calls": ("gf2kernel.gf2_rref",),
    "exactlinalg.row_reduce_calls": ("exactlinalg.row_reduce",),
    "exactlinalg.rank_calls": ("exactlinalg.rank",),
    "exactlinalg.kernel_basis_calls": ("exactlinalg.kernel_basis",),
    "exactlinalg.cokernel_basis_calls": ("exactlinalg.cokernel_basis",),
    "exactlinalg.span_solver_calls": ("exactlinalg.SpanSolver.__init__",),
    "homology.homology_calls": ("homology.homology",),
    "homology.class_solver_calls": ("homology.GradedVectorSpace.class_solver",),
    "cosheaf_homology.restriction_calls": ("cosheaf_homology.homology_of_restriction",),
    "convergence.extension_calls": ("convergence.continuous_extension",),
    "convergence.mv_calls": ("convergence.mv_isomorphism",),
}
# ratio metric -> (hit counter, call metric that is its base)
HIT_RATIOS = {
    "homology.cache_hit_ratio": ("homology.cache_hits", "homology.homology_calls"),
    "cosheaf_homology.restriction_hit_ratio": (
        "cosheaf_homology.restriction_hits", "cosheaf_homology.restriction_calls"),
    "convergence.mv_hit_ratio": ("convergence.mv_hits", "convergence.mv_calls"),
}
COUNTERS = (
    "cli_io.bytes_out", "simplicial.boundary_nnz",
    "exactlinalg.span_solver_bytes_computed", "exactlinalg.not_in_span",
)
MAXIMA = ("homology.cache_entries", "convergence.chain_solver_entries")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _quartiles(xs):
    if len(xs) < 2:
        x = xs[0] if xs else 0.0
        return x, x, x
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


class Tracer:
    def __init__(self):
        self.names = {}
        self.name_of = []
        self.spans = []  # [name id, start, end, parent index, outermost of its name, op]
        self.stack = []
        self.depth = Counter()
        self.elims = []
        self.counters = Counter()
        self.maxima = Counter()
        self.recording = False
        self.op = None
        self._bindings = []  # (owner, attribute, original)
        self._failures = []
        self._hooks = {
            "gf2kernel.gf2_rref": (self._pre_elim, self._post_elim),
            "exactlinalg._rref_q": (self._pre_elim, self._post_elim),
            "homology.homology": (self._pre_homology, self._post_homology),
            "cosheaf_homology.homology_of_restriction": (
                self._pre_restriction, self._post_restriction),
            "convergence.mv_isomorphism": (self._pre_mv, self._post_mv),
            "simplicial.boundary_matrix": (None, self._post_boundary),
            "cli_io.emit_json": (None, self._post_bytes),
            "cli_io.graph_to_dot": (None, self._post_bytes),
            "exactlinalg.SpanSolver.__init__": (None, self._post_solver),
        }

    # ------------------------------------------------------------ install

    @staticmethod
    def traced_originals():
        """(span name, owner, attribute, function) for everything traced."""
        out = []
        for mname in MODULES:
            mod = importlib.import_module(f"decomap.{mname}")
            for attr, fn in vars(mod).items():
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in PRIVATE.get(mname, ()):
                    continue
                out.append((f"{mname}.{attr}", mod, attr, _original(fn)))
        for mname, cls, meth in METHODS:
            klass = getattr(importlib.import_module(f"decomap.{mname}"), cls)
            out.append((f"{mname}.{cls}.{meth}", klass, meth, _original(klass.__dict__[meth])))
        return out

    def install(self):
        if self._bindings:
            raise RuntimeError("tracer already installed")
        originals = {}
        for name, owner, attr, fn in self.traced_originals():
            wrapper = self._wrap(name, fn)
            if inspect.isclass(owner):
                self._bindings.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
            else:
                originals[id(fn)] = (fn, wrapper)
        for mod in decomap_namespaces():
            for attr, val in list(vars(mod).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    self._bindings.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for owner, attr, fn in reversed(self._bindings):
            setattr(owner, attr, fn)
        self._bindings = []

    def _wrap(self, name, fn):
        nid = self.names.setdefault(name, len(self.names))
        if nid == len(self.name_of):
            self.name_of.append(name)
        pre, post = self._hooks.get(name, (None, None))
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            ctx = pre(name, args, kwargs) if pre else None
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            outer = tracer.depth[nid] == 0
            span = [nid, 0.0, 0.0, parent, outer, tracer.op]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            tracer.depth[nid] += 1
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._failed(exc)
                raise
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
                tracer.depth[nid] -= 1
            if post:
                post(name, ctx, args, kwargs, result, idx)
            return result

        traced.__perfbench_original__ = fn
        return traced

    # ------------------------------------------------------------- record

    def begin(self, op):
        """Start recording the spans of op *op* (an int, or a label)."""
        self.op = op
        self.recording = True

    def end(self):
        self.recording = False
        self.op = None

    def _failed(self, exc):
        from decomap.exactlinalg import NotInSpan

        if isinstance(exc, NotInSpan) and not any(e is exc for e in self._failures):
            self._failures.append(exc)
            self.counters["exactlinalg.not_in_span"] += 1

    def _pre_elim(self, name, args, kwargs):
        a = _arg(args, kwargs, 0, "a" if name.startswith("gf2") else "data")
        a = np.asarray(a)
        rows, cols = a.shape
        piv = args[1] if len(args) > 1 else kwargs.get("n_pivot_cols")
        return rows, cols, cols if piv is None else int(piv), int(np.count_nonzero(a))

    def _post_elim(self, name, ctx, args, kwargs, result, idx):
        rows, cols, piv, nnz = ctx
        span = self.spans[idx]
        names = self.name_of
        caller = names[self.spans[span[3]][0]] if span[3] >= 0 else None
        consumer = None
        p = span[3]
        while p >= 0:
            pname = names[self.spans[p][0]]
            if not pname.startswith(LINALG):
                consumer = pname
                break
            p = self.spans[p][3]
        self.elims.append({
            "field": ELIMINATIONS[name], "rows": rows, "cols": cols,
            "pivot_cols": piv, "nnz": nnz, "seconds": span[2] - span[1],
            "caller": caller, "consumer": consumer, "op": span[5],
        })

    def _pre_homology(self, name, args, kwargs):
        k = _arg(args, kwargs, 0, "k")
        cache = getattr(k, "parent", k)._hom_cache
        return cache, len(cache)

    def _post_homology(self, name, ctx, args, kwargs, result, idx):
        cache, before = ctx
        self.counters["homology.cache_hits"] += len(cache) == before
        self._max("homology.cache_entries", len(cache))

    def _pre_restriction(self, name, args, kwargs):
        full = _arg(args, kwargs, 0, "full")
        data = full if hasattr(full, "_cache") else full.cosheaf_data()
        return data._cache, len(data._cache)

    def _post_restriction(self, name, ctx, args, kwargs, result, idx):
        cache, before = ctx
        self.counters["cosheaf_homology.restriction_hits"] += len(cache) == before

    def _pre_mv(self, name, args, kwargs):
        d = _arg(args, kwargs, 3, "d")
        return d, len(d.witness_cache)

    def _post_mv(self, name, ctx, args, kwargs, result, idx):
        d, before = ctx
        self.counters["convergence.mv_hits"] += len(d.witness_cache) == before
        self._max("convergence.chain_solver_entries", len(d.chain_solvers))

    def _post_boundary(self, name, ctx, args, kwargs, result, idx):
        self.counters["simplicial.boundary_nnz"] += int(np.count_nonzero(result.data))

    def _post_bytes(self, name, ctx, args, kwargs, result, idx):
        self.counters["cli_io.bytes_out"] += len(result.encode("utf-8"))

    def _post_solver(self, name, ctx, args, kwargs, result, idx):
        self.counters["exactlinalg.span_solver_bytes_computed"] += args[0].change.data.nbytes

    def _max(self, key, value):
        self.maxima[key] = max(self.maxima[key], value)

    # ------------------------------------------------------------- report

    def _per_op(self):
        """Per op label: inclusive seconds, self seconds and calls by name."""
        names = self.name_of
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        incl = defaultdict(Counter)
        selft = defaultdict(Counter)
        calls = defaultdict(Counter)
        for i, s in enumerate(self.spans):
            name = names[s[0]]
            dur = s[2] - s[1]
            calls[s[5]][name] += 1
            selft[s[5]][name] += dur - child[i]
            if s[4]:
                incl[s[5]][name] += dur
        return incl, selft, calls

    def summary(self):
        """Per-layer metrics over everything recorded, and per-op quartiles."""
        incl, selft, calls = self._per_op()
        ops = sorted({s[5] for s in self.spans if isinstance(s[5], int)})
        metrics = {}
        layers = {}

        def timed(metric, table, names):
            per_op = [sum(table[op][n] for n in names) for op in ops]
            total = sum(sum(table[op][n] for n in names) for op in table)
            metrics[metric] = (total, "s")
            q1, q2, q3 = _quartiles(per_op)
            layers[metric] = {"total_s": total, "per_op_q1_s": q1,
                              "per_op_median_s": q2, "per_op_q3_s": q3}

        for metric, names in TIME_METRICS.items():
            timed(metric, incl, names)
        for metric, names in SELF_METRICS.items():
            timed(metric, selft, names)
        for metric, names in CALL_METRICS.items():
            metrics[metric] = (sum(c[n] for c in calls.values() for n in names), "count")
        for metric in COUNTERS:
            unit = "bytes" if "bytes" in metric else "count"
            metrics[metric] = (self.counters[metric], unit)
        for metric in MAXIMA:
            metrics[metric] = (self.maxima[metric], "count")
        for metric, (hits, base) in HIT_RATIOS.items():
            n = metrics[base][0]
            metrics[metric] = (self.counters[hits] / n if n else 0.0, "ratio")
            layers[metric] = {"hits": self.counters[hits], "base_calls": n}
        gf2 = [e for e in self.elims if e["field"] == "gf2"]
        cells = sum(e["rows"] * e["cols"] for e in self.elims)
        metrics.update({
            "gf2kernel.rref_cells": (sum(e["rows"] * e["cols"] for e in gf2), "count"),
            "gf2kernel.rref_bytes_computed": (
                sum(e["rows"] * ((e["cols"] + 63) // 64) * 8 for e in gf2), "bytes"),
            "exactlinalg.eliminations": (len(self.elims), "count"),
            "exactlinalg.elim_cells": (cells, "count"),
            "exactlinalg.elim_nnz": (sum(e["nnz"] for e in self.elims), "count"),
            "exactlinalg.aug_ratio": (
                sum(e["rows"] * e["pivot_cols"] for e in self.elims) / cells
                if cells else 0.0, "ratio"),
        })
        metrics["trace.spans"] = (len(self.spans), "count")
        return metrics, layers

    def dump(self, path, extra):
        """Write spans, the elimination log and *extra* as one JSON file."""
        doc = dict(extra)
        doc["wait"] = NO_WAIT
        doc["span_names"] = self.name_of
        doc["span_fields"] = ["name", "start_s", "end_s", "parent", "op"]
        doc["spans"] = [[s[0], round(s[1], 7), round(s[2], 7), s[3], s[5]] for s in self.spans]
        doc["eliminations"] = self.elims
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _original(fn):
    return getattr(fn, "__perfbench_original__", fn)


def decomap_namespaces():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "decomap" or n.startswith("decomap."))]


def unwrapped_bindings():
    """Names in decomap namespaces that still point at a traced original."""
    traced = {id(fn): (name, fn) for name, _, _, fn in Tracer.traced_originals()}
    bad = []
    for mod in decomap_namespaces():
        for attr, val in vars(mod).items():
            hit = traced.get(id(val))
            if hit is not None and hit[1] is val:
                bad.append(f"{mod.__name__}.{attr} -> {hit[0]}")
    for mname, cls, meth in METHODS:
        klass = getattr(importlib.import_module(f"decomap.{mname}"), cls)
        if klass.__dict__[meth] is _original(klass.__dict__[meth]):
            bad.append(f"decomap.{mname}.{cls}.{meth}")
    return bad

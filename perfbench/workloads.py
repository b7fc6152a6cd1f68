"""The four benchmark workloads.

Each workload is a closed loop with one client: the next op starts only
when the previous one has finished.  A workload object has

* ``prepare(seed)`` — set-up, timed into ``setup_s``;
* ``inputs(state, i)`` — the inputs of op *i*, made from the seed outside
  the op timer;
* ``op(state, inp)`` — the timed call into ``decomap``;
* ``check(state, inp, out)`` — the correctness gate; returns an error
  message, or ``None`` when the output is right;
* ``digest(out)`` — a JSON-able summary used to compare a traced op with
  an untraced one.

Only ``torus-query`` shares one complex and one cosheaf across its ops;
every other op starts from a fresh complex, because the homology, witness
and restriction caches live on the complex and cosheaf objects.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

# Functions are called through their modules, so that the tracer's
# rebinding of module attributes also catches the benchmark's own calls.
from decomap import (
    assets,
    cli_io,
    convergence,
    homology,
    interval_cover,
    leray_cosheaf,
    simplicial,
)
from decomap.exactlinalg import GF2, QQ
from decomap.interval_cover import OpenInterval

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_PATH = HERE / "golden.json"


@functools.cache
def load_golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def _sub_rng(*parts):
    """Independent, reproducible random stream named by *parts*."""
    return random.Random("/".join(str(p) for p in parts))


def relabel(simplices, values, rng):
    """The same complex and field under a random renaming of the vertices.

    Homology is unchanged, but simplices sort, and matrices are eliminated,
    in another row and column order.
    """
    ids = sorted(values)
    new = dict(zip(ids, rng.sample(ids, len(ids))))
    return [tuple(new[u] for u in s) for s in simplices], {new[u]: x for u, x in values.items()}


# ---------------------------------------------------------------- torus-build


class TorusBuild:
    name = "torus-build"
    trace_ops = 4

    def prepare(self, seed):
        return {
            "scx": ROOT / "assets" / "torus.scx",
            "cov": ROOT / "assets" / "torus.cov",
        }

    def inputs(self, state, i):
        return None

    def op(self, state, inp):
        # the `decomap build` path, as library calls
        x, f = cli_io.parse_complex_file(state["scx"])
        lo, hi = f.min_value(), f.max_value()
        cover = cli_io.parse_cover_file(state["cov"], default_range=(lo, hi))
        if not cover.covers_range(lo, hi):
            raise ValueError("cover does not contain the function range")
        g = leray_cosheaf.build_decorated_mapper(x, f, cover, GF2, None)
        doc = cli_io.emit_json(cli_io.graph_to_json(g))
        dot = cli_io.graph_to_dot(g)
        return doc, dot

    def check(self, state, inp, out):
        doc, dot = out
        want = load_golden()["torus-build"]
        if hashlib.sha256(doc.encode()).hexdigest() != want["json_sha256"]:
            return "emitted JSON differs from the golden digest"
        if hashlib.sha256(dot.encode()).hexdigest() != want["dot_sha256"]:
            return "emitted DOT differs from the golden digest"
        cylinders = [n for n in json.loads(doc)["nodes"] if n["betti"] == [1, 1, 0]]
        if len(cylinders) != 2:
            return f"{len(cylinders)} nodes read (1, 1, 0), want 2"
        return None

    def digest(self, out):
        return [hashlib.sha256(s.encode()).hexdigest() for s in out]


# ---------------------------------------------------------------- torus-query

QUERY_TORUS = (36, 18)
QUERY_COVER = (8, "0.45", 0, 3)
QUERY_BLOCK = 100  # ops per block; 40 of them introduce a fresh interval


def query_slots(cover, crit):
    """Safe endpoint slots and the jitter half-width for query intervals.

    Slots are the midpoints of the gaps (inside the value range) between
    consecutive cover endpoints and critical values that are wider than a
    fifth of an element.  A jitter of a quarter of the narrowest such gap
    keeps every endpoint inside its gap, so the sub-nerve K_V and the
    homotopy type of the preimage of a jittered interval do not depend on
    the jitter: golden dims can be keyed by the unjittered base interval.
    """
    lo, hi = crit[0], crit[-1]
    cuts = sorted(
        {p for e in cover.elements for p in (e.lo, e.hi) if lo < p < hi} | set(crit)
    )
    min_gap = cover.elements[0].length / 5
    gaps = [(a, b) for a, b in zip(cuts, cuts[1:]) if b - a > min_gap]
    slots = [(a + b) / 2 for a, b in gaps]
    jitter = min(b - a for a, b in gaps) / 4
    return slots, jitter


def query_bases(n_slots):
    """Forty base intervals as slot-index pairs: all spans of at most six
    gaps, plus the widest one."""
    pairs = [(i, j) for i in range(n_slots) for j in range(i + 1, n_slots) if j - i <= 6]
    pairs.append((0, n_slots - 1))
    return pairs


def _balanced_order(sizes, rng, bands=8):
    """Seeded order of the base intervals in which every run of *bands*
    consecutive ones holds one from each band of similar preimage size.

    A run that the time limit cuts part-way into a block then still meets
    cheap and expensive fresh intervals in their block-wide proportions;
    with a plain shuffle, ops_per_s spread by 15 % over ten seeds.
    """
    ranked = sorted(range(len(sizes)), key=lambda k: (sizes[k], k))
    width = len(ranked) // bands
    groups = [ranked[b * width:(b + 1) * width] for b in range(bands)]
    for group in groups:
        rng.shuffle(group)
    order = []
    for r in range(width):
        rnd = [group[r] for group in groups]
        rng.shuffle(rnd)
        order += rnd
    return order


def _is_cold(t):
    """Fixed pattern C R C R R: two fresh intervals in every five ops."""
    return math.ceil(0.4 * (t + 1)) > math.ceil(0.4 * t)


class QueryStream:
    """Seeded query stream in blocks of 100 ops over a working set of 40.

    Each block starts from the caches as the set-up left them (see
    ``TorusQuery.inputs``), jitters the 40 base intervals afresh,
    introduces them in a seeded, size-balanced order at the C slots of the
    pattern, and fills the R slots with repeats of intervals the block has
    already introduced.  Every block has the same mix, so a run's figures
    do not depend on where the time limit cuts the stream.
    *sizes* holds the number of vertices in each base interval's preimage.
    """

    def __init__(self, seed, slots, jitter, bases, sizes):
        self.seed = seed
        self.slots = slots
        self.jitter = jitter
        self.bases = bases
        self.sizes = sizes
        self._blocks = {}

    def _block(self, b):
        if b not in self._blocks:
            rng = _sub_rng("torus-query", self.seed, b)
            scale = 10**6
            amp = int(self.jitter * scale)
            order = _balanced_order(self.sizes, rng)
            fresh = {}
            for k in order:
                i, j = self.bases[k]
                lo = self.slots[i] + Fraction(rng.randint(-amp, amp), scale)
                hi = self.slots[j] + Fraction(rng.randint(-amp, amp), scale)
                fresh[k] = OpenInterval(lo, hi)
            ops = []
            seen = []
            intro = iter(order)
            for t in range(QUERY_BLOCK):
                if _is_cold(t):
                    k = next(intro)
                    seen.append(k)
                else:
                    k = rng.choice(seen)
                ops.append((k, fresh[k]))
            self._blocks = {b: ops}  # older blocks are never revisited
        return self._blocks[b]

    def __getitem__(self, i):
        b, t = divmod(i, QUERY_BLOCK)
        return self._block(b)[t]


class TorusQuery:
    name = "torus-query"
    trace_ops = QUERY_BLOCK

    def prepare(self, seed):
        x, f = assets.standing_torus(*QUERY_TORUS)
        cover = interval_cover.uniform_cover(*QUERY_COVER)
        d = leray_cosheaf.build_cellular_leray(x, f, cover)
        data = d.cosheaf_data()
        crit = [Fraction(0), Fraction(3, 2), Fraction(3)]  # of standing_torus, by design
        slots, jitter = query_slots(cover, crit)
        bases = query_bases(len(slots))
        heights = sorted(f.values.values())
        sizes = [
            bisect.bisect_left(heights, slots[j]) - bisect.bisect_right(heights, slots[i])
            for i, j in bases
        ]
        caches = (x._hom_cache, data._cache, d.witness_cache, d.chain_solvers)
        return {
            "x": x, "f": f, "cover": cover, "d": d,
            "stream": QueryStream(seed, slots, jitter, bases, sizes),
            "caches": [(cache, dict(cache)) for cache in caches],
        }

    def inputs(self, state, i):
        if i % QUERY_BLOCK == 0:
            # The caches are keyed by the sub-nerve and by the preimage's
            # vertex set, which a fresh jitter need not change: without
            # this reset, a later block's fresh intervals would hit
            # entries left by earlier blocks.
            for cache, at_setup in state["caches"]:
                cache.clear()
                cache.update(at_setup)
        return state["stream"][i]

    def op(self, state, inp):
        _, v = inp
        d = state["d"]
        ext = convergence.continuous_extension(d, state["cover"], v)
        pre = simplicial.preimage_subcomplex(state["x"], state["f"], v)
        oracle = homology.homology(pre, d.field, d.max_deg)
        return ext.dims(), oracle

    def check(self, state, inp, out):
        k, v = inp
        ext_dims, oracle = out
        want_ext, want_oracle = load_golden()["torus-query"]["dims"][k]
        if list(ext_dims) != want_ext:
            return f"query {v}: extension dims {ext_dims}, golden {want_ext}"
        if list(oracle.dims()) != want_oracle:
            return f"query {v}: oracle dims {oracle.dims()}, golden {want_oracle}"
        return oracle_cross_check(oracle)

    def digest(self, out):
        ext_dims, oracle = out
        return [list(ext_dims), list(oracle.dims())]


def oracle_cross_check(gvs):
    """Checks on an oracle homology that share no elimination code with it:
    the Euler characteristic against simplex counts, and beta_0 against
    the number of connected components."""
    handle = gvs.subcomplex
    chi_cells = sum((-1) ** d * len(ids) for d, ids in handle.simplex_ids.items())
    chi_betti = sum((-1) ** n * b for n, b in enumerate(gvs.dims()))
    if chi_cells != chi_betti:
        return f"Euler characteristic {chi_cells} != alternating Betti sum {chi_betti}"
    b0 = len(simplicial.connected_components(handle))
    if gvs.dimension(0) != b0:
        return f"beta_0 {gvs.dimension(0)} != {b0} connected components"
    return None


# ----------------------------------------------------------- torus-interleave

INTERLEAVE_TORUS = (16, 8)
INTERLEAVE_SAMPLES = 20
# The sample intervals stay those of seed 42 (as in acceptance criterion 5)
# and the run's seed relabels the torus instead: drawing the samples from
# the seed made op_s_p50 spread by 24 % over five seeds, as some sample
# sets cost half as much again as others.
INTERLEAVE_SAMPLE_SEED = 42


class TorusInterleave:
    name = "torus-interleave"
    trace_ops = 3

    def prepare(self, seed):
        x, f = assets.standing_torus(*INTERLEAVE_TORUS)
        return {"seed": seed, "triangles": x.n_simplices(2), "values": f.values}

    def inputs(self, state, i):
        rng = _sub_rng("torus-interleave", state["seed"], i)
        return relabel(state["triangles"], state["values"], rng)

    def op(self, state, inp):
        x, f = simplicial.build_complex(*inp)
        cover = interval_cover.uniform_cover(4, "0.45", f.min_value(), f.max_value())
        return convergence.interleaving_check(
            x, f, cover, samples=INTERLEAVE_SAMPLES, seed=INTERLEAVE_SAMPLE_SEED
        )

    def check(self, state, inp, out):
        if len(out.checks) != INTERLEAVE_SAMPLES:
            return f"{len(out.checks)} interleaving checks, want {INTERLEAVE_SAMPLES}"
        if not out.verdict:
            bad = [str(s.v) for s in out.checks if not s.ok]
            return f"interleaving verdict false at {', '.join(bad)}"
        return None

    def digest(self, out):
        return [
            [str(s.v.lo), str(s.v.hi), s.containment_ok, s.triangle1_ok, s.triangle2_ok]
            for s in out.checks
        ] + [str(out.eps)]


# ------------------------------------------------------------------ squares-q

# The squares-q instances form one fixed population; a run's seed relabels
# the vertices of each instance (so the matrices are eliminated in another
# row and column order) but does not redraw it.  With a fresh draw per
# seed, the per-instance cost (coefficient of variation 0.9) made
# ops_per_s and op_s_p50 spread by 11 % and 21 % over five seeds.  For the
# same reason an op verifies one instance from each quarter of the
# vertex-count range: single squares are so unequal that the median of a
# hundred of them moved by 3 % per rank.
SQUARES_POPULATION = "squares-q/population/1"
SQUARES_PER_OP = 4
# Kronecker-sequence steps (fractional parts of square roots of primes):
# member m takes its top-level parameters from the point m * step + shift
# mod 1, so any prefix of the population covers the parameter range evenly.
_QMC_STEPS = tuple(math.sqrt(p) % 1 for p in (2, 3, 5, 7, 11, 13, 17, 19))


def square_instance(i, q, min_vertices=12, max_vertices=40):
    """Instance *q* of op *i* in the squares-q population.

    Returns (simplices, values, cover, v, w), built like the property-test
    generator of the repository: simplices drawn from short runs of the
    value-sorted vertex order, and the cover pushed as fine as
    admissibility allows (at most 8 elements).  The vertex count falls in
    quarter *q* of its range; it and the simplex count, overlap,
    cover-size choice and the four interval fractions follow a shifted
    Kronecker sequence instead of independent draws.
    """
    m = SQUARES_PER_OP * i + q
    shift = _sub_rng(SQUARES_POPULATION, "shift")
    offsets = [shift.random() for _ in _QMC_STEPS]
    u = [(m * a + o) % 1 for a, o in zip(_QMC_STEPS, offsets)]
    u[0] = (q + (i * _QMC_STEPS[0] + offsets[0]) % 1) / SQUARES_PER_OP
    rng = _sub_rng(SQUARES_POPULATION, m)
    nv = min_vertices + int(u[0] * (max_vertices - min_vertices + 1))
    values = {v: Fraction(rng.uniform(0.0, 8.0)) for v in range(nv)}
    order = sorted(range(nv), key=lambda v: values[v])
    sims = [(v,) for v in range(nv)]
    n_draws = 4 + int(u[1] * (nv + nv // 2 - 3))
    for _ in range(n_draws):
        start = rng.randint(0, nv - 4)
        pool = order[start : start + 4]
        if rng.random() < 0.7:
            take = (
                (pool[0], pool[1], pool[2])
                if rng.random() < 0.5
                else (pool[0], pool[2], pool[3])
            )
            sims.append(take)
        else:
            sims.append((pool[0], pool[rng.randint(1, 3)]))
    x, f = simplicial.build_complex(sims, values)
    lo, hi = f.min_value(), f.max_value()
    span = hi - lo
    g = Fraction(0.30 + 0.19 * u[2])
    widest = Fraction(0)
    for s in x.maximal_simplices():
        vals = [f(v) for v in s]
        widest = max(widest, max(vals) - min(vals))
    if widest == 0:
        n_cap = 8
    else:
        n_cap = int((g * span / (widest * Fraction(102, 100)) - g) / (1 - g))
    n_cap = max(1, min(8, n_cap))
    n = n_cap if u[3] < 0.7 else 1 + int((u[3] - 0.7) / 0.3 * n_cap)
    while n >= 1:
        cover = interval_cover.uniform_cover(n, g, lo, hi)
        if interval_cover.admissible(cover, x, f):
            break
        n -= 1
    flo, fhi = float(lo), float(hi)
    a = flo - 0.5 + u[4] * (fhi + 0.5 - flo)
    b = a + 0.05 + u[5] * (fhi + 0.5 - a - 0.05)
    c = a + u[6] * (b - 0.01 - a)
    dd = c + 0.005 + u[7] * (b - c - 0.005)
    v, w = OpenInterval(Fraction(c), Fraction(dd)), OpenInterval(Fraction(a), Fraction(b))
    return sims, values, cover, v, w


class SquaresQ:
    name = "squares-q"
    trace_ops = 10

    def prepare(self, seed):
        return {"seed": seed}

    def inputs(self, state, i):
        out = []
        for q in range(SQUARES_PER_OP):
            sims, values, cover, v, w = square_instance(i, q)
            rng = _sub_rng("squares-q", state["seed"], i, q)
            out.append((*relabel(sims, values, rng), cover, v, w))
        return out

    def op(self, state, inp):
        reports = []
        for sims, values, cover, v, w in inp:
            x, f = simplicial.build_complex(sims, values)
            reports.append(convergence.verify_commuting_square(x, f, cover, v, w, field=QQ))
        return reports

    def check(self, state, inp, out):
        for rep in out:
            if not rep.ok:
                bad = [r.degree for r in rep.degrees if not r.ok]
                return f"square {rep.v} in {rep.w} fails in degrees {bad}"
        return None

    def digest(self, out):
        return [
            [[r.degree, r.extension_dim, r.oracle_dim, r.left_rank, r.right_rank,
              r.witnesses_iso, r.commutes] for r in rep.degrees]
            for rep in out
        ]


WORKLOADS = {w.name: w for w in (TorusBuild(), TorusQuery(), TorusInterleave(), SquaresQ())}

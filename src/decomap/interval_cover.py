"""Finite open interval covers of the function range and their nerves.

Interval endpoints are exact rationals and every overlap test is a strict
inequality, matching open sets: touching intervals do not overlap.  Exact
endpoints keep the set containments used by the approximation checks free
of floating-point fuzz.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .exactlinalg import as_fraction


class InvalidParams(Exception):
    pass


class NerveNotOneDimensional(Exception):
    def __init__(self, triple):
        super().__init__(
            f"cover elements {triple} share a point; the nerve has a 2-simplex"
        )
        self.triple = triple


@dataclass(frozen=True)
class OpenInterval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", as_fraction(self.lo))
        object.__setattr__(self, "hi", as_fraction(self.hi))
        if not self.lo < self.hi:
            raise InvalidParams(f"need lo < hi, got ({self.lo}, {self.hi})")

    def contains(self, x):
        return self.lo < x < self.hi

    def overlaps(self, other):
        return max(self.lo, other.lo) < min(self.hi, other.hi)

    def intersect(self, other):
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo < hi:
            return OpenInterval(lo, hi)
        return None

    @property
    def length(self):
        return self.hi - self.lo

    def __repr__(self):
        return f"({float(self.lo):g}, {float(self.hi):g})"


class Cover:
    """Ordered list of open intervals indexed 0..N-1.

    Containment of one element in another is tolerated; the nerve and
    everything downstream stay well defined.
    """

    def __init__(self, elements):
        self.elements = tuple(elements)
        if not self.elements:
            raise InvalidParams("a cover needs at least one element")

    def __len__(self):
        return len(self.elements)

    def __getitem__(self, i):
        return self.elements[i]

    def covers_range(self, lo, hi):
        """True when [lo, hi] sits inside the union of the elements."""
        return any(p.lo < lo and hi < p.hi for p in self.support())

    def support(self):
        return merge_intervals(self.elements)

    def edge_interval(self, i, j):
        return self.elements[i].intersect(self.elements[j])


class NerveComplex:
    """1-dimensional nerve: cover indices as vertices, overlaps as edges."""

    def __init__(self, n_vertices, edges):
        self.vertices = tuple(range(n_vertices))
        self.edges = tuple(sorted(edges))

    def __repr__(self):
        return f"NerveComplex({len(self.vertices)} vertices, {len(self.edges)} edges)"


class SubNerve:
    """Face-closed subset of a nerve (the simplicial approximation of V)."""

    def __init__(self, nerve, vertices, edges):
        self.nerve = nerve
        self.vertices = tuple(sorted(vertices))
        self.edges = tuple(sorted(edges))

    def is_empty(self):
        return not self.vertices


def nerve(c: Cover) -> NerveComplex:
    """Nerve of the cover; raises when any triple intersection is nonempty."""
    n = len(c)
    for i, j, k in combinations(range(n), 3):
        lo = max(c[i].lo, c[j].lo, c[k].lo)
        hi = min(c[i].hi, c[j].hi, c[k].hi)
        if lo < hi:
            raise NerveNotOneDimensional((i, j, k))
    edges = [
        (i, j) for i, j in combinations(range(n), 2) if c[i].overlaps(c[j])
    ]
    return NerveComplex(n, edges)


def resolution(c: Cover) -> Fraction:
    return max(e.length for e in c.elements)


def uniform_cover(n, g, lo, hi) -> Cover:
    """n equal open intervals over (lo, hi), consecutive overlap fraction g.

    Element length is (hi-lo)/(n-(n-1)g) and the two outermost elements are
    shifted outward by a small pad so min/max values land strictly inside;
    lengths stay equal, so the resolution equals the formula exactly (the
    n=1 cover stretches instead, since one element must contain both ends).
    For g < 1/2 non-consecutive elements never meet, so the nerve is a
    path.
    """
    lo, hi, g = as_fraction(lo), as_fraction(hi), as_fraction(g)
    if n < 1 or not lo < hi or not 0 < g < 1:
        raise InvalidParams(f"bad uniform cover parameters n={n} g={g} ({lo},{hi})")
    length = (hi - lo) / (n - (n - 1) * g)
    if n == 1:
        pad = length / 100
        return Cover([OpenInterval(lo - pad, hi + pad)])
    pad = g * length / 100
    step = length * (1 - g)
    elements = []
    for k in range(n):
        a = lo + k * step
        if k == 0:
            a -= pad
        elif k == n - 1:
            a += pad
        elements.append(OpenInterval(a, a + length))
    return Cover(elements)


def sub_nerve(c: Cover, nv: NerveComplex, v: OpenInterval) -> SubNerve:
    """Simplices of the nerve whose cover set meets the open interval V."""
    verts = [i for i in nv.vertices if c[i].overlaps(v)]
    edges = []
    for i, j in nv.edges:
        ov = c.edge_interval(i, j)
        if ov is not None and ov.overlaps(v):
            edges.append((i, j))
    return SubNerve(nv, verts, edges)


def merge_intervals(intervals):
    """Disjoint maximal open intervals of a union (strict-overlap merge)."""
    items = sorted(intervals, key=lambda t: (t.lo, t.hi))
    out = []
    for it in items:
        if out and it.lo < out[-1].hi:
            if it.hi > out[-1].hi:
                out[-1] = OpenInterval(out[-1].lo, it.hi)
        else:
            out.append(it)
    return out


def union_support(c: Cover, k: SubNerve):
    """The union of the member cover sets as a normalized interval list."""
    return merge_intervals([c[i] for i in k.vertices])


@dataclass(frozen=True)
class AdmissibilityResult:
    ok: bool
    offender: tuple | None = None

    def __bool__(self):
        return self.ok


def admissible(c: Cover, x, f) -> AdmissibilityResult:
    """Every maximal simplex must fit inside a single cover element.

    This is the hypothesis that makes the chain-level Mayer-Vietoris
    sequence of the cover exact for combinatorial preimages; cosheaf
    construction and the commuting-square checks require it.
    """
    for s in x.maximal_simplices():
        values = [f(v) for v in s]
        lo, hi = min(values), max(values)
        if not any(e.lo < lo and hi < e.hi for e in c.elements):
            return AdmissibilityResult(False, s)
    return AdmissibilityResult(True)


def thicken(v: OpenInterval, eps) -> OpenInterval:
    eps = as_fraction(eps)
    if eps < 0:
        raise InvalidParams("thickening needs eps >= 0")
    if eps == 0:
        return v
    return OpenInterval(v.lo - eps, v.hi + eps)


def refine(n, g, lo, hi, levels):
    """Uniform covers with n, 2n, 4n, ... elements (strictly finer)."""
    if levels < 1:
        raise InvalidParams("levels must be >= 1")
    covers = [uniform_cover(n * 2**k, g, lo, hi) for k in range(levels)]
    res = [resolution(c) for c in covers]
    assert all(a > b for a, b in zip(res, res[1:]))
    return covers

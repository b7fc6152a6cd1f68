"""Seeded random (complex, field, cover, nested intervals) instances.

In :func:`random_instance`, simplices are drawn from short runs of the
value-sorted vertex order so their value spread stays small; the cover
size is then pushed as high as admissibility allows (capped at 8
elements), which keeps the instance population from collapsing onto
single-element covers.  Their cellular cosheaves have no H1 in practice
(none of the 200 of acceptance criterion 4 has any), so
:func:`random_circle_instance` gives circles and annuli whose cosheaves do.
"""

import math
from fractions import Fraction

from decomap.interval_cover import OpenInterval, admissible, uniform_cover
from decomap.simplicial import build_complex


def random_instance(rng, max_vertices=40):
    nv = rng.randint(12, max_vertices)
    values = {v: Fraction(rng.uniform(0.0, 8.0)) for v in range(nv)}
    order = sorted(range(nv), key=lambda v: values[v])
    sims = [(v,) for v in range(nv)]
    for _ in range(rng.randint(4, nv + nv // 2)):
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
    x, f = build_complex(sims, values)
    g = Fraction(rng.uniform(0.30, 0.49))
    n_cap = _cover_cap(x, f, g)
    n = n_cap if rng.random() < 0.7 else rng.randint(1, n_cap)
    return x, f, _admissible_cover(x, f, g, n)


def random_circle_instance(rng, max_steps=32):
    """A PL circle, or an annulus of two such circles, with H1 on its
    cellular cosheaf.

    Heights follow one or two seeded cosine waves round the circle (20 to
    *max_steps* steps per wave, with jitter), so every simplex spans a small
    range; the cover is the finest admissible one with at most 8 elements,
    and the instance is redrawn until the cover has at least two: then no
    cover element holds the whole circle, and its H1 lies in the cosheaf's
    degree-0 H1.
    """
    while True:
        waves = rng.randint(1, 2)
        m = waves * rng.randint(20, max_steps)
        phase = rng.uniform(0.0, 2 * math.pi)
        rings = rng.randint(1, 2)
        values = {
            r * m + j: Fraction(
                4 - 4 * math.cos(2 * math.pi * waves * j / m + phase)
                + rng.uniform(-0.05, 0.05)
            )
            for r in range(rings)
            for j in range(m)
        }
        sims = [(j, (j + 1) % m) for j in range(m)]
        if rings == 2:
            sims += [(j, (j + 1) % m, m + j) for j in range(m)]
            sims += [((j + 1) % m, m + (j + 1) % m, m + j) for j in range(m)]
        x, f = build_complex(sims, values)
        g = Fraction(rng.uniform(0.30, 0.49))
        cover = _admissible_cover(x, f, g, _cover_cap(x, f, g))
        if len(cover) >= 2:
            return x, f, cover


def _cover_cap(x, f, g):
    """Most elements (at most 8) a uniform cover with overlap *g* can have
    while each simplex's value range fits inside one element."""
    span = f.max_value() - f.min_value()
    widest = Fraction(0)
    for s in x.maximal_simplices():
        vals = [f(v) for v in s]
        widest = max(widest, max(vals) - min(vals))
    if widest == 0:
        return 8
    n_cap = int((g * span / (widest * Fraction(102, 100)) - g) / (1 - g))
    return max(1, min(8, n_cap))


def _admissible_cover(x, f, g, n):
    """The uniform cover with overlap *g* and the most elements, up to *n*,
    that is admissible."""
    lo, hi = f.min_value(), f.max_value()
    while n >= 1:
        cover = uniform_cover(n, g, lo, hi)
        if admissible(cover, x, f):
            break
        n -= 1
    return cover


def random_nested_pair(rng, f):
    lo, hi = float(f.min_value()), float(f.max_value())
    a = Fraction(rng.uniform(lo - 0.5, hi))
    b = Fraction(rng.uniform(float(a) + 0.05, hi + 0.5))
    c = Fraction(rng.uniform(float(a), float(b) - 0.01))
    d = Fraction(rng.uniform(float(c) + 0.005, float(b)))
    return OpenInterval(c, d), OpenInterval(a, b)

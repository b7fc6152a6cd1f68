"""One pinned SHA-256 over the answers of a seeded population.

The canonical text covers every extension value's dims, every extension
map, the MV witnesses over K_V, K_W and the full nerve, and the fields of
the commuting-square and interleaving reports, over GF(2) and Q.  A change
that means to keep every answer bit for bit keeps this digest.
"""

import hashlib
import random
from dataclasses import astuple

from decomap import assets
from decomap.convergence import (
    continuous_extension,
    extension_map,
    interleaving_check,
    mv_isomorphism,
    verify_commuting_square,
)
from decomap.exactlinalg import GF2, QQ
from decomap.interval_cover import sub_nerve, uniform_cover
from decomap.leray_cosheaf import build_cellular_leray
from instancegen import random_circle_instance, random_instance, random_nested_pair

DIGEST = "1f67a2731f3669830c02a71366bb446e13e3fedc448d9c4fa7a85f1c3038c8d7"


def map_text(g):
    """Each degree's matrix as its shape and rows of entries."""
    return ";".join(
        f"{m.rows}x{m.cols}"
        + "".join(
            "[" + " ".join(str(m.entry(i, j)) for j in range(m.cols)) + "]"
            for i in range(m.rows)
        )
        for m in g.matrices
    )


def canonical_lines():
    rng = random.Random(2024)
    population = [random_instance(rng) for _ in range(6)]
    population += [random_circle_instance(rng) for _ in range(3)]
    x, f = assets.hexagon_circle(2)
    population.append((x, f, uniform_cover(4, "0.45", 0, 3)))
    x, f = assets.standing_torus(8, 4)
    population.append((x, f, uniform_cover(2, "0.4", 0, 3)))
    for x, f, cover in population:
        pairs = [random_nested_pair(rng, f) for _ in range(2)]
        for field in (GF2, QQ):
            d = build_cellular_leray(x, f, cover, field)
            yield f"cosheaf {field} {len(d.vertices)} {len(d.edges)} {d.max_deg}"
            for v, w in pairs:
                for u in (v, w):
                    yield f"ext {astuple(u)} {continuous_extension(d, cover, u).dims()}"
                yield f"map {map_text(extension_map(d, cover, v, w))}"
                for k in (sub_nerve(cover, d, v), sub_nerve(cover, d, w), d):
                    yield f"mv {map_text(mv_isomorphism(x, f, cover, d, k))}"
                yield f"square {astuple(verify_commuting_square(x, f, cover, v, w, d=d))}"
            rep = interleaving_check(x, f, cover, samples=4, seed=3, d=d)
            yield f"interleave {rep.verdict} {astuple(rep)}"


def test_outputs_match_the_pinned_digest():
    text = "\n".join(canonical_lines()) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST

"""Acceptance suite: one test per shipped guarantee, each printing a
PASS line with its runtime (run with ``pytest -s`` to see them).
"""

import random
import time

from decomap import assets
from decomap.cli_io import emit_json, graph_to_json, parse_graph_json
from decomap.convergence import (
    continuous_extension,
    convergence_table,
    interleaving_check,
    verify_commuting_square,
)
from decomap.cosheaf_homology import constant_cosheaf, cosheaf_homology
from decomap.exactlinalg import GF2, QQ
from decomap.homology import homology
from decomap.interval_cover import Cover, OpenInterval, admissible, uniform_cover
from decomap.leray_cosheaf import build_cellular_leray, build_decorated_mapper
from decomap.simplicial import (
    connected_components,
    critical_values,
    preimage_subcomplex,
)

from instancegen import random_instance, random_nested_pair

COARSE = Cover([OpenInterval("-0.5", "2.1"), OpenInterval("0.9", "3.5")])
FINE = Cover([OpenInterval("-0.5", "1.2"), OpenInterval("0.8", "2.2"),
              OpenInterval("1.8", "3.5")])


def report(num, took, budget, text):
    assert took < budget, f"criterion {num} exceeded its {budget}s budget ({took:.1f}s)"
    print(f"ACCEPTANCE {num}: PASS ({took:.2f}s) {text}")


def test_c1_two_cover_comparison(hexagon12):
    x, f = hexagon12
    v = OpenInterval("1.3", "1.7")
    t0 = time.perf_counter()
    dc = build_cellular_leray(x, f, COARSE)
    df = build_cellular_leray(x, f, FINE)
    coarse_dim = continuous_extension(dc, COARSE, v).dimension(0)
    fine_dim = continuous_extension(df, FINE, v).dimension(0)
    oracle = homology(preimage_subcomplex(x, f, v), GF2).dimension(0)
    took = time.perf_counter() - t0
    assert oracle == 2
    assert coarse_dim == 1 and coarse_dim != oracle
    assert fine_dim == 2 and fine_dim == oracle
    report(1, took, 1.0,
           "coarse cover sees one class (!= oracle 2), fine cover sees both")


def test_c2_homology_golden_suite(hexagon6):
    t0 = time.perf_counter()
    circle, _ = hexagon6
    assert homology(circle, GF2).dims() == (1, 1)
    sphere, _ = assets.sphere_tetrahedron()
    assert homology(sphere, GF2).dims() == (1, 0, 1)
    torus7, _ = assets.torus_seven_vertex()
    assert homology(torus7, QQ).dims() == (1, 2, 1)
    assert homology(torus7, GF2).dims() == (1, 2, 1)
    klein, _ = assets.klein_bottle_grid(3)
    assert homology(klein, GF2).dims() == (1, 2, 1)
    assert homology(klein, QQ).dims() == (1, 1, 0)
    took = time.perf_counter() - t0
    report(2, took, 5.0, "circle/sphere/torus/Klein-bottle Betti numbers exact")


def test_c3_constant_cosheaf_oracle():
    t0 = time.perf_counter()
    rng = random.Random(7)
    for _ in range(100):
        nv = rng.randint(1, 16)
        pool = [(i, j) for i in range(nv) for j in range(i + 1, nv)]
        edges = rng.sample(pool, k=rng.randint(0, len(pool))) if pool else []
        h = cosheaf_homology(constant_cosheaf(nv, edges))
        parent = list(range(nv))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for u, v in edges:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
        b0 = len({find(v) for v in range(nv)})
        assert h.dims() == (b0, len(edges) - nv + b0)
    took = time.perf_counter() - t0
    report(3, took, 10.0, "constant cosheaf dims on 100 seeded random graphs")


def test_c4_commuting_square_property_suite():
    t0 = time.perf_counter()
    rng = random.Random(20240817)
    failures = 0
    for _ in range(200):
        x, f, cover = random_instance(rng)
        v, w = random_nested_pair(rng, f)
        rep = verify_commuting_square(x, f, cover, v, w)
        failures += not rep.ok
    took = time.perf_counter() - t0
    assert failures == 0
    report(4, took, 120.0,
           "200 random instances: witnesses invertible, squares commute, dims match")


def test_c5_interleaving_witness(hexagon96, torus):
    t0 = time.perf_counter()
    levels_checked = 0
    for (x, f) in (hexagon96, torus):
        lo, hi = f.min_value(), f.max_value()
        for n in (2, 4, 8, 16):
            cover = uniform_cover(n, "0.45", lo, hi)
            if not admissible(cover, x, f):
                continue
            rep = interleaving_check(x, f, cover, samples=20, seed=42)
            assert len(rep.checks) == 20
            assert all(s.containment_ok for s in rep.checks)
            assert all(s.triangle1_ok and s.triangle2_ok for s in rep.checks)
            assert rep.verdict
            levels_checked += 1
    took = time.perf_counter() - t0
    assert levels_checked >= 6
    report(5, took, 120.0,
           f"triangle identities exact at eps=res on {levels_checked} admissible levels")


def test_c6_convergence_tables(hexagon96, torus):
    t0 = time.perf_counter()
    for (x, f), need_degree in ((hexagon96, 1), (torus, 2)):
        table = convergence_table(x, f, 2, "0.45", 4, samples=20, seed=42)
        counts = [r.mismatch_count for r in table.rows if r.admissible]
        assert all(a >= b for a, b in zip(counts, counts[1:])), counts
        assert counts[0] > 0, "coarse level should show a mismatch"
        assert counts[-1] == 0, counts
        finest = [r for r in table.rows if r.admissible][-1]
        assert all(c == 0 for c in finest.per_degree_mismatches)
        crit = critical_values(x, f)
        min_gap = min(b - a for a, b in zip(crit, crit[1:]))
        assert finest.resolution < min_gap
        assert all(r.interleaving_pass for r in table.rows if r.admissible)
    took = time.perf_counter() - t0
    report(6, took, 120.0,
           "mismatch counts nonincreasing and zero at the finest admissible level")


def test_c7_global_extension_identity(hexagon6, hexagon12, hexagon96, torus):
    t0 = time.perf_counter()
    wide = OpenInterval(-10, 20)
    for (x, f), want in (
        (hexagon6, (1, 1)),
        (hexagon12, (1, 1)),
        (hexagon96, (1, 1)),
        (torus, (1, 2, 1)),
    ):
        lo, hi = f.min_value(), f.max_value()
        cover = uniform_cover(3, "0.45", lo, hi)
        if not admissible(cover, x, f):
            cover = uniform_cover(1, "0.45", lo, hi)
        d = build_cellular_leray(x, f, cover)
        assert continuous_extension(d, cover, wide).dims() == want
    for make, want in (
        (assets.sphere_tetrahedron, (1, 0, 1)),
        (assets.torus_seven_vertex, (1, 2, 1)),
        (assets.klein_bottle_grid, (1, 2, 1)),
    ):
        x, f = make()
        cover = uniform_cover(1, "0.4", f.min_value(), f.max_value())
        d = build_cellular_leray(x, f, cover)
        assert continuous_extension(d, cover, wide).dims() == want
    took = time.perf_counter() - t0
    report(7, took, 60.0, "full-range extension equals Betti numbers on all assets")


def test_c8_decorated_mapper_end_to_end(torus):
    x, f = torus
    t0 = time.perf_counter()
    cover = uniform_cover(5, "0.4", 0, 3)
    g = build_decorated_mapper(x, f, cover)
    ones = [n for n in g.nodes if n.value.dims() == (1, 1, 0)]
    assert len(ones) == 2, "exactly the two cylinder slices carry degree-1 dim 1"
    assert all(
        n.value.dims() != (1, 1, 0) for n in g.nodes if n not in ones
    )
    # degree-0 specialization equals the classical mapper graph
    expected_nodes = 0
    for e in cover.elements:
        expected_nodes += len(connected_components(preimage_subcomplex(x, f, e)))
    assert expected_nodes == len(g.nodes)
    expected_edges = 0
    for i in range(len(cover.elements)):
        for j in range(i + 1, len(cover.elements)):
            ov = cover.edge_interval(i, j)
            if ov is not None:
                expected_edges += len(
                    connected_components(preimage_subcomplex(x, f, ov))
                )
    assert expected_edges == len(g.edges)
    assert all(
        n.value.dimension(0) == 1 for n in g.nodes
    ), "each node is one component"
    # byte-stable JSON round trip
    doc = emit_json(graph_to_json(g))
    assert emit_json(parse_graph_json(doc)) == doc
    took = time.perf_counter() - t0
    report(8, took, 60.0, "torus decorated mapper golden + byte-stable JSON")

import random

import pytest

from decomap import assets
from decomap.cosheaf_homology import (
    CosheafChainComplex,
    CosheafData,
    constant_cosheaf,
    cosheaf_homology,
    homology_of_restriction,
    induced_cosheaf_map,
)
from decomap.exactlinalg import GF2, QQ, Matrix, kernel_basis, rank
from decomap.homology import NestingViolation
from decomap.interval_cover import Cover, OpenInterval, sub_nerve, uniform_cover
from decomap.leray_cosheaf import build_cellular_leray
from instancegen import random_nested_pair, random_instance

FINE = Cover([OpenInterval("-0.5", "1.2"), OpenInterval("0.8", "2.2"),
              OpenInterval("1.8", "3.5")])


def union_find_betti(nv, edges):
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
    return b0, len(edges) - nv + b0


def edge_count(cc, n):
    """Rows of the total complex's degree n that hold edge values."""
    return sum(map(len, cc.cells[n][1].values()))


def assert_euler_and_rank_identities(d):
    # dim H_n = c_n - rank d_n - rank d_(n+1) in every degree; and, as no
    # cell lies above degree max_deg, the alternating sums agree
    h = cosheaf_homology(d)
    cc = h.subcomplex
    ranks = [0] + [rank(cc.boundary(n)) for n in range(1, d.max_deg + 2)]
    for n in range(d.max_deg + 1):
        assert h.dimension(n) == cc.counts[n] - ranks[n] - ranks[n + 1]
    assert cc.counts[d.max_deg + 1] == 0
    signs = [(-1) ** n for n in range(d.max_deg + 1)]
    assert sum(s * b for s, b in zip(signs, h.dims())) == sum(
        s * c for s, c in zip(signs, cc.counts))


def test_constant_cosheaf_path_and_cycle():
    path = constant_cosheaf(4, [(0, 1), (1, 2), (2, 3)])
    assert cosheaf_homology(path).dims() == (1, 0)
    cycle = constant_cosheaf(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert cosheaf_homology(cycle).dims() == (1, 1)


def test_single_edge_boundary_matrix():
    d = constant_cosheaf(2, [(0, 1)])
    cc = CosheafChainComplex(d)
    assert cc.boundary(1) == Matrix.from_rows([[1], [1]], GF2)
    assert rank(cc.boundary(1)) == 1


def test_empty_cosheaf():
    d = CosheafData((), (), {}, {}, {}, GF2, 0)
    assert cosheaf_homology(d).dims() == (0,)
    assert CosheafChainComplex(d).boundary(1).shape == (0, 0)


def test_cosheaf_refuses_a_loop():
    # a loop's two blocks would land on one vertex position and cancel,
    # giving dims (0, 0) where a loop has (1, 1)
    with pytest.raises(ValueError, match="two distinct vertices"):
        constant_cosheaf(1, [(0, 0)])


def test_cosheaf_refuses_a_repeated_edge():
    with pytest.raises(ValueError, match="more than once"):
        constant_cosheaf(2, [(0, 1), (0, 1)])


def test_restriction_refuses_an_edge_off_its_vertices(hexagon6):
    x, f = hexagon6
    d = build_cellular_leray(x, f, FINE)
    with pytest.raises(ValueError, match="two distinct vertices"):
        homology_of_restriction(d, (0,), [(0, 1)])
    with pytest.raises(ValueError, match="two distinct vertices"):
        d.restrict((0,), [(0, 1)])


def test_constant_cosheaf_random_graph_oracle():
    rng = random.Random(7)
    for _ in range(100):
        nv = rng.randint(1, 16)
        pool = [(i, j) for i in range(nv) for j in range(i + 1, nv)]
        edges = rng.sample(pool, k=rng.randint(0, len(pool))) if pool else []
        d = constant_cosheaf(nv, edges)
        assert cosheaf_homology(d).dims() == union_find_betti(nv, edges)
        assert_euler_and_rank_identities(d)


def test_hexagon_fine_cover_blocks(hexagon6):
    x, f = hexagon6
    d = build_cellular_leray(x, f, FINE)
    cc = CosheafChainComplex(d)
    assert cc.counts[0] == 4 and edge_count(cc, 1) == 4
    assert rank(cc.boundary(1)) == 3
    # H0 of degree 0 is 1, H1 of degree 0 is 1, and degree 1 has neither
    assert cosheaf_homology(d).dims() == (1, 1)
    assert edge_count(cc, 2) - rank(cc.boundary(2)) == 0


def test_euler_identity_per_degree(hexagon6):
    x, f = hexagon6
    assert_euler_and_rank_identities(build_cellular_leray(x, f, FINE))


def test_induced_identity_on_full(hexagon6):
    x, f = hexagon6
    d = build_cellular_leray(x, f, FINE)
    h = cosheaf_homology(d)
    assert induced_cosheaf_map(d, d, d).matrices == [
        Matrix.identity(h.dimension(n), GF2) for n in range(d.max_deg + 1)
    ]


def test_induced_single_vertex_into_full(hexagon6):
    x, f = hexagon6
    d = build_cellular_leray(x, f, FINE)
    kv = sub_nerve(FINE, d, OpenInterval("1.3", "1.7"))
    assert kv.vertices == (1,)
    m = induced_cosheaf_map(d, kv, d)
    assert m.matrix(0).shape == (1, 2) and m.rank(0) == 1
    assert m.matrix(1).cols == 0


def test_induced_nesting_violation(hexagon6):
    x, f = hexagon6
    d = build_cellular_leray(x, f, FINE)
    kv = sub_nerve(FINE, d, OpenInterval("-0.4", "1.0"))
    kw = sub_nerve(FINE, d, OpenInterval("1.9", "3.4"))
    with pytest.raises(NestingViolation):
        induced_cosheaf_map(d, kv, kw)


def test_restriction_cache_ignores_member_order(hexagon6):
    x, f = hexagon6
    d = build_cellular_leray(x, f, FINE)
    a = homology_of_restriction(d, (0, 1), [(0, 1)])
    assert homology_of_restriction(d, [1, 0], ((0, 1),)) is a
    assert len(d._cache) == 1
    with pytest.raises(NestingViolation):
        homology_of_restriction(d, (0, 1, 7), [(0, 1)])


def test_functoriality_over_triples(hexagon6):
    x, f = hexagon6
    d = build_cellular_leray(x, f, FINE)
    ku = sub_nerve(FINE, d, OpenInterval("1.3", "1.7"))
    kv = sub_nerve(FINE, d, OpenInterval("0.9", "2.1"))
    kw = d
    direct = induced_cosheaf_map(d, ku, kw)
    uv = induced_cosheaf_map(d, ku, kv)
    vw = induced_cosheaf_map(d, kv, kw)
    assert vw @ uv == direct


def test_orientation_flip_preserves_dims_and_ranks(hexagon6):
    # negating every extension map flips the orientation of every edge
    x, f = hexagon6
    d = build_cellular_leray(x, f, FINE, field=QQ)
    flipped = CosheafData(
        d.vertices, d.edges, d.vdims, d.edims,
        {e: tuple([-m for m in mats] for mats in pair) for e, pair in d.maps.items()},
        QQ, d.max_deg,
    )
    plus = cosheaf_homology(d)
    minus = homology_of_restriction(flipped, flipped.vertices, flipped.edges)
    assert plus.dims() == minus.dims()
    kv = sub_nerve(FINE, d, OpenInterval("1.3", "1.7"))
    full = d
    profiles = []
    for data in (d, flipped):
        m = induced_cosheaf_map(data, kv, full)
        profiles.append([m.rank(n) for n in range(d.max_deg + 1)])
    assert profiles[0] == profiles[1] == [1, 0]


def test_engine_bases_on_cellular_cosheaves():
    # the homology engine on the total complex of a Leray cosheaf and of
    # its sub-nerve restrictions: basis coordinates are the identity,
    # boundaries are zero classes, dims obey the rank identity, and the
    # basis is the H0 classes on vertex rows beside the kernel basis of
    # the edge columns on edge rows.  instancegen's mapper graphs have no
    # cycle, so a circle and a torus join them to give the H1 parts of
    # degrees 1 and 2.
    rng = random.Random(23)
    population = [(random_instance(rng, max_vertices=30), (GF2, QQ)[t % 2])
                  for t in range(12)]
    for x, f in (assets.hexagon_circle(2), assets.standing_torus(16, 8)):
        cover = uniform_cover(3, "0.45", f.min_value(), f.max_value())
        population += [((x, f, cover), GF2), ((x, f, cover), QQ)]
    seen_h1 = set()
    seen_relations = 0
    for (x, f, cover), field in population:
        d = build_cellular_leray(x, f, cover, field)
        subs = [d]
        for _ in range(3):
            v, w = random_nested_pair(rng, f)
            subs += [sub_nerve(cover, d, v), sub_nerve(cover, d, w)]
        for k in subs:
            hom = homology_of_restriction(d, k.vertices, k.edges)
            cc = CosheafChainComplex(d.restrict(k.vertices, k.edges))
            for n in range(d.max_deg + 1):
                above = cc.boundary(n + 1)
                assert hom.subcomplex.boundary(n + 1) == above
                r = rank(above)
                r_n = rank(cc.boundary(n)) if n else 0
                assert hom.dimension(n) == cc.counts[n] - r_n - r
                basis = hom.basis(n)
                vertex_rows = [t for rows in cc.cells[n][0].values() for t in rows]
                edge_rows = [t for rows in cc.cells[n][1].values() for t in rows]
                h1 = len(edge_rows) - r_n
                h0 = basis.cols - h1
                assert basis.take_rows(edge_rows).take_cols(range(h0)).is_zero()
                assert basis.take_rows(vertex_rows).take_cols(range(h0, basis.cols)).is_zero()
                if n:
                    ker = kernel_basis(cc.boundary(n).take_cols(edge_rows))
                    assert basis.take_rows(edge_rows).take_cols(range(h0, basis.cols)) == ker
                ident = Matrix.identity(basis.cols, field)
                assert hom.express_cycles(n, basis) == ident
                coords = hom.express_cycles(n, above)
                assert coords.shape == (hom.dimension(n), cc.counts[n + 1])
                assert coords.is_zero()
                if h1:
                    seen_h1.add(n)
                seen_relations += r > 0 and h0 > 0
    assert seen_h1 == {1, 2} and seen_relations

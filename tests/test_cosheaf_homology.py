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


def test_constant_cosheaf_path_and_cycle():
    path = constant_cosheaf(4, [(0, 1), (1, 2), (2, 3)])
    h = cosheaf_homology(path)
    assert h.h0_dims() == (1,) and h.h1_dims() == (0,)
    cycle = constant_cosheaf(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    h = cosheaf_homology(cycle)
    assert h.h0_dims() == (1,) and h.h1_dims() == (1,)


def test_single_edge_boundary_matrix():
    d = constant_cosheaf(2, [(0, 1)])
    cc = CosheafChainComplex(d, 0)
    assert cc.boundary == Matrix.from_rows([[1], [1]], GF2)
    assert rank(cc.boundary) == 1


def test_empty_cosheaf():
    d = CosheafData((), (), {}, {}, {}, GF2, 0)
    h = cosheaf_homology(d)
    assert h.h0_dims() == (0,) and h.h1_dims() == (0,)
    assert CosheafChainComplex(d, 0).boundary.shape == (0, 0)


def test_cosheaf_refuses_a_loop():
    # a loop's two blocks would land on one vertex position and cancel,
    # giving H0 (0,) and H1 (0,) where a loop has (1,) and (1,)
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
        h = cosheaf_homology(d)
        b0, b1 = union_find_betti(nv, edges)
        assert h.h0_dims() == (b0,)
        assert h.h1_dims() == (b1,)
        assert h.euler_ok()


def test_hexagon_fine_cover_blocks(hexagon6):
    x, f = hexagon6
    d = build_cellular_leray(x, f, FINE)
    cc = CosheafChainComplex(d, 0)
    assert cc.edge_dim == 4 and cc.vertex_dim == 4
    assert rank(cc.boundary) == 3
    h = cosheaf_homology(d)
    assert h.h0_dims() == (1, 0) and h.h1_dims() == (1, 0)


def test_euler_identity_per_degree(hexagon6):
    x, f = hexagon6
    d = build_cellular_leray(x, f, FINE)
    assert cosheaf_homology(d).euler_ok()


def test_induced_identity_on_full(hexagon6):
    x, f = hexagon6
    d = build_cellular_leray(x, f, FINE)
    maps = induced_cosheaf_map(d, d, d)
    h = cosheaf_homology(d)
    for n, (h0, h1) in enumerate(maps):
        assert h0 == Matrix.identity(h.degrees[n].dimension(0), GF2)
        assert h1 == Matrix.identity(h.degrees[n].dimension(1), GF2)


def test_induced_single_vertex_into_full(hexagon6):
    x, f = hexagon6
    d = build_cellular_leray(x, f, FINE)
    kv = sub_nerve(FINE, d, OpenInterval("1.3", "1.7"))
    assert kv.vertices == (1,)
    maps = induced_cosheaf_map(d, kv, d)
    h0, h1 = maps[0]
    assert h0.shape == (1, 2) and rank(h0) == 1
    assert h1.cols == 0


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
    for n in range(d.max_deg + 1):
        assert vw[n][0] @ uv[n][0] == direct[n][0]
        assert vw[n][1] @ uv[n][1] == direct[n][1]


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
    assert plus.h0_dims() == minus.h0_dims()
    assert plus.h1_dims() == minus.h1_dims()
    kv = sub_nerve(FINE, d, OpenInterval("1.3", "1.7"))
    full = d
    profiles = []
    for data in (d, flipped):
        maps = induced_cosheaf_map(data, kv, full)
        profiles.append([(rank(h0), rank(h1)) for h0, h1 in maps])
    assert profiles[0] == profiles[1] == [(1, 0), (0, 0)]


def test_engine_bases_on_cellular_cosheaves():
    # the homology engine on each degree's complex of a Leray cosheaf and
    # of its sub-nerve restrictions: basis coordinates are the identity,
    # boundaries are zero classes, dims are counts minus the boundary rank,
    # and the H1 basis is the kernel basis of the boundary.  instancegen's
    # mapper graphs have no cycle, so a circle and a torus join them to
    # give H1 in degrees 0 and 1.
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
            for n, deg in enumerate(hom.degrees):
                cc = CosheafChainComplex(d.restrict(k.vertices, k.edges), n)
                bnd = cc.boundary
                assert deg.subcomplex.boundary == bnd
                r = rank(bnd)
                assert deg.dims() == (cc.vertex_dim - r, cc.edge_dim - r)
                assert deg.basis(1) == kernel_basis(bnd)
                for j in (0, 1):
                    basis = deg.basis(j)
                    ident = Matrix.identity(basis.cols, field)
                    assert deg.express_cycles(j, basis) == ident
                coords = deg.express_cycles(0, bnd)
                assert coords.shape == (deg.dimension(0), cc.edge_dim)
                assert coords.is_zero()
                if deg.dimension(1):
                    seen_h1.add(n)
                seen_relations += r > 0 and deg.dimension(0) > 0
    assert seen_h1 == {0, 1} and seen_relations

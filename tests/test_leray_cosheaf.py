from collections import Counter

import pytest

from decomap import assets
from decomap.cosheaf_homology import cosheaf_homology, homology_of_restriction
from decomap.exactlinalg import rank
from decomap.homology import NestingViolation, induced_map
from decomap.interval_cover import Cover, OpenInterval, nerve, sub_nerve, uniform_cover
from decomap.leray_cosheaf import (
    NotAdmissible,
    build_cellular_leray,
    build_decorated_mapper,
)
from decomap.simplicial import build_complex, connected_components, preimage_subcomplex

FINE = Cover([OpenInterval("-0.5", "1.2"), OpenInterval("0.8", "2.2"),
              OpenInterval("1.8", "3.5")])
COARSE = Cover([OpenInterval("-0.5", "2.1"), OpenInterval("0.9", "3.5")])


def test_cellular_cosheaf_fine_cover_dims(hexagon6):
    x, f = hexagon6
    d = build_cellular_leray(x, f, FINE)
    assert [d.vertex_values[i].dimension(0) for i in d.vertices] == [1, 2, 1]
    assert [d.edge_values[e].dimension(0) for e in d.edges] == [2, 2]
    assert all(d.vertex_values[i].dimension(1) == 0 for i in d.vertices)


def test_single_element_cover(hexagon6):
    x, f = hexagon6
    d = build_cellular_leray(x, f, Cover([OpenInterval(-1, 4)]))
    assert d.vertex_values[0].dims() == (1, 1)
    assert d.edges == ()


def test_coarse_cover_extension_maps(hexagon6):
    x, f = hexagon6
    d = build_cellular_leray(x, f, COARSE)
    assert [d.vertex_values[i].dimension(0) for i in (0, 1)] == [1, 1]
    assert d.edge_values[(0, 1)].dimension(0) == 2
    to0, to1 = d.maps[(0, 1)]
    assert to0[0].shape == (1, 2) and rank(to0[0]) == 1
    assert to1[0].shape == (1, 2) and rank(to1[0]) == 1


def test_not_admissible_raises(hexagon6):
    x, f = hexagon6
    bad = Cover([OpenInterval("-0.5", "0.8"), OpenInterval("0.5", "1.6"),
                 OpenInterval("1.4", "2.6"), OpenInterval("2.2", "3.5")])
    with pytest.raises(NotAdmissible) as exc:
        build_cellular_leray(x, f, bad)
    assert exc.value.offender == (0, 1)


def test_extension_maps_match_direct_induced(hexagon6):
    x, f = hexagon6
    d = build_cellular_leray(x, f, FINE)
    for (i, j), (to_i, to_j) in d.maps.items():
        ge = d.edge_values[(i, j)]
        assert to_i == induced_map(ge, d.vertex_values[i]).matrices
        assert to_j == induced_map(ge, d.vertex_values[j]).matrices


def test_restrict(hexagon6):
    x, f = hexagon6
    d = build_cellular_leray(x, f, FINE)
    same = d.restrict(d.vertices, d.edges)
    assert same.vertices == (0, 1, 2)
    kv = sub_nerve(FINE, d, OpenInterval("1.3", "1.7"))
    r = d.restrict(kv.vertices, kv.edges)
    assert r.vertices == (1,) and r.edges == ()
    assert r.vdims[1][0] == 2


def test_restrict_foreign_subnerve(hexagon6):
    # members outside the nerve: a fourth cover element, a non-overlap edge
    x, f = hexagon6
    d = build_cellular_leray(x, f, FINE)
    with pytest.raises(NestingViolation):
        d.restrict((0, 1, 2, 3), ())
    with pytest.raises(NestingViolation):
        d.restrict((0, 2), ((0, 2),))


def test_cellular_cosheaf_is_its_own_data(hexagon6):
    # the dims and matrices the homology engine reads are the decorations'
    for x, f, cover in [
        (*hexagon6, FINE),
        (*assets.standing_torus(8, 4), uniform_cover(2, "0.4", 0, 3)),
    ]:
        d = build_cellular_leray(x, f, cover)
        assert d.cosheaf_data() is d
        # caches hang off the object, so equality and hashing go by identity
        assert d != build_cellular_leray(x, f, cover) and {d: 1}[d] == 1
        nv = nerve(cover)
        assert d.vertices == nv.vertices and d.edges == nv.edges
        for i in d.vertices:
            assert tuple(d.vdims[i]) == d.vertex_values[i].dims()
        for e in d.edges:
            assert tuple(d.edims[e]) == d.edge_values[e].dims()
            for k in (0, 1):
                assert len(d.maps[e][k]) == d.max_deg + 1
                induced = induced_map(d.edge_values[e], d.vertex_values[e[k]])
                for n in range(d.max_deg + 1):
                    assert d.maps[e][k][n] == induced.matrix(n)
        subs = [d] + [
            sub_nerve(cover, d, OpenInterval(a, b))
            for a, b in [("-1", "0.5"), ("1.3", "1.7"), ("1", "4")]
        ]
        for k in subs:
            direct = cosheaf_homology(d.restrict(k.vertices, k.edges))
            cached = homology_of_restriction(d, k.vertices, k.edges)
            assert direct.h0_dims() == cached.h0_dims()
            assert direct.h1_dims() == cached.h1_dims()
            for a, b in zip(direct.degrees, cached.degrees):
                assert a.basis(0) == b.basis(0) and a.basis(1) == b.basis(1)


def test_decorated_mapper_hexagon_four_cycle(hexagon6):
    x, f = hexagon6
    g = build_decorated_mapper(x, f, FINE)
    assert len(g.nodes) == 4 and len(g.edges) == 4
    assert all(n.value.dims() == (1, 0) for n in g.nodes)
    assert all(e.value.dims() == (1, 0) for e in g.edges)
    degree = Counter()
    for e in g.edges:
        degree[e.source] += 1
        degree[e.target] += 1
    assert sorted(degree.values()) == [2, 2, 2, 2]
    # every degree-0 extension map is the 1x1 identity between components
    for e in g.edges:
        assert e.to_source.matrix(0).entry(0, 0) == 1
        assert e.to_target.matrix(0).entry(0, 0) == 1


def test_decorated_mapper_contractible_path():
    x, f = build_complex([[0, 1, 2]], {0: 0, 1: 1, 2: 2})
    cover = Cover([OpenInterval("-0.5", "2.1"), OpenInterval("1.4", "2.5")])
    g = build_decorated_mapper(x, f, cover)
    assert len(g.nodes) == 2 and len(g.edges) == 1
    assert all(sum(n.value.dims()[1:]) == 0 for n in g.nodes)


def test_block_sum_invariant(hexagon6, torus):
    # per cover element, component decorations add up to the cosheaf value
    for x, f, cover in [
        (*hexagon6, FINE),
        (*torus, uniform_cover(4, "0.45", 0, 3)),
    ]:
        g = build_decorated_mapper(x, f, cover)
        d = g.cosheaf
        for i in d.vertices:
            comps = [n for n in g.nodes if n.cover_index == i]
            for deg in range(d.max_deg + 1):
                total = sum(n.value.dimension(deg) for n in comps)
                assert total == d.vertex_values[i].dimension(deg)
        for e in d.edges:
            comps = [m for m in g.edges if m.cover_pair == e]
            for deg in range(d.max_deg + 1):
                total = sum(m.value.dimension(deg) for m in comps)
                assert total == d.edge_values[e].dimension(deg)


def test_torus_mapper_golden(torus):
    x, f = torus
    cover = uniform_cover(5, "0.4", 0, 3)
    g = build_decorated_mapper(x, f, cover)
    dims = sorted(tuple(n.value.dims()) for n in g.nodes)
    assert dims == [(1, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 0), (1, 3, 0)]
    # exactly the two cylinder slices carry degree-1 dimension 1
    cylinders = [n for n in g.nodes if n.value.dims() == (1, 1, 0)]
    assert len(cylinders) == 2
    assert {n.cover_index for n in cylinders} == {1, 3}
    # extremes by height are plain points homologically
    extremes = [n for n in g.nodes if n.cover_index in (0, 4)]
    assert all(n.value.dims() == (1, 0, 0) for n in extremes)


def test_classical_mapper_specialization(torus):
    # the degree-0 shadow agrees with a mapper computed directly from
    # components and overlaps
    x, f = torus
    cover = uniform_cover(5, "0.4", 0, 3)
    g = build_decorated_mapper(x, f, cover)
    nodes = {}
    for i, e in enumerate(cover.elements):
        for ci, comp in enumerate(
            connected_components(preimage_subcomplex(x, f, e))
        ):
            nodes[(i, ci)] = comp.vertices
    assert len(nodes) == len(g.nodes)
    expected_edges = []
    for i in range(len(cover.elements)):
        for j in range(i + 1, len(cover.elements)):
            ov = cover.edge_interval(i, j)
            if ov is None:
                continue
            for comp in connected_components(preimage_subcomplex(x, f, ov)):
                anchor = next(iter(comp.vertices))
                src = next(k for k, vs in nodes.items() if k[0] == i and anchor in vs)
                tgt = next(k for k, vs in nodes.items() if k[0] == j and anchor in vs)
                expected_edges.append((src, tgt))
    got_edges = [
        (
            (g.nodes[e.source].cover_index, g.nodes[e.source].component_index),
            (g.nodes[e.target].cover_index, g.nodes[e.target].component_index),
        )
        for e in g.edges
    ]
    assert sorted(expected_edges) == sorted(got_edges)

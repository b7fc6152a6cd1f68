import random
from fractions import Fraction

import pytest

from decomap.exactlinalg import GF2, QQ, Matrix, rank
from decomap.interval_cover import OpenInterval
from decomap.simplicial import (
    DegreeOutOfRange,
    DuplicateVertexInSimplex,
    MissingFunctionValue,
    boundary_matrix,
    build_complex,
    connected_components,
    critical_values,
    euler_characteristic,
    preimage_of_union,
    preimage_subcomplex,
)

from instancegen import random_instance


def bfs_components(vertex_set, edges):
    """Independent component oracle used to check the library's traversal."""
    adj = {v: [] for v in vertex_set}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen, comps = set(), []
    for start in sorted(vertex_set):
        if start in seen:
            continue
        comp, stack = set(), [start]
        while stack:
            u = stack.pop()
            if u in comp:
                continue
            comp.add(u)
            stack.extend(adj[u])
        seen |= comp
        comps.append(comp)
    return comps


def test_face_closure_triangle():
    x, _ = build_complex([[0, 1, 2]], {0: 0, 1: 1, 2: 2})
    assert len(x.vertices) == 3
    assert len(x.n_simplices(1)) == 3
    assert len(x.n_simplices(2)) == 1
    assert x.max_dim == 2


def test_empty_complex():
    x, _ = build_complex([], {})
    assert x.vertices == () and x.max_dim == -1
    assert euler_characteristic(x) == 0


def test_duplicate_vertex_rejected():
    with pytest.raises(DuplicateVertexInSimplex):
        build_complex([[0, 0, 1]], {0: 0, 1: 1})


def test_missing_value_rejected():
    with pytest.raises(MissingFunctionValue):
        build_complex([[0, 1]], {0: 0})


def test_hexagon_shape(hexagon6):
    x, f = hexagon6
    assert len(x.vertices) == 6 and len(x.n_simplices(1)) == 6
    # PL circle: one cycle, verified by direct traversal
    comps = bfs_components(set(x.vertices), x.n_simplices(1))
    assert len(comps) == 1
    assert euler_characteristic(x) == 0


def test_boundary_matrix_circle_rank(hexagon6):
    x, _ = hexagon6
    b1 = boundary_matrix(x, 1, GF2)
    assert b1.shape == (6, 6)
    assert rank(b1) == 5


def test_boundary_squared_zero_both_fields():
    x, _ = build_complex([[0, 1, 2], [1, 2, 3], [3, 4]], {i: i for i in range(5)})
    for field in (GF2, QQ):
        b1 = boundary_matrix(x, 1, field)
        b2 = boundary_matrix(x, 2, field)
        assert (b1 @ b2).is_zero()


def test_filled_triangle_boundary_signs():
    x, _ = build_complex([[0, 1, 2]], {0: 0, 1: 1, 2: 2})
    b2 = boundary_matrix(x, 2, QQ)
    # edges ordered (0,1),(0,2),(1,2); faces get signs +,-,+
    col = [b2.entry(i, 0) for i in range(3)]
    assert col == [Fraction(1), Fraction(-1), Fraction(1)]


def reference_boundary(k, n, field):
    """The boundary matrix written one entry at a time: deleting vertex
    position i of a column simplex adds (-1)^i to its face's row."""
    rows = k.n_simplices(n - 1)
    cols = k.n_simplices(n)
    row_idx = {s: i for i, s in enumerate(rows)}
    mat = Matrix.zeros(len(rows), len(cols), field)
    for j, s in enumerate(cols):
        for i in range(len(s)):
            r = row_idx[s[:i] + s[i + 1 :]]
            if field == GF2:
                mat.data[r, j] ^= 1
            else:
                mat.data[r, j] += Fraction(-1) ** i
    return mat


def test_boundary_matrix_matches_entrywise_reference():
    rng = random.Random(11)
    for _ in range(20):
        x, f, cover = random_instance(rng)
        handles = [x.full_handle()] + [
            preimage_subcomplex(x, f, e) for e in cover.elements
        ]
        for k in handles:
            for n in range(1, x.max_dim + 1):
                for field in (GF2, QQ):
                    got = boundary_matrix(k, n, field)
                    expect = reference_boundary(k, n, field)
                    assert got.shape == expect.shape and got == expect
                    if field == QQ:
                        assert all(type(v) is Fraction for v in got.data.flat)


def test_degree_out_of_range():
    x, _ = build_complex([[0, 1]], {0: 0, 1: 1})
    with pytest.raises(DegreeOutOfRange):
        boundary_matrix(x, 0, GF2)
    with pytest.raises(DegreeOutOfRange):
        boundary_matrix(x, 2, GF2)


def test_preimage_hexagon_band(hexagon6):
    x, f = hexagon6
    h = preimage_subcomplex(x, f, OpenInterval("0.8", "2.2"))
    assert h.vertices == frozenset({1, 2, 4, 5})
    assert h.n_simplices(1) == ((1, 2), (4, 5))
    comps = connected_components(h)
    assert len(comps) == 2
    assert comps[0].vertices == frozenset({1, 2})
    assert comps[1].vertices == frozenset({4, 5})


def test_preimage_full_and_empty(hexagon6):
    x, f = hexagon6
    assert preimage_subcomplex(x, f, OpenInterval(-10, 10)).counts() == (6, 6)
    assert preimage_subcomplex(x, f, OpenInterval(100, 101)).is_empty()


def test_preimage_endpoint_values_excluded(hexagon6):
    x, f = hexagon6
    # vertices with value exactly on an open endpoint stay outside
    h = preimage_subcomplex(x, f, OpenInterval(1, 2))
    assert h.vertices == frozenset()


def test_preimage_monotone_and_union(hexagon6):
    x, f = hexagon6
    rng = random.Random(0)
    for _ in range(40):
        a = Fraction(rng.uniform(-1, 3))
        b = Fraction(rng.uniform(float(a) + 0.01, 4))
        c = Fraction(rng.uniform(-1, float(b)))
        inner = OpenInterval(a, b)
        outer = OpenInterval(min(a, c), max(b, c) + 1)
        hi_ = preimage_subcomplex(x, f, inner)
        ho = preimage_subcomplex(x, f, outer)
        assert ho.contains_handle(hi_)


def test_preimage_union_of_intervals(hexagon6):
    x, f = hexagon6
    h = preimage_of_union(
        x, f, [OpenInterval("-0.5", "0.5"), OpenInterval("2.5", "3.5")]
    )
    assert h.vertices == frozenset({0, 3})
    assert not h.simplex_ids.get(1)
    comps = connected_components(h)
    assert [sorted(c.vertices) for c in comps] == [[0], [3]]


def test_components_against_oracle_random():
    rng = random.Random(4)
    for _ in range(30):
        nv = rng.randint(1, 14)
        pool = [(i, j) for i in range(nv) for j in range(i + 1, nv)]
        edges = rng.sample(pool, k=rng.randint(0, len(pool))) if pool else []
        sims = [(v,) for v in range(nv)] + edges
        x, f = build_complex(sims, {v: v for v in range(nv)})
        got = connected_components(x.full_handle())
        want = bfs_components(set(range(nv)), edges)
        assert [set(c.vertices) for c in got] == want
        # partition: disjoint and exhaustive
        allv = set()
        for c in got:
            assert not (allv & c.vertices)
            allv |= c.vertices
        assert allv == set(range(nv))


def test_euler_characteristic_goldens(hexagon6):
    x, _ = hexagon6
    assert euler_characteristic(x) == 0
    tri, _ = build_complex([[0, 1, 2]], {0: 0, 1: 1, 2: 2})
    assert euler_characteristic(tri) == 1
    pts, _ = build_complex([[0], [1]], {0: 0, 1: 1})
    assert euler_characteristic(pts) == 2


def test_maximal_simplices():
    x, _ = build_complex([[0, 1, 2], [2, 3]], {i: i for i in range(4)})
    assert set(x.maximal_simplices()) == {(0, 1, 2), (2, 3)}


def test_critical_values_hexagon(hexagon6, hexagon96):
    x, f = hexagon6
    assert critical_values(x, f) == [0, 3]
    x96, f96 = hexagon96
    assert critical_values(x96, f96) == [0, 3]


def test_critical_values_reject_dimension_three():
    x, f = build_complex([(0, 1, 2, 3)], {i: i for i in range(4)})
    with pytest.raises(ValueError, match="dimension 2"):
        critical_values(x, f)


def test_critical_values_standing_torus(torus):
    x, f = torus
    assert critical_values(x, f) == [0, Fraction(3, 2), 3]

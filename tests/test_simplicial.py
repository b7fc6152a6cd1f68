import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decomap.convergence import convergence_table
from decomap.exactlinalg import GF2, QQ, Matrix, rank
from decomap.homology import homology
from decomap.interval_cover import OpenInterval
from decomap.simplicial import (
    DegreeOutOfRange,
    DuplicateVertexInSimplex,
    MissingFunctionValue,
    ScalarField,
    SubcomplexHandle,
    boundary_matrix,
    build_complex,
    connected_components,
    critical_values,
    euler_characteristic,
    preimage_of_union,
    preimage_subcomplex,
)

from instancegen import random_circle_instance, random_instance


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
    full = preimage_subcomplex(x, f, OpenInterval(-10, 10))
    assert {d: len(ids) for d, ids in full.simplex_ids.items()} == {0: 6, 1: 6}
    empty = preimage_subcomplex(x, f, OpenInterval(100, 101))
    assert not empty.simplex_ids and not empty.vertices


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
        assert ho.contains(hi_)


def test_preimage_union_of_intervals(hexagon6):
    x, f = hexagon6
    h = preimage_of_union(
        x, f, [OpenInterval("-0.5", "0.5"), OpenInterval("2.5", "3.5")]
    )
    assert h.vertices == frozenset({0, 3})
    assert not h.simplex_ids.get(1)
    comps = connected_components(h)
    assert [sorted(c.vertices) for c in comps] == [[0], [3]]


def test_preimage_union_refuses_overlapping_pieces(hexagon6):
    x, f = hexagon6
    with pytest.raises(ValueError, match="overlap"):
        preimage_of_union(x, f, [OpenInterval("0", "2"), OpenInterval("1", "3")])


def scan_induced_handle(x, selected, piece_of=None):
    """The full induced subcomplex on *selected*, by a scan of every
    simplex: the selection the value index replaced, kept as its reference.
    With *piece_of* (vertex -> piece), a simplex is kept only when all its
    vertices share a piece."""
    ids = {}
    for d, sims in x.simplices.items():
        keep = []
        for i, s in enumerate(sims):
            if not all(v in selected for v in s):
                continue
            if piece_of is not None and len({piece_of[v] for v in s}) > 1:
                continue
            keep.append(i)
        if keep:
            ids[d] = tuple(keep)
    return SubcomplexHandle(x, frozenset(selected), ids)


def scan_preimage(x, f, v):
    return scan_induced_handle(x, {w for w in x.vertices if v.contains(f(w))})


def scan_preimage_of_union(x, f, intervals):
    piece_of = {}
    for w in x.vertices:
        for t, iv in enumerate(intervals):
            if iv.contains(f(w)):
                piece_of[w] = t
                break
    return scan_induced_handle(x, set(piece_of), piece_of)


def assert_same_handle(got, want):
    assert got.vertices == want.vertices
    assert got.simplex_ids == want.simplex_ids
    assert got.cache_key() == want.cache_key()


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_value_index_selects_what_the_scan_selected(seed):
    rng = random.Random(seed)
    for x, f, _ in (random_instance(rng, max_vertices=30), random_circle_instance(rng)):
        # the same complex under a second field with many repeated values;
        # queries alternate between the two, so the index must follow
        coarse = ScalarField({w: Fraction(round(2 * f(w)), 2) for w in x.vertices})
        for g in (f, coarse, f, coarse):
            values = sorted(set(g.values.values()))
            lo, hi = values[0], values[-1]
            points = values + [lo - 1, hi + 1] + [
                Fraction(rng.uniform(float(lo) - 1, float(hi) + 1)) for _ in range(4)
            ]
            intervals = [OpenInterval(lo - 1, hi + 1), OpenInterval(hi, hi + 1)]
            if len(values) > 1:
                # no vertex value strictly between two neighbouring values
                intervals.append(OpenInterval(values[0], values[1]))
            for _ in range(6):
                a, b = sorted(rng.sample(points, 2))
                if a < b:
                    intervals.append(OpenInterval(a, b))
            for v in intervals:
                assert_same_handle(preimage_subcomplex(x, g, v), scan_preimage(x, g, v))
            for _ in range(4):
                cuts = sorted(set(rng.sample(points, min(len(points), 2 * rng.randint(1, 3)))))
                # disjoint pieces, neighbours sharing an endpoint now and then
                pieces = [OpenInterval(a, b) for a, b in zip(cuts, cuts[1:])][:: rng.randint(1, 2)]
                rng.shuffle(pieces)
                assert_same_handle(
                    preimage_of_union(x, g, pieces), scan_preimage_of_union(x, g, pieces)
                )


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


def coned_rings():
    """Eight 3-vertex rings at r/8 joined by annuli, an apex at 1 coning off
    the top ring, and a path from the apex up to 2 in steps of 1/8."""
    values = {3 * r + j: Fraction(r, 8) for r in range(8) for j in range(3)}
    sims = []
    for r in range(7):
        for j in range(3):
            a, a1 = 3 * r + j, 3 * r + (j + 1) % 3
            sims += [(a, a1, a + 3), (a1, a1 + 3, a + 3)]
    sims += [(21 + j, 21 + (j + 1) % 3, 24) for j in range(3)]
    for k in range(9):
        values[24 + k] = 1 + Fraction(k, 8)
    sims += [(24 + k, 25 + k) for k in range(8)]
    return build_complex([sorted(s) for s in sims], values)


def test_critical_values_see_a_lower_link_with_a_cycle():
    # the apex's lower link is the top ring: connected, but a cycle, so
    # passing 1 kills the rings' H1
    x, f = coned_rings()
    assert critical_values(x, f) == [0, 1, 2]
    table = convergence_table(x, f, 2, Fraction(1, 3), 4, samples=12, seed=0)
    assert [row.mismatch_count for row in table.rows] == [2, 2, 0, 0]


def strict_link(x, f, v, side):
    """The simplices of the strict lower (side -1) or upper (side 1) link
    of v: the faces opposite v of its edges and triangles whose other
    vertices all lie on that side of f(v)."""
    faces = []
    for s in x.n_simplices(1) + x.n_simplices(2):
        rest = tuple(u for u in s if u != v)
        if len(rest) < len(s) and all(side * (f(u) - f(v)) > 0 for u in rest):
            faces.append(rest)
    return faces


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_critical_values_agree_with_link_homology(seed):
    # a vertex is regular exactly when its strict lower and upper links,
    # each a complex of its own, have zero reduced homology: homology()
    # dims (1, 0), and an empty link never qualifies
    rng = random.Random(seed)
    for x, f, _ in (random_instance(rng), random_circle_instance(rng)):
        expect = set()
        for v in x.vertices:
            for side in (-1, 1):
                faces = strict_link(x, f, v, side)
                if not faces:
                    expect.add(f(v))
                    continue
                link, _ = build_complex(faces, {u: f(u) for t in faces for u in t})
                if homology(link, GF2, 1).dims() != (1, 0):
                    expect.add(f(v))
        assert critical_values(x, f) == sorted(expect)

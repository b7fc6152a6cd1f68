import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decomap import assets, exactlinalg
from decomap.cosheaf_homology import CosheafChainComplex, CosheafData, cosheaf_homology
from decomap.exactlinalg import GF2, QQ, Matrix, SpanSolver, kernel_basis, rank
from decomap.homology import (
    NestingViolation,
    homology,
    induced_map,
)
from decomap.interval_cover import OpenInterval
from decomap.leray_cosheaf import build_cellular_leray
from decomap.simplicial import (
    boundary_matrix,
    build_complex,
    euler_characteristic,
    preimage_subcomplex,
)

from instancegen import random_circle_instance, random_instance


def test_circle_betti(hexagon6):
    x, _ = hexagon6
    for field in (GF2, QQ):
        assert homology(x, field).dims() == (1, 1)


def test_sphere_betti():
    x, _ = assets.sphere_tetrahedron()
    for field in (GF2, QQ):
        assert homology(x, field).dims() == (1, 0, 1)


def test_torus_seven_vertex_betti():
    x, _ = assets.torus_seven_vertex()
    assert homology(x, QQ).dims() == (1, 2, 1)
    assert homology(x, GF2).dims() == (1, 2, 1)


def test_klein_bottle_field_dependence():
    x, _ = assets.klein_bottle_grid(3)
    assert homology(x, GF2).dims() == (1, 2, 1)
    assert homology(x, QQ).dims() == (1, 1, 0)


def test_basis_chains_are_cycles(hexagon6):
    x, _ = hexagon6
    gvs = homology(x, GF2)
    b1 = boundary_matrix(x, 1, GF2)
    z = gvs.basis(1)
    assert z.cols == 1 and (b1 @ z).is_zero()
    # the hexagon's only 1-cycle over GF(2) is the sum of all six edges
    assert z == Matrix.from_rows([[1]] * 6, GF2)


def test_induced_identity(hexagon6):
    x, _ = hexagon6
    gvs = homology(x, GF2)
    m = induced_map(gvs, gvs)
    for n in range(2):
        assert m.matrix(n) == Matrix.identity(gvs.dimension(n), GF2)


def test_induced_arc_into_circle(hexagon6):
    x, f = hexagon6
    arc = preimage_subcomplex(x, f, OpenInterval("-0.5", "2.5"))
    a = homology(arc, GF2)
    assert a.dims() == (1, 0)
    b = homology(x, GF2)
    m = induced_map(a, b)
    assert m.matrix(0).shape == (1, 1) and m.rank(0) == 1
    assert m.matrix(1).shape == (1, 0)


def test_induced_two_arcs_merge(hexagon6):
    x, f = hexagon6
    arcs = preimage_subcomplex(x, f, OpenInterval("0.8", "2.2"))
    a = homology(arcs, GF2)
    assert a.dimension(0) == 2
    m = induced_map(a, homology(x, GF2))
    assert m.matrix(0).shape == (1, 2) and m.rank(0) == 1


def test_induced_nesting_violation(hexagon6):
    x, f = hexagon6
    a = homology(preimage_subcomplex(x, f, OpenInterval("0.8", "2.2")), GF2)
    b = homology(preimage_subcomplex(x, f, OpenInterval("-0.5", "1.5")), GF2)
    with pytest.raises(NestingViolation):
        induced_map(a, b)


def test_handles_of_two_complexes_do_not_nest():
    # the same simplices built twice give handles with the same ids, but
    # their chains live in different complexes
    sims = [(0, 1), (1, 2), (0, 2)]
    values = {0: 0, 1: 1, 2: 2}
    a, b = (build_complex(sims, values)[0].full_handle() for _ in range(2))
    assert a.simplex_ids == b.simplex_ids
    assert a.contains(a) and not a.contains(b) and not b.contains(a)
    with pytest.raises(NestingViolation):
        induced_map(homology(a, GF2), homology(b, GF2))


def test_compose_shape_mismatch(hexagon6):
    x, f = hexagon6
    a = homology(preimage_subcomplex(x, f, OpenInterval("0.8", "2.2")), GF2)
    b = homology(x, GF2)
    m = induced_map(a, b)
    # H0(a) -> H0(b) is 1x2: it cannot follow itself
    with pytest.raises(ValueError, match="shape mismatch"):
        m.matrix(0) @ m.matrix(0)


def test_functoriality_random_nested_triples(hexagon12):
    x, f = hexagon12
    rng = random.Random(31)
    for field in (GF2, QQ):
        for _ in range(25):
            a0 = rng.uniform(-0.5, 2.0)
            b0 = rng.uniform(a0 + 0.3, 3.5)
            grow1 = rng.uniform(0.05, 0.8)
            grow2 = rng.uniform(0.05, 0.8)
            va = OpenInterval(Fraction(a0), Fraction(b0))
            vb = OpenInterval(va.lo - Fraction(grow1), va.hi + Fraction(grow1))
            vc = OpenInterval(vb.lo - Fraction(grow2), vb.hi + Fraction(grow2))
            ha = homology(preimage_subcomplex(x, f, va), field)
            hb = homology(preimage_subcomplex(x, f, vb), field)
            hc = homology(preimage_subcomplex(x, f, vc), field)
            direct = induced_map(ha, hc)
            bc, ab = induced_map(hb, hc), induced_map(ha, hb)
            for n in range(direct.max_deg + 1):
                assert direct.matrix(n) == bc.matrix(n) @ ab.matrix(n)


def test_compose_with_identity(hexagon6):
    x, f = hexagon6
    a = homology(preimage_subcomplex(x, f, OpenInterval("0.8", "2.2")), GF2)
    b = homology(x, GF2)
    m = induced_map(a, b)
    id_a, id_b = induced_map(a, a), induced_map(b, b)
    for n in range(m.max_deg + 1):
        assert m.matrix(n) @ id_a.matrix(n) == m.matrix(n)
        assert id_b.matrix(n) @ m.matrix(n) == m.matrix(n)


def test_dimension_formula_cross_check():
    x, _ = assets.torus_seven_vertex()
    for field in (GF2, QQ):
        gvs = homology(x, field)
        b1 = boundary_matrix(x, 1, field)
        b2 = boundary_matrix(x, 2, field)
        assert gvs.dimension(1) == (b1.cols - rank(b1)) - rank(b2)


def test_euler_equals_alternating_betti_sum(hexagon6):
    for x, _ in (hexagon6, assets.sphere_tetrahedron(), assets.klein_bottle_grid(3)):
        gvs = homology(x, GF2)
        chi = sum((-1) ** n * gvs.dimension(n) for n in range(gvs.max_deg + 1))
        assert chi == euler_characteristic(x)


def test_dimensions_survive_relabeling():
    # reversed vertex enumeration permutes every simplex list; dimensions
    # must not notice
    x, _ = assets.torus_seven_vertex()
    relabeled = [tuple(sorted(6 - v for v in t)) for t in x.n_simplices(2)]
    y, _ = build_complex(relabeled, {v: v for v in range(7)})
    assert homology(y, GF2).dims() == homology(x, GF2).dims()
    assert homology(y, QQ).dims() == homology(x, QQ).dims()


def test_degree_zero_only_mode(hexagon6):
    x, _ = hexagon6
    gvs = homology(x, GF2, max_deg=0)
    assert gvs.dims() == (1,)
    assert gvs.dimension(1) == 0  # above max_deg reads as zero, not absent


def test_homology_builds_each_boundary_once(monkeypatch):
    import decomap.homology as engine

    x, _ = assets.standing_torus(8, 4)
    built = []

    def counting(k, n, field=GF2):
        built.append((k.cache_key(), n, field))
        return boundary_matrix(k, n, field)

    eliminated = []

    def counting_elim(elim, field):
        def run(*args, **kwargs):
            eliminated.append(field)
            return elim(*args, **kwargs)
        return run

    rank_passes = []

    def counting_rank(columns, n_rows, field):
        rank_passes.append(field)
        return exactlinalg.boundary_rank(columns, n_rows, field)

    monkeypatch.setattr(engine, "boundary_matrix", counting)
    monkeypatch.setattr(engine, "boundary_rank", counting_rank)
    monkeypatch.setattr(exactlinalg, "gf2_rref", counting_elim(exactlinalg.gf2_rref, GF2))
    monkeypatch.setattr(exactlinalg, "_rref_q", counting_elim(exactlinalg._rref_q, QQ))
    spaces = [homology(x, field) for field in (GF2, QQ)]
    # the dims are ready when homology() returns: ranks only, no dense
    # boundary and no elimination
    assert [h.dims() for h in spaces] == [(1, 2, 1)] * 2
    assert built == [] and eliminated == []
    assert set(rank_passes) == {GF2, QQ}
    passes = len(rank_passes)
    for h in spaces:
        for n in range(h.max_deg + 1):
            assert h.basis(n).cols == h.dimension(n)
    assert sorted(n for _, n, _ in built) == [1, 1, 2, 2]
    assert len(set(built)) == len(built)
    # one elimination per degree below the top: [boundary_{n+1} | Z_n]
    # gives degree n's basis and degree n+1's cycles at once
    assert eliminated == [GF2, GF2, QQ, QQ]
    # later reads of the dims run no rank pass again
    assert [h.dims() for h in spaces] == [(1, 2, 1)] * 2
    assert len(rank_passes) == passes


def two_elimination_bases(counts, boundary, field):
    """Bases of the engine's two-elimination form, kept as its reference:
    each degree's cycles from ``kernel_basis`` of its own boundary, then
    the pivot columns of [boundary_{n+1} | cycles] in the cycle block."""
    bases = []
    for n, cn in enumerate(counts):
        cycles = Matrix.identity(cn, field) if n == 0 else kernel_basis(boundary(n))
        bnd = boundary(n + 1)
        if cn == 0 or bnd.cols == 0:
            bases.append(cycles)
            continue
        piv = SpanSolver(Matrix.hstack([bnd, cycles])).pivots
        bases.append(cycles.take_cols([p - bnd.cols for p in piv if p >= bnd.cols]))
    return bases


def simplicial_boundary(x, field):
    k = x.full_handle()

    def boundary(n):
        if not k.simplex_ids.get(n):
            return Matrix.zeros(len(k.simplex_ids.get(n - 1, ())), 0, field)
        return boundary_matrix(k, n, field)
    return boundary


def assert_matches_reference(gvs, counts, boundary):
    expect = two_elimination_bases(counts, boundary, gvs.field)
    assert [gvs.basis(n) for n in range(gvs.max_deg + 1)] == expect


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=8, deadline=None)
def test_engine_bases_match_two_elimination_reference(seed):
    # simplicial homology in every degree and below the top one, and the
    # homology of the cellular cosheaf's total complex
    rng = random.Random(seed)
    for x, f, cover in (random_instance(rng, max_vertices=30), random_circle_instance(rng)):
        for field in (GF2, QQ):
            boundary = simplicial_boundary(x, field)
            counts = [len(x.simplices.get(n, ())) for n in range(x.max_dim + 1)]
            for top in range(x.max_dim + 1):
                assert_matches_reference(homology(x, field, top), counts[: top + 1], boundary)
            d = build_cellular_leray(x, f, cover, field)
            cc = CosheafChainComplex(d)
            assert_matches_reference(cosheaf_homology(d), cc.counts[:-1], cc.boundary)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=8, deadline=None)
def test_rank_dims_equal_basis_dims(seed):
    # the dims homology() reads off boundary ranks against the column
    # counts of the bases, which the engine builds independently of them
    rng = random.Random(seed)
    for x, f, _ in (random_instance(rng, max_vertices=30), random_circle_instance(rng)):
        lo, hi = float(f.min_value()), float(f.max_value())
        handles = [x.full_handle()]
        for _ in range(3):
            a = rng.uniform(lo - 0.5, hi)
            b = rng.uniform(a + 0.05, hi + 0.5)
            handles.append(preimage_subcomplex(x, f, OpenInterval(Fraction(a), Fraction(b))))
        for handle in handles:
            for field in (GF2, QQ):
                for top in range(x.max_dim + 1):
                    h = homology(handle, field, top)
                    assert h.dims() == tuple(h.basis(n).cols for n in range(top + 1))
                alternating = sum((-1) ** n * b for n, b in enumerate(h.dims()))
                assert alternating == euler_characteristic(handle)


def test_engine_hands_all_chains_on_past_a_degree_without_cells():
    # no vertex value in degree 0, one edge value: the edge is a cycle
    for field in (GF2, QQ):
        z = Matrix.zeros(0, 1, field)
        d = CosheafData((0, 1), ((0, 1),), {0: [0], 1: [0]}, {(0, 1): [1]},
                        {(0, 1): ([z], [z])}, field, 1)
        h = cosheaf_homology(d)
        assert h.dims() == (0, 1)
        assert h.basis(1) == Matrix.identity(1, field)
        assert_matches_reference(h, h.subcomplex.counts[:-1], h.subcomplex.boundary)

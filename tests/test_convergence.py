import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decomap import assets
from decomap.convergence import (
    NotNested,
    SolveFailure,
    continuous_extension,
    convergence_table,
    extension_map,
    interleaving_check,
    mv_isomorphism,
    oracle_union_homology,
    probe_intervals,
    sample_intervals,
    union_preimage,
    verify_commuting_square,
)
from decomap.cosheaf_homology import CosheafChainComplex, homology_of_restriction
from decomap.exactlinalg import GF2, QQ, Matrix, SpanSolver, rank
from decomap.homology import homology, induced_map
from decomap.interval_cover import Cover, OpenInterval, sub_nerve, thicken, uniform_cover
from decomap.leray_cosheaf import build_cellular_leray
from decomap.simplicial import ScalarField, boundary_matrix
from instancegen import random_circle_instance, random_instance, random_nested_pair

FINE = Cover([OpenInterval("-0.5", "1.2"), OpenInterval("0.8", "2.2"),
              OpenInterval("1.8", "3.5")])
COARSE = Cover([OpenInterval("-0.5", "2.1"), OpenInterval("0.9", "3.5")])
V_PROBE = OpenInterval("1.3", "1.7")


def test_extension_dims_coarse_vs_fine(hexagon6):
    # the two-cover comparison at V=(1.3,1.7): one class on the coarse
    # cover, two on the fine one
    x, f = hexagon6
    dc = build_cellular_leray(x, f, COARSE)
    df = build_cellular_leray(x, f, FINE)
    assert continuous_extension(dc, COARSE, V_PROBE).dimension(0) == 1
    assert continuous_extension(df, FINE, V_PROBE).dimension(0) == 2


def test_extension_global_identity(hexagon6, torus):
    x, f = hexagon6
    d = build_cellular_leray(x, f, FINE)
    assert continuous_extension(d, FINE, OpenInterval(-1, 4)).dims() == (1, 1)
    xt, ft = torus
    ct = uniform_cover(4, "0.45", 0, 3)
    dt = build_cellular_leray(xt, ft, ct)
    assert continuous_extension(dt, ct, OpenInterval(-1, 4)).dims() == (1, 2, 1)


def test_extension_empty_sub_nerve(hexagon6):
    x, f = hexagon6
    d = build_cellular_leray(x, f, FINE)
    assert continuous_extension(d, FINE, OpenInterval(50, 51)).dims() == (0, 0)


def test_extension_map_identity_and_rank(hexagon6):
    x, f = hexagon6
    d = build_cellular_leray(x, f, FINE)
    em = extension_map(d, FINE, V_PROBE, V_PROBE)
    assert em.matrix(0) == Matrix.identity(2, GF2)
    wide = extension_map(d, FINE, V_PROBE, OpenInterval(-1, 4))
    assert wide.matrix(0).shape == (1, 2) and rank(wide.matrix(0)) == 1


def test_extension_map_not_nested(hexagon6):
    x, f = hexagon6
    d = build_cellular_leray(x, f, FINE)
    with pytest.raises(NotNested):
        extension_map(d, FINE, OpenInterval(0, 2), OpenInterval(1, 3))


def test_extension_map_composition(hexagon6):
    x, f = hexagon6
    d = build_cellular_leray(x, f, FINE)
    v = V_PROBE
    rng = random.Random(5)
    for _ in range(15):
        a = Fraction(rng.uniform(0.0, 0.9))
        b = Fraction(rng.uniform(0.0, 0.9))
        va = thicken(v, a)
        vab = thicken(v, a + b)
        one = extension_map(d, FINE, v, va)
        two = extension_map(d, FINE, va, vab)
        direct = extension_map(d, FINE, v, vab)
        for n in range(d.max_deg + 1):
            assert two.matrix(n) @ one.matrix(n) == direct.matrix(n)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_extension_maps_compose_in_total_degree(seed):
    # on an instance with cosheaf H1 and on one without, over both fields:
    # U in V in W gives ext(V, W) @ ext(U, V) == ext(U, W), and ext(V, V)
    # is the identity in every degree; W is drawn, or holds everything
    rng = random.Random(seed)
    for x, f, cover in (random_circle_instance(rng), random_instance(rng, max_vertices=30)):
        v, w = random_nested_pair(rng, f)
        span = v.hi - v.lo
        u = OpenInterval(v.lo + span * Fraction(rng.random()) / 3,
                         v.hi - span * Fraction(rng.random()) / 3)
        everything = OpenInterval(f.min_value() - 1, f.max_value() + 1)
        for field in (GF2, QQ):
            d = build_cellular_leray(x, f, cover, field)
            uv = extension_map(d, cover, u, v)
            for top in (w, everything):
                assert extension_map(d, cover, v, top) @ uv == extension_map(d, cover, u, top)
            for a in (v, everything):
                ident = extension_map(d, cover, a, a)
                assert ident.matrices == [
                    Matrix.identity(ident.source.dimension(n), field)
                    for n in range(d.max_deg + 1)
                ]


def test_oracle_union_homology(hexagon6):
    x, f = hexagon6
    d = build_cellular_leray(x, f, FINE)
    kv = sub_nerve(FINE, d, V_PROBE)
    assert oracle_union_homology(x, f, FINE, kv).dims() == (2, 0)
    assert oracle_union_homology(x, f, FINE, d).dims() == (1, 1)
    kempty = sub_nerve(FINE, d, OpenInterval(50, 51))
    assert oracle_union_homology(x, f, FINE, kempty).dims() == (0, 0)


def test_mv_witness_single_vertex_is_plain_inclusion(hexagon6):
    x, f = hexagon6
    d = build_cellular_leray(x, f, FINE)
    kv = sub_nerve(FINE, d, V_PROBE)
    wit = mv_isomorphism(x, f, FINE, d, kv)
    assert all(wit.is_isomorphism(n) for n in range(d.max_deg + 1))
    assert wit.matrix(0).shape == (2, 2)


def test_mv_witness_degree_one_fundamental_cycle(hexagon6):
    # the zig-zag glues the kernel class into a generator of H1 of the
    # hexagon: expressed in the basis (sum of all six edges) it must be [1]
    x, f = hexagon6
    d = build_cellular_leray(x, f, FINE)
    wit = mv_isomorphism(x, f, FINE, d, d)
    assert wit.source.dims() == (1, 1)
    assert wit.matrix(1) == Matrix.from_rows([[1]], GF2)
    assert wit.is_isomorphism(1)
    big = union_preimage(x, f, FINE, d)
    assert homology(big, GF2).basis(1) == Matrix.from_rows([[1]] * 6, GF2)


def test_mv_witness_refuses_a_class_that_bounds_nothing(hexagon6):
    # with the maps out of one overlap zeroed, the overlap's classes join
    # the cosheaf's H1, but their chains are points, which bound nothing in
    # a vertex preimage
    x, f = hexagon6
    d = build_cellular_leray(x, f, FINE)
    e = d.edges[0]
    d.maps[e] = tuple([Matrix.zeros(m.rows, m.cols, GF2) for m in mats] for mats in d.maps[e])
    with pytest.raises(SolveFailure):
        mv_isomorphism(x, f, FINE, d, d)


def test_commuting_square_trivial_and_probe(hexagon6):
    x, f = hexagon6
    assert verify_commuting_square(x, f, FINE, V_PROBE, V_PROBE).ok
    rep = verify_commuting_square(x, f, FINE, V_PROBE, OpenInterval(-1, 4))
    assert rep.ok
    assert rep.degrees[0].left_rank == 1 and rep.degrees[0].right_rank == 1


def test_commuting_square_random_instances():
    rng = random.Random(97)
    for _ in range(40):
        x, f, cover = random_instance(rng, max_vertices=25)
        v, w = random_nested_pair(rng, f)
        assert verify_commuting_square(x, f, cover, v, w).ok


def test_circle_instances_witness_h1_and_commute():
    # every circle instance has cosheaf H1, so the zig-zag (H1) part of the
    # witness runs on the full nerve and on every interval that holds the
    # whole circle
    rng = random.Random(31)
    zig_zags = 0
    for _ in range(8):
        x, f, cover = random_circle_instance(rng)
        everything = OpenInterval(f.min_value() - 1, f.max_value() + 1)
        pairs = [random_nested_pair(rng, f) for _ in range(3)]
        pairs += [(v, everything) for v, _ in pairs[:2]] + [(everything, everything)]
        for field in (GF2, QQ):
            d = build_cellular_leray(x, f, cover, field)
            assert any(h1_part(CosheafChainComplex(d), n) for n in range(1, d.max_deg + 2))
            for v, w in pairs:
                for k in (sub_nerve(cover, d, v), sub_nerve(cover, d, w)):
                    wit = mv_isomorphism(x, f, cover, d, k)
                    assert all(wit.is_isomorphism(n) for n in range(d.max_deg + 1))
                    zig_zags += h1_part(wit.source.subcomplex, 1) > 0
                assert verify_commuting_square(x, f, cover, v, w, d=d).ok
    assert zig_zags >= 16


def h1_part(cc, n):
    """Dimension of the H1 part of total degree n of the total complex
    *cc*: its edge rows in degree n, less the rank of its boundary."""
    return sum(map(len, cc.cells[n][1].values())) - rank(cc.boundary(n))


def reference_mv_matrices(x, f, c, d, k_v, solvers):
    """The MV witness assembled independently of ``mv_isomorphism``: one
    induced map per nerve vertex for the basis's vertex rows, and a solve
    against the bare boundary of each vertex preimage (factorized once per
    vertex and degree in *solvers*) for the zig-zag of its edge rows."""
    hom = homology_of_restriction(d, k_v.vertices, k_v.edges)
    big = union_preimage(x, f, c, k_v)
    target = homology(big, d.field, d.max_deg)
    mats = []
    for n in range(d.max_deg + 1):
        basis = hom.basis(n)
        vertex_rows, edge_rows = hom.subcomplex.cells[n]
        mat = Matrix.zeros(target.dimension(n), basis.cols, d.field)
        for i, rows in vertex_rows.items():
            if rows:
                into_union = induced_map(d.vertex_values[i], target).matrix(n)
                mat = mat + into_union @ basis.take_rows(rows)
        if n >= 1 and h1_part(hom.subcomplex, n):
            per_vertex = {}
            for e, rows in edge_rows.items():
                z = d.edge_values[e].basis(n - 1) @ basis.take_rows(rows)
                for i, zi in zip(e, (-z, z)):
                    zi = d.vertex_handles[i].reindex(zi, d.edge_handles[e], n - 1)
                    per_vertex[i] = per_vertex[i] + zi if i in per_vertex else zi
            glued = Matrix.zeros(len(big.simplex_ids.get(n, ())), basis.cols, d.field)
            for i, y in per_vertex.items():
                if y.is_zero():
                    continue
                if (i, n) not in solvers:
                    bnd = boundary_matrix(d.vertex_handles[i], n, d.field)
                    solvers[i, n] = SpanSolver(bnd)
                ci = solvers[i, n].solve(y)
                glued = glued + big.reindex(ci, d.vertex_handles[i], n)
            mat = mat + target.express_cycles(n, glued)
        mats.append(mat)
    return mats


def test_mv_witness_matches_the_reference_assembly():
    rng = random.Random(53)
    population = [random_instance(rng) for _ in range(6)]
    population += [random_circle_instance(rng) for _ in range(4)]
    for x, f in (assets.hexagon_circle(4), assets.standing_torus(16, 8)):
        population.append((x, f, uniform_cover(4, "0.45", 0, 3)))
    zig_zags = 0
    for x, f, cover in population:
        for field in (GF2, QQ):
            d = build_cellular_leray(x, f, cover, field)
            subs = [d]
            subs += [sub_nerve(cover, d, v) for v in sample_intervals(cover, 2, 1)]
            solvers = {}
            for k in subs:
                ref = reference_mv_matrices(x, f, cover, d, k, solvers)
                assert mv_isomorphism(x, f, cover, d, k).matrices == ref
                cc = homology_of_restriction(d, k.vertices, k.edges).subcomplex
                zig_zags += any(h1_part(cc, n) for n in range(1, d.max_deg + 2))
    assert zig_zags >= 12


def test_interleaving_single_element_cover(hexagon6):
    x, f = hexagon6
    rep = interleaving_check(x, f, Cover([OpenInterval(-1, 4)]), samples=10, seed=1)
    assert rep.verdict


def test_interleaving_needs_a_sample(hexagon6):
    # a verdict over no sample would pass vacuously
    x, f = hexagon6
    for samples in (0, -3):
        with pytest.raises(ValueError, match="at least one sample"):
            interleaving_check(x, f, FINE, samples=samples)


def test_interleaving_hexagon_fine_and_coarse(hexagon6):
    x, f = hexagon6
    fine = interleaving_check(x, f, FINE, samples=20, seed=42)
    assert fine.verdict and fine.eps == Fraction(17, 10)
    coarse = interleaving_check(x, f, COARSE, samples=20, seed=42)
    assert coarse.verdict and coarse.eps == Fraction(26, 10)


def test_interleaving_takes_the_field_of_a_given_cosheaf(hexagon6):
    x, f = hexagon6
    d = build_cellular_leray(x, f, FINE, QQ)
    assert interleaving_check(x, f, FINE, samples=5, seed=3, d=d).verdict
    assert interleaving_check(x, f, FINE, samples=5, seed=3, field=QQ, d=d).verdict
    with pytest.raises(ValueError, match="field"):
        interleaving_check(x, f, FINE, samples=5, seed=3, field=GF2, d=d)


def test_commuting_square_takes_the_field_of_a_given_cosheaf(hexagon6):
    x, f = hexagon6
    d = build_cellular_leray(x, f, FINE, QQ)
    w = OpenInterval(-1, 4)
    assert verify_commuting_square(x, f, FINE, V_PROBE, w, d=d).ok
    assert verify_commuting_square(x, f, FINE, V_PROBE, w, field=QQ, d=d).ok
    with pytest.raises(ValueError, match="field"):
        verify_commuting_square(x, f, FINE, V_PROBE, w, field=GF2, d=d)


def test_checks_take_the_max_deg_of_a_given_cosheaf(hexagon6):
    x, f = hexagon6
    d = build_cellular_leray(x, f, FINE)
    assert d.max_deg == 1
    w = OpenInterval(-1, 4)
    rep = verify_commuting_square(x, f, FINE, V_PROBE, w, max_deg=1, d=d)
    assert len(rep.degrees) == 2
    with pytest.raises(ValueError, match="max_deg"):
        verify_commuting_square(x, f, FINE, V_PROBE, w, max_deg=0, d=d)
    with pytest.raises(ValueError, match="max_deg"):
        interleaving_check(x, f, FINE, samples=2, max_deg=0, d=d)


def test_a_given_cosheaf_refuses_another_cover():
    x, f = assets.hexagon_circle(4)
    built_over = uniform_cover(3, "0.45", 0, 3)
    d = build_cellular_leray(x, f, built_over)
    other = Cover([OpenInterval(-1, "0.9"), OpenInterval("0.7", "2.5"),
                   OpenInterval("2.2", 4)])
    w = OpenInterval(-1, 4)
    with pytest.raises(ValueError, match="cover"):
        interleaving_check(x, f, other, samples=6, seed=1, d=d)
    with pytest.raises(ValueError, match="cover"):
        verify_commuting_square(x, f, other, V_PROBE, w, d=d)
    with pytest.raises(ValueError, match="cover"):
        continuous_extension(d, other, V_PROBE)
    with pytest.raises(ValueError, match="cover"):
        extension_map(d, other, V_PROBE, w)
    with pytest.raises(ValueError, match="cover"):
        mv_isomorphism(x, f, other, d, d)
    # an equal cover that is another object is the same cover
    same = uniform_cover(3, "0.45", 0, 3)
    assert interleaving_check(x, f, same, samples=6, seed=1, d=d).verdict
    assert verify_commuting_square(x, f, same, V_PROBE, w, d=d).ok


def test_a_given_cosheaf_refuses_another_complex_or_function():
    # the preimages of another complex, or of another function, name
    # simplices that the cosheaf's witnesses do not have
    x, f = assets.hexagon_circle(1)
    d = build_cellular_leray(x, f, FINE)
    x2, f2 = assets.hexagon_circle(2)
    nudged = ScalarField({v: y + Fraction(1, 7) * (v % 2) for v, y in f.values.items()})
    w = OpenInterval(-1, 4)
    for other_x, other_f, name in ((x2, f2, "complex"), (x, nudged, "function")):
        with pytest.raises(ValueError, match=name):
            verify_commuting_square(other_x, other_f, FINE, V_PROBE, w, d=d)
        with pytest.raises(ValueError, match=name):
            interleaving_check(other_x, other_f, FINE, samples=4, seed=1, d=d)
        with pytest.raises(ValueError, match=name):
            mv_isomorphism(other_x, other_f, FINE, d, d)
    assert d.complex is x and d.function is f
    assert verify_commuting_square(x, f, FINE, V_PROBE, w, d=d).ok


def test_extension_dims_agree_over_gf2_and_q():
    # the two fields run through different reducers, and these inputs are
    # torsion-free, so equal dims are an independent cross-check
    for (x, f), cover in [
        (assets.hexagon_circle(4), uniform_cover(4, "0.45", 0, 3)),
        (assets.standing_torus(16, 8), uniform_cover(4, "0.45", 0, 3)),
    ]:
        d2 = build_cellular_leray(x, f, cover, GF2)
        dq = build_cellular_leray(x, f, cover, QQ)
        for v in probe_intervals(x, f, 12, 0):
            dims = continuous_extension(d2, cover, v).dims()
            assert dims == continuous_extension(dq, cover, v).dims()


def test_sample_plan_is_deterministic(hexagon6):
    a = sample_intervals(FINE, 20, 7)
    b = sample_intervals(FINE, 20, 7)
    assert a == b and len(a) == 20


def test_probe_intervals_avoid_critical_values(hexagon96):
    x, f = hexagon96
    probes = probe_intervals(x, f, 20, 3)
    assert len(probes) == 20
    assert probes == probe_intervals(x, f, 20, 3)
    for p in probes:
        for c in (0, 3):
            # endpoints keep a margin from the critical values
            assert abs(p.lo - c) > Fraction(1, 10)
            assert abs(p.hi - c) > Fraction(1, 10)


def test_convergence_table_hexagon(hexagon96):
    x, f = hexagon96
    table = convergence_table(x, f, 2, "0.45", 3, samples=10, seed=42)
    assert len(table.rows) == 3
    res = [r.resolution for r in table.rows]
    assert res[0] > res[1] > res[2]
    counts = [r.mismatch_count for r in table.rows if r.admissible]
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert counts[-1] == 0
    assert all(r.interleaving_pass for r in table.rows if r.admissible)


def test_convergence_table_single_level(hexagon6):
    x, f = hexagon6
    table = convergence_table(x, f, 1, "0.4", 1, samples=5, seed=0)
    assert len(table.rows) == 1
    assert table.rows[0].cover_size == 1
    assert table.rows[0].admissible

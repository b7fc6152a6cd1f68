import random
from fractions import Fraction

import pytest

from decomap import assets
from decomap.convergence import (
    NotNested,
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
from decomap.exactlinalg import GF2, QQ, Matrix, rank
from decomap.homology import homology
from decomap.interval_cover import Cover, OpenInterval, sub_nerve, thicken, uniform_cover
from decomap.leray_cosheaf import build_cellular_leray
from instancegen import random_instance, random_nested_pair

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


def test_oracle_union_homology(hexagon6):
    x, f = hexagon6
    d = build_cellular_leray(x, f, FINE)
    kv = sub_nerve(FINE, d.nerve, V_PROBE)
    assert oracle_union_homology(x, f, FINE, kv).dims() == (2, 0)
    kfull = d.full_subnerve()
    assert oracle_union_homology(x, f, FINE, kfull).dims() == (1, 1)
    kempty = sub_nerve(FINE, d.nerve, OpenInterval(50, 51))
    assert oracle_union_homology(x, f, FINE, kempty).dims() == (0, 0)


def test_mv_witness_single_vertex_is_plain_inclusion(hexagon6):
    x, f = hexagon6
    d = build_cellular_leray(x, f, FINE)
    kv = sub_nerve(FINE, d.nerve, V_PROBE)
    wit = mv_isomorphism(x, f, FINE, d, kv)
    assert all(wit.is_isomorphism(n) for n in range(d.max_deg + 1))
    assert wit.matrix(0).shape == (2, 2)


def test_mv_witness_degree_one_fundamental_cycle(hexagon6):
    # the zig-zag glues the kernel class into a generator of H1 of the
    # hexagon: expressed in the basis (sum of all six edges) it must be [1]
    x, f = hexagon6
    d = build_cellular_leray(x, f, FINE)
    kfull = d.full_subnerve()
    wit = mv_isomorphism(x, f, FINE, d, kfull)
    assert wit.source.dims() == (1, 1)
    assert wit.matrix(1) == Matrix.from_rows([[1]], GF2)
    assert wit.is_isomorphism(1)
    big = union_preimage(x, f, FINE, kfull)
    assert homology(big, GF2).basis(1) == Matrix.from_rows([[1]] * 6, GF2)


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


def test_interleaving_single_element_cover(hexagon6):
    x, f = hexagon6
    rep = interleaving_check(x, f, Cover([OpenInterval(-1, 4)]), samples=10, seed=1)
    assert rep.verdict


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

import random
from fractions import Fraction

import pytest

from decomap.interval_cover import (
    Cover,
    InvalidParams,
    NerveNotOneDimensional,
    OpenInterval,
    admissible,
    merge_intervals,
    nerve,
    refine,
    resolution,
    sub_nerve,
    thicken,
    uniform_cover,
    union_support,
)


def iv(a, b):
    return OpenInterval(Fraction(str(a)), Fraction(str(b)))


def test_open_interval_validation():
    with pytest.raises(InvalidParams):
        OpenInterval(1, 1)
    assert iv(0, 1).contains(Fraction(1, 2))
    assert not iv(0, 1).contains(0)  # strict


def test_nerve_two_overlapping():
    nv = nerve(Cover([iv(0, 2), iv(1, 3)]))
    assert nv.vertices == (0, 1) and nv.edges == ((0, 1),)


def test_nerve_disjoint():
    nv = nerve(Cover([iv(0, 1), iv(2, 3)]))
    assert nv.edges == ()


def test_nerve_touching_is_not_overlap():
    nv = nerve(Cover([iv(0, 1), iv(1, 2)]))
    assert nv.edges == ()


def test_nerve_triple_overlap_rejected():
    with pytest.raises(NerveNotOneDimensional) as exc:
        nerve(Cover([iv(0, 3), iv(1, 4), iv(2, 5)]))
    assert exc.value.triple == (0, 1, 2)


def test_resolution():
    assert resolution(Cover([iv(0, 2), iv(1, 3)])) == 2
    assert resolution(Cover([iv("0.25", "0.75")])) == Fraction(1, 2)


def test_uniform_cover_basics():
    c = uniform_cover(4, Fraction(3, 10), 0, 1)
    base = Fraction(1) / (4 - 3 * Fraction(3, 10))
    assert {e.length for e in c.elements} == {base}
    assert resolution(c) == base
    assert c.covers_range(0, 1)
    assert c[0].contains(0) and c[3].contains(1)
    nv = nerve(c)
    assert nv.edges == ((0, 1), (1, 2), (2, 3))


def test_uniform_cover_single_element():
    c = uniform_cover(1, "0.4", 0, 3)
    assert len(c) == 1
    assert c[0].contains(0) and c[0].contains(3)


def test_uniform_cover_two_elements_length():
    # n=2, g=1/2 over (0,3): inner length solves 2L - L/2 = 3
    c = uniform_cover(2, Fraction(1, 2), 0, 3)
    inner = Fraction(3) / (2 - Fraction(1, 2))
    assert c[0].length == inner and c[1].length == inner
    assert c.covers_range(0, 3)


def test_uniform_cover_invalid():
    for bad in [(0, "0.3", 0, 1), (3, "0.3", 1, 1), (3, 0, 0, 1), (3, 1, 0, 1)]:
        with pytest.raises(InvalidParams):
            uniform_cover(*bad)


def test_uniform_cover_path_nerve_any_params():
    rng = random.Random(9)
    for _ in range(25):
        n = rng.randint(1, 12)
        g = Fraction(rng.uniform(0.05, 0.49))
        c = uniform_cover(n, g, 0, rng.uniform(0.5, 10))
        nv = nerve(c)
        assert nv.edges == tuple((i, i + 1) for i in range(n - 1))


def test_sub_nerve_examples():
    c = Cover([iv(0, 2), iv(1, 3)])
    nv = nerve(c)
    k = sub_nerve(c, nv, iv("0.5", "1.5"))
    assert k.vertices == (0, 1) and k.edges == ((0, 1),)
    k2 = sub_nerve(c, nv, iv("2.5", "2.9"))
    assert k2.vertices == (1,) and k2.edges == ()
    assert sub_nerve(c, nv, iv(5, 6)).is_empty()


def test_sub_nerve_face_closed_and_monotone():
    c = uniform_cover(6, "0.4", 0, 3)
    nv = nerve(c)
    rng = random.Random(2)
    for _ in range(40):
        a = Fraction(rng.uniform(-0.5, 3))
        b = Fraction(rng.uniform(float(a) + 0.01, 3.6))
        k = sub_nerve(c, nv, OpenInterval(a, b))
        vset = set(k.vertices)
        for i, j in k.edges:
            assert i in vset and j in vset
        k_wider = sub_nerve(c, nv, OpenInterval(a - 1, b + 1))
        assert set(k.vertices) <= set(k_wider.vertices)
        assert set(k.edges) <= set(k_wider.edges)


def test_union_support():
    c = Cover([iv(0, 2), iv(1, 3)])
    nv = nerve(c)
    k = sub_nerve(c, nv, iv("0.5", "2.5"))
    assert union_support(c, k) == [iv(0, 3)]
    c3 = Cover([iv(0, 1), iv(2, 3), iv(4, 5)])
    nv3 = nerve(c3)
    k3 = sub_nerve(c3, nv3, iv("0.5", "4.5"))
    assert union_support(c3, k3) == [iv(0, 1), iv(2, 3), iv(4, 5)]
    assert union_support(c, sub_nerve(c, nv, iv(7, 8))) == []


def test_merge_touching_open_intervals_stay_separate():
    assert merge_intervals([iv(0, 1), iv(1, 2)]) == [iv(0, 1), iv(1, 2)]
    assert merge_intervals([iv(0, "1.5"), iv(1, 2)]) == [iv(0, 2)]


def test_admissible_hexagon_covers(hexagon6):
    x, f = hexagon6
    ok = admissible(Cover([iv("-0.5", "1.2"), iv("0.8", "2.2"), iv("1.8", "3.5")]), x, f)
    assert ok.ok and ok.offender is None
    bad = admissible(
        Cover([iv("-0.5", "0.8"), iv("0.5", "1.6"), iv("1.4", "2.6"), iv("2.2", "3.5")]),
        x, f,
    )
    assert not bad.ok and bad.offender == (0, 1)
    assert admissible(Cover([iv(-1, 4)]), x, f).ok


def test_thicken():
    v = iv(0, 1)
    assert thicken(v, 0) == v
    assert thicken(v, "0.5") == iv("-0.5", "1.5")
    a, b = Fraction(1, 3), Fraction(1, 7)
    assert thicken(thicken(v, a), b) == thicken(v, a + b)
    with pytest.raises(InvalidParams):
        thicken(v, -1)


def test_refine():
    covers = refine(2, "0.3", 0, 1, 3)
    assert [len(c) for c in covers] == [2, 4, 8]
    res = [resolution(c) for c in covers]
    assert res[0] > res[1] > res[2]
    for c in covers:
        nerve(c)  # still one-dimensional
    with pytest.raises(InvalidParams):
        refine(2, "0.3", 0, 1, 0)


def test_containment_chain_property(hexagon6):
    # V inside the support is covered by the K_V union, which sits in V^res
    x, f = hexagon6
    c = uniform_cover(3, "0.45", 0, 3)
    nv = nerve(c)
    res = resolution(c)
    support = merge_intervals(c.elements)
    rng = random.Random(13)
    for _ in range(60):
        a = Fraction(rng.uniform(-1, 3.5))
        b = Fraction(rng.uniform(float(a) + 0.01, 4.2))
        v = OpenInterval(a, b)
        k = sub_nerve(c, nv, v)
        pieces = union_support(c, k)
        v_cap = [p for p in (v.intersect(s) for s in support) if p is not None]
        for p in v_cap:
            assert any(q.lo <= p.lo and p.hi <= q.hi for q in pieces)
        ve = thicken(v, res)
        for q in pieces:
            assert ve.lo <= q.lo and q.hi <= ve.hi


def test_nested_cover_elements_warn_not_error():
    c = Cover([iv(0, 3), iv(1, 2)])
    assert nerve(c).edges == ((0, 1),)

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from decomap import gf2kernel as gk
from decomap.exactlinalg import GF2, kernel_basis
from decomap.homology import homology
from decomap.simplicial import boundary_matrix, euler_characteristic


def dense_rref(a, n_pivot_cols=None):
    """Reference Gauss-Jordan over GF(2) on a uint8 array.

    Leftmost eligible column, topmost row with a one in it; the pivot row
    is then XORed into every other row with a one in that column.
    """
    a = np.array(a, dtype=np.uint8)
    m, n = a.shape
    k = n if n_pivot_cols is None else n_pivot_cols
    pivots = []
    for c in range(k):
        r = len(pivots)
        if r == m:
            break
        hits = np.flatnonzero(a[r:, c])
        if hits.size == 0:
            continue
        p = r + int(hits[0])
        a[[r, p]] = a[[p, r]]
        rows = np.flatnonzero(a[:, c])
        a[rows[rows != r]] ^= a[r]
        pivots.append(c)
    return a, pivots


@st.composite
def bit_matrices(draw):
    m = draw(st.integers(min_value=0, max_value=10))
    n = draw(st.integers(min_value=0, max_value=12))
    bits = draw(st.lists(st.integers(0, 1), min_size=m * n, max_size=m * n))
    return np.array(bits, dtype=np.uint8).reshape(m, n)


def test_pack_roundtrip():
    rng = np.random.default_rng(5)
    for _ in range(40):
        m, n = rng.integers(0, 70, 2)
        a = rng.integers(0, 2, (m, n)).astype(np.uint8)
        assert np.array_equal(gk.unpack_rows(gk.pack_rows(a), n), a)


@given(bit_matrices(), st.data())
@settings(max_examples=300, deadline=None)
def test_rref_matches_dense_reference(a, data):
    n = a.shape[1]
    k = data.draw(st.one_of(st.none(), st.integers(0, n)))
    before = a.copy()
    red, piv = gk.gf2_rref(a, k)
    assert np.array_equal(a, before)
    expect, expect_piv = dense_rref(a, k)
    assert piv == expect_piv
    assert red.dtype == np.uint8 and red.shape == a.shape
    if k is None or k == n:
        assert np.array_equal(red, expect)
    else:
        # past the pivot bound the rows are one basis among many: require
        # the unique pivot block and the same row space as the input
        assert np.array_equal(red[:, :k], expect[:, :k])
        assert np.array_equal(dense_rref(red)[0], dense_rref(a)[0])


@given(bit_matrices())
@settings(max_examples=150, deadline=None)
def test_augmented_rref_gives_change_of_basis(a):
    m, n = a.shape
    aug = np.hstack([a, np.eye(m, dtype=np.uint8)])
    red, piv = gk.gf2_rref(aug, n)
    assert piv == dense_rref(a)[1]
    reduced, change = red[:, :n], red[:, n:]
    assert np.array_equal(reduced, dense_rref(a)[0])
    assert np.array_equal(gk.gf2_matmul(change, a), reduced)
    assert len(dense_rref(change)[1]) == m  # change of basis is invertible


def test_torus_boundaries_match_reference(torus):
    x, _ = torus
    for n in (1, 2):
        d = boundary_matrix(x, n, GF2)
        expect, expect_piv = dense_rref(d.data)
        red, piv = gk.gf2_rref(d.data)
        assert piv == expect_piv
        assert np.array_equal(red, expect)
        free = sorted(set(range(d.cols)) - set(piv))
        z = kernel_basis(d)
        assert z.shape == (d.cols, len(free))
        assert np.array_equal(z.data[free], np.eye(len(free), dtype=np.uint8))
        assert np.array_equal(z.data[piv], expect[: len(piv)][:, free])
    h = homology(x, GF2)
    assert h.dims() == (1, 2, 1)
    assert euler_characteristic(x) == sum((-1) ** i * b for i, b in enumerate(h.dims())) == 0


def test_rref_shape_and_pivots():
    a = np.array([[1, 1], [1, 1]], dtype=np.uint8)
    red, piv = gk.gf2_rref(a)
    assert piv == [0]
    assert np.array_equal(red, np.array([[1, 1], [0, 0]], dtype=np.uint8))


def test_pivot_columns_respect_bound():
    # pivots may only come from the first n_pivot_cols columns
    a = np.array([[0, 1], [0, 1]], dtype=np.uint8)
    _, piv = gk.gf2_rref(a, n_pivot_cols=1)
    assert piv == []


def test_matmul_parity_is_exact():
    rng = np.random.default_rng(3)
    # 600 summands overflow uint8 many times over; parity must survive
    a = rng.integers(0, 2, (4, 600)).astype(np.uint8)
    b = rng.integers(0, 2, (600, 5)).astype(np.uint8)
    expect = (a.astype(np.int64) @ b.astype(np.int64)) % 2
    assert np.array_equal(gk.gf2_matmul(a, b), expect.astype(np.uint8))

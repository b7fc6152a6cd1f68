from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decomap import assets
from decomap.exactlinalg import (
    GF2,
    QQ,
    Matrix,
    NotInSpan,
    _rref_q,
    cokernel_basis,
    invert,
    kernel_basis,
    rank,
    row_reduce,
    solve_in_span,
)
from decomap.homology import homology


def test_row_reduce_identity():
    m = Matrix.identity(2, GF2)
    red, change, piv = row_reduce(m)
    assert red == m and piv == [0, 1]
    assert change @ m == red


def test_row_reduce_rank_one_gf2():
    m = Matrix.from_rows([[1, 1], [1, 1]], GF2)
    red, change, piv = row_reduce(m)
    assert red == Matrix.from_rows([[1, 1], [0, 0]], GF2)
    assert piv == [0]
    assert change @ m == red


def test_row_reduce_proportional_rows_q():
    m = Matrix.from_rows([[2, 4], [1, 2]], QQ)
    red, change, piv = row_reduce(m)
    assert red == Matrix.from_rows([[1, 2], [0, 0]], QQ)
    assert piv == [0]
    assert change @ m == red


def test_rank_basics():
    assert rank(Matrix.zeros(3, 3, GF2)) == 0
    assert rank(Matrix.identity(4, QQ)) == 4
    assert rank(Matrix.from_rows([[1, 1], [1, 1]], GF2)) == 1


def test_kernel_basics():
    assert kernel_basis(Matrix.identity(3, GF2)).cols == 0
    z = kernel_basis(Matrix.zeros(0, 2, QQ))
    assert z.cols == 2
    k = kernel_basis(Matrix.from_rows([[1, 1]], GF2))
    assert k == Matrix.from_rows([[1], [1]], GF2)


def test_solve_identity_returns_target():
    t = Matrix.column([3, Fraction(1, 2)], QQ)
    assert solve_in_span(Matrix.identity(2, QQ), t) == t


def test_solve_not_in_span():
    with pytest.raises(NotInSpan):
        solve_in_span(
            Matrix.from_rows([[1], [1]], QQ), Matrix.column([1, 0], QQ)
        )


def test_solve_gf2_two_generators():
    # generators are the columns (1,0) and (1,1); target (0,1) needs both
    gens = Matrix.from_rows([[1, 1], [0, 1]], GF2)
    target = Matrix.column([0, 1], GF2)
    coeffs = solve_in_span(gens, target)
    assert coeffs == Matrix.column([1, 1], GF2)
    assert gens @ coeffs == target


def test_cokernel_full_subspace():
    reps, proj = cokernel_basis(Matrix.identity(3, GF2), 3)
    assert reps.cols == 0 and proj.rows == 0


def test_cokernel_zero_subspace():
    reps, proj = cokernel_basis(Matrix.zeros(3, 0, QQ), 3)
    assert reps == Matrix.identity(3, QQ)
    assert proj == Matrix.identity(3, QQ)


def test_cokernel_diagonal_line_gf2():
    sub = Matrix.from_rows([[1], [1]], GF2)
    reps, proj = cokernel_basis(sub, 2)
    assert reps.cols == 1
    assert (proj @ sub).is_zero()
    assert proj @ reps == Matrix.identity(1, GF2)


def test_invert():
    m = Matrix.from_rows([[1, 1], [0, 1]], GF2)
    assert m @ invert(m) == Matrix.identity(2, GF2)
    with pytest.raises(NotInSpan):
        invert(Matrix.zeros(2, 2, QQ))


def test_q_numpy_integers_do_not_wrap():
    big = 3**39  # fits int64, its square does not
    m = Matrix(np.array([[big, 1], [1, big]]), QQ)
    assert (m @ m).entry(0, 0) == big**2 + 1


def test_q_float_entries_are_exact():
    assert Matrix([[0.1]], QQ).entry(0, 0) == Fraction(0.1)


entries = st.integers(min_value=-4, max_value=4)


@st.composite
def matrices(draw):
    field = draw(st.sampled_from([GF2, QQ]))
    m = draw(st.integers(min_value=0, max_value=7))
    n = draw(st.integers(min_value=0, max_value=7))
    rows = draw(
        st.lists(
            st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m
        )
    )
    if m == 0:
        return Matrix.zeros(0, n, field)
    return Matrix.from_rows(rows, field)


@given(matrices())
@settings(max_examples=120, deadline=None)
def test_rank_nullity(m):
    assert rank(m) + kernel_basis(m).cols == m.cols


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_row_reduce_idempotent_and_consistent(m):
    red, change, piv = row_reduce(m)
    assert change @ m == red
    assert row_reduce(red).reduced == red
    assert piv == sorted(piv)
    assert len(set(piv)) == len(piv)


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_kernel_columns_annihilated(m):
    k = kernel_basis(m)
    if m.rows and k.cols:
        assert (m @ k).is_zero()


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_cokernel_projection_rank(m):
    if m.rows == 0:
        return
    reps, proj = cokernel_basis(m, m.rows)
    assert rank(proj) == m.rows - rank(m)
    if m.cols:
        assert (proj @ m).is_zero()
    if reps.cols:
        assert proj @ reps == Matrix.identity(reps.cols, m.field)


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_solve_round_trip_on_column_space(m):
    if m.cols == 0 or m.rows == 0:
        return
    # any column of m is trivially in its span
    target = m.col(0)
    coeffs = solve_in_span(m, target)
    assert m @ coeffs == target


def dense_rref_q(data, n_pivot_cols):
    """Reference Gauss-Jordan over Q on a Fraction object array, in place.

    Leftmost eligible column, topmost nonzero row swapped into place, the
    pivot row divided by its pivot, then subtracted from every other row
    with a nonzero in that column; every entry is visited.
    """
    m, n = data.shape
    pivots = []
    r = 0
    for c in range(n_pivot_cols):
        if r >= m:
            break
        p = -1
        for i in range(r, m):
            if data[i, c] != 0:
                p = i
                break
        if p < 0:
            continue
        if p != r:
            data[[r, p]] = data[[p, r]]
        pv = data[r, c]
        if pv != 1:
            data[r, :] = data[r, :] / pv
        for i in range(m):
            if i != r and data[i, c] != 0:
                data[i, :] = data[i, :] - data[i, c] * data[r, :]
        pivots.append(c)
        r += 1
    return pivots


q_entries = st.builds(
    Fraction, st.integers(min_value=-3, max_value=3), st.sampled_from([1, 1, 1, 2, 3])
)


@st.composite
def q_arrays(draw, rows=None, max_cols=8):
    """Fraction object arrays with non-unit pivots and dependent rows: some
    rows are combinations of earlier ones, and rows come in shuffled."""
    n = draw(st.integers(min_value=0, max_value=max_cols))
    m = draw(st.integers(min_value=0, max_value=8)) if rows is None else rows
    free = draw(st.integers(min_value=min(m, 1), max_value=m))
    flat = draw(st.lists(q_entries, min_size=free * n, max_size=free * n))
    out = np.empty((m, n), dtype=object)
    out[:free] = np.array(flat, dtype=object).reshape(free, n)
    for i in range(free, m):
        a, b, s, t = draw(st.tuples(
            st.integers(0, i - 1), st.integers(0, i - 1), q_entries, q_entries))
        out[i] = s * out[a] + t * out[b]
    return out[draw(st.permutations(range(m)))] if m else out


def same_q(a, b):
    """Equal shapes and values, and every entry of *a* a Fraction."""
    return (
        a.shape == b.shape
        and all(type(x) is Fraction for x in a.flat)
        and all(x == y for x, y in zip(a.flat, b.flat))
    )


@given(q_arrays(), st.data())
@settings(max_examples=300, deadline=None)
def test_rref_q_matches_dense_reference(a, data):
    k = data.draw(st.integers(0, a.shape[1]))
    got, expect = a.copy(), a.copy()
    piv = _rref_q(got, k)
    assert piv == dense_rref_q(expect, k)
    assert same_q(got, expect)


@given(q_arrays())
@settings(max_examples=200, deadline=None)
def test_rref_q_augmented_matches_dense_reference(a):
    m, n = a.shape
    aug = Matrix.hstack([Matrix._wrap(a, QQ), Matrix.identity(m, QQ)]).data
    got, expect = aug.copy(), aug.copy()
    piv = _rref_q(got, n)
    assert piv == dense_rref_q(expect, n)
    # the change-of-basis block too, dependent rows included
    assert same_q(got, expect)
    red, change, rpiv = row_reduce(Matrix._wrap(a, QQ))
    assert rpiv == piv
    assert same_q(red.data, expect[:, :n]) and same_q(change.data, expect[:, n:])


@given(q_arrays(), st.data())
@settings(max_examples=200, deadline=None)
def test_q_product_matches_dense_dot(a, data):
    b = data.draw(q_arrays(rows=a.shape[1]))
    got = (Matrix._wrap(a, QQ) @ Matrix._wrap(b, QQ)).data
    if a.shape[1] == 0:
        expect = Matrix.zeros(a.shape[0], b.shape[1], QQ).data
    else:
        expect = np.dot(a, b)
    assert same_q(got, expect)


def test_q_homology_of_a_larger_torus_matches_gf2():
    x, _ = assets.standing_torus(12, 6)
    assert homology(x, QQ).dims() == homology(x, GF2).dims() == (1, 2, 1)

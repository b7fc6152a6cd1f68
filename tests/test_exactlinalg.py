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
    SpanSolver,
    _rref_q,
    boundary_rank,
    kernel_basis,
    rank,
)
from decomap.homology import GradedLinearMap, homology
from test_gf2kernel import dense_rref


def test_row_reduce_identity():
    m = Matrix.identity(2, GF2)
    s = SpanSolver(m)
    assert s.pivots == [0, 1] and s.change @ m == m


def test_row_reduce_rank_one_gf2():
    m = Matrix.from_rows([[1, 1], [1, 1]], GF2)
    s = SpanSolver(m)
    assert s.pivots == [0]
    assert s.change @ m == Matrix.from_rows([[1, 1], [0, 0]], GF2)


def test_row_reduce_proportional_rows_q():
    m = Matrix.from_rows([[2, 4], [1, 2]], QQ)
    s = SpanSolver(m)
    assert s.pivots == [0]
    assert s.change @ m == Matrix.from_rows([[1, 2], [0, 0]], QQ)


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
    t = Matrix.from_rows([[3], [Fraction(1, 2)]], QQ)
    assert SpanSolver(Matrix.identity(2, QQ)).solve(t) == t


def test_solve_not_in_span():
    with pytest.raises(NotInSpan):
        SpanSolver(Matrix.from_rows([[1], [1]], QQ)).solve(
            Matrix.from_rows([[1], [0]], QQ)
        )


def test_solve_gf2_two_generators():
    # generators are the columns (1,0) and (1,1); target (0,1) needs both
    gens = Matrix.from_rows([[1, 1], [0, 1]], GF2)
    target = Matrix.from_rows([[0], [1]], GF2)
    coeffs = SpanSolver(gens).solve(target)
    assert coeffs == Matrix.from_rows([[1], [1]], GF2)
    assert gens @ coeffs == target


def test_invert():
    m = Matrix.from_rows([[1, 1], [0, 1]], GF2)
    assert m @ GradedLinearMap(None, None, [m]).inverse(0) == Matrix.identity(2, GF2)
    with pytest.raises(NotInSpan):
        GradedLinearMap(None, None, [Matrix.zeros(2, 2, QQ)]).inverse(0)


def test_q_numpy_integers_do_not_wrap():
    big = 3**39  # fits int64, its square does not
    m = Matrix.from_rows(np.array([[big, 1], [1, big]]), QQ)
    assert (m @ m).entry(0, 0) == big**2 + 1


def test_q_float_entries_are_exact():
    assert Matrix.from_rows([[0.1]], QQ).entry(0, 0) == Fraction(0.1)


def test_from_rows_rejects_an_unknown_field():
    with pytest.raises(ValueError, match="unknown field 'x'"):
        Matrix.from_rows([[1, 2]], "x")
    with pytest.raises(ValueError, match="unknown field"):
        Matrix.from_rows([], "x")


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
    s = SpanSolver(m)
    red = s.change @ m
    again = SpanSolver(red)
    assert again.change @ red == red and again.pivots == s.pivots
    assert s.pivots == sorted(s.pivots)
    assert len(set(s.pivots)) == len(s.pivots)
    # the rows past the rank are zero, and each pivot column is a unit vector
    assert red.take_rows(range(len(s.pivots), m.rows)).is_zero()
    assert red.take_cols(s.pivots) == Matrix.identity(m.rows, m.field).take_cols(
        range(len(s.pivots))
    )


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_kernel_columns_annihilated(m):
    k = kernel_basis(m)
    if m.rows and k.cols:
        assert (m @ k).is_zero()


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_solve_round_trip_on_column_space(m):
    if m.cols == 0 or m.rows == 0:
        return
    # any column of m is trivially in its span
    target = m.take_cols([0])
    coeffs = SpanSolver(m).solve(target)
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
    s = SpanSolver(Matrix._wrap(a, QQ))
    assert s.pivots == piv
    assert same_q(s.change.data, expect[:, n:])
    assert same_q((s.change @ Matrix._wrap(a, QQ)).data, expect[:, :n])


def dense_inverse(m):
    """Inverse of a square matrix by the dense reference reducer of its
    field run on [m | I], or None when m is singular."""
    n = m.rows
    aug = Matrix.hstack([m, Matrix.identity(n, m.field)]).data
    if m.field == GF2:
        aug, piv = dense_rref(aug, n)
    else:
        piv = dense_rref_q(aug, n)
    return aug[:, n:] if piv == list(range(n)) else None


@st.composite
def square_matrices(draw):
    """Square matrices over either field; with one row a sum of two others
    (so singular) about half the time."""
    field = draw(st.sampled_from([GF2, QQ]))
    n = draw(st.integers(min_value=0, max_value=6))
    rows = draw(st.lists(st.lists(q_entries, min_size=n, max_size=n), min_size=n, max_size=n))
    if field == GF2:
        rows = [[x.numerator & 1 if x.denominator == 1 else 1 for x in r] for r in rows]
    if n >= 2 and draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        j, k = (draw(st.sampled_from([t for t in range(n) if t != i])) for _ in "jk")
        rows[i] = [a + b for a, b in zip(rows[j], rows[k])]
    return Matrix.from_rows(rows, field) if n else Matrix.zeros(0, 0, field)


@given(square_matrices())
@settings(max_examples=200, deadline=None)
def test_inverse_matches_dense_reference(m):
    expect = dense_inverse(m)
    f = GradedLinearMap(None, None, [m])
    if expect is None:
        with pytest.raises(NotInSpan):
            f.inverse(0)
        return
    got = f.inverse(0)
    assert got.field == m.field and same_data(got, expect)
    assert m @ got == Matrix.identity(m.rows, m.field)
    assert f.inverse(0) is got


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_inverse_refuses_a_non_square_matrix(m):
    if m.rows == m.cols:
        return
    with pytest.raises(ValueError, match="square"):
        GradedLinearMap(None, None, [m]).inverse(0)


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


def same_data(m, expect):
    """*m* holds exactly the numpy array *expect*, in its field's entry type."""
    if m.field == GF2:
        return m.data.dtype == np.uint8 and np.array_equal(m.data, expect)
    return same_q(m.data, expect)


@given(matrices(), st.data())
@settings(max_examples=100, deadline=None)
def test_take_rows_matches_numpy_slicing(m, data):
    idx = data.draw(st.lists(st.integers(0, m.rows - 1), max_size=6)) if m.rows else []
    got = m.take_rows(idx)
    assert got.field == m.field and got.shape == (len(idx), m.cols)
    assert same_data(got, m.data[idx, :])
    assert same_data(m.take_rows(range(m.rows)), m.data)


@given(st.sampled_from([GF2, QQ]), st.data())
@settings(max_examples=100, deadline=None)
def test_from_entries_matches_numpy_assignment(field, data):
    rows, cols = data.draw(st.tuples(st.integers(0, 6), st.integers(0, 6)))
    cells = [(i, j) for i in range(rows) for j in range(cols)]
    picked = data.draw(st.lists(st.sampled_from(cells), unique=True) if cells else st.just([]))
    values = data.draw(st.lists(entries, min_size=len(picked), max_size=len(picked)))
    got = Matrix.from_entries(
        rows, cols, [i for i, _ in picked], [j for _, j in picked], values, field
    )
    expect = Matrix.zeros(rows, cols, field).data
    for (i, j), x in zip(picked, values):
        expect[i, j] = x % 2 if field == GF2 else Fraction(x)
    assert got.field == field and same_data(got, expect)


def test_from_entries_over_gf2_takes_integers_mod_2_and_refuses_halves():
    m = Matrix.from_entries(1, 3, [0, 0, 0], [0, 1, 2], [3, -1, 2], GF2)
    assert m == Matrix.from_rows([[1, 1, 0]], GF2)
    assert m.data.dtype == np.uint8
    # integral Fractions take the per-entry path, and reduce the same way
    assert Matrix.from_entries(1, 2, [0, 0], [0, 1], [Fraction(3), Fraction(-1)], GF2) == (
        Matrix.from_rows([[1, 1]], GF2)
    )
    with pytest.raises(ValueError, match="not a GF\\(2\\) scalar"):
        Matrix.from_entries(1, 2, [0, 0], [0, 1], [1, Fraction(1, 2)], GF2)


@st.composite
def signed_columns(draw):
    """A row count and columns of distinct rows, the entry at position i of
    a column being (-1)**i."""
    n_rows = draw(st.integers(0, 7))
    rows = st.lists(st.integers(0, n_rows - 1), unique=True, max_size=4) if n_rows else st.just([])
    return n_rows, draw(st.lists(rows, max_size=9))


@given(signed_columns(), st.data(), st.sampled_from([GF2, QQ]))
@settings(max_examples=200, deadline=None)
def test_boundary_rank_matches_the_rank_of_the_dense_matrix(layout, data, field):
    n_rows, columns = layout
    dense = Matrix.from_entries(
        n_rows, len(columns),
        [r for col in columns for r in col],
        [j for j, col in enumerate(columns) for _ in col],
        [-1 if i & 1 else 1 for col in columns for i in range(len(col))],
        field,
    )
    assert boundary_rank(columns, n_rows, field) == rank(dense)
    # rows may carry any distinct labels, as a handle's rows carry their
    # face ids in the whole complex
    labels = data.draw(st.lists(st.integers(0, 300), unique=True, min_size=n_rows, max_size=n_rows))
    relabelled = [[labels[r] for r in col] for col in columns]
    assert boundary_rank(relabelled, n_rows, field) == rank(dense)


@st.composite
def block_layouts(draw):
    """A field, a target shape and non-overlapping blocks, each placed by a
    start index or by an index list, in both axes."""
    field = draw(st.sampled_from([GF2, QQ]))
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    cuts = sorted(draw(st.lists(st.integers(0, rows), max_size=3)))
    blocks = []
    for lo, hi in zip([0] + cuts, cuts + [rows]):
        if draw(st.booleans()):
            at_rows = lo
        else:
            at_rows = draw(st.permutations(range(lo, hi)))
        if draw(st.booleans()):
            at_cols = draw(st.integers(0, cols))
            width = draw(st.integers(0, cols - at_cols))
        else:
            at_cols = draw(st.lists(st.sampled_from(range(cols)), unique=True)) if cols else []
            width = len(at_cols)
        height = hi - lo
        flat = draw(st.lists(entries, min_size=height * width, max_size=height * width))
        body = [flat[r * width:(r + 1) * width] for r in range(height)]
        m = Matrix.from_rows(body, field) if height else Matrix.zeros(0, width, field)
        blocks.append((at_rows, at_cols, m))
    return field, rows, cols, blocks


@given(block_layouts())
@settings(max_examples=150, deadline=None)
def test_from_blocks_matches_entrywise_placement(layout):
    field, rows, cols, blocks = layout
    got = Matrix.from_blocks(rows, cols, blocks, field)
    expect = Matrix.zeros(rows, cols, field).data
    for at_rows, at_cols, m in blocks:
        r = range(at_rows, at_rows + m.rows) if isinstance(at_rows, int) else list(at_rows)
        c = range(at_cols, at_cols + m.cols) if isinstance(at_cols, int) else list(at_cols)
        for s, i in enumerate(r):
            for t, j in enumerate(c):
                expect[i, j] = m.data[s, t]
    assert got.field == field and same_data(got, expect)


def test_from_blocks_rejects_a_foreign_field():
    with pytest.raises(ValueError, match="field mismatch"):
        Matrix.from_blocks(2, 2, [(0, 0, Matrix.identity(1, QQ))], GF2)


def test_q_homology_of_a_larger_torus_matches_gf2():
    x, _ = assets.standing_torus(12, 6)
    assert homology(x, QQ).dims() == homology(x, GF2).dims() == (1, 2, 1)

"""Exact linear algebra over GF(2) and the rationals.

All algebra in this package is exact: GF(2) matrices are uint8 arrays run
through the sparse row reducer in :mod:`decomap.gf2kernel`, and
rational matrices hold :class:`fractions.Fraction` entries (always in
lowest terms with positive denominator).  No floating point appears
anywhere, so matrix identities used by the test suites can be checked with
``==``.

This module alone knows how a :class:`Matrix` is stored.  Other modules
build matrices from rows (:meth:`Matrix.from_rows`, the one constructor
that coerces outside values), signed entries (:meth:`Matrix.from_entries`)
or placed blocks (:meth:`Matrix.from_blocks`), take rows and columns, and
combine them with ``@``, ``+`` and unary ``-``; none of them reads the
storage or does field-specific arithmetic.  :func:`boundary_rank` ranks a
boundary given as the row lists of its columns, with no matrix at all.

Rational matrices are stored dense but reduced and multiplied sparse: each
row becomes a ``{col: value}`` dict of its nonzeros, integral values are
held as Python ints (boundary entries are +-1, so most arithmetic never
builds a Fraction), and the result is written back as Fractions.  The
elimination makes the pivot choices and row operations of dense
Gauss-Jordan, so its output, change of basis included, is the dense one
entry for entry.

The pivot rule is fixed (leftmost eligible column, topmost nonzero row),
which together with full reduction makes every result here — and every
homology basis built on top — reproducible bit for bit.  :func:`rank` and
:func:`kernel_basis` reduce the bare matrix; :class:`SpanSolver` alone
appends an identity block, to record the change of basis that its solves
(inverses included) apply.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .gf2kernel import gf2_matmul, gf2_rank, gf2_rref

GF2 = "gf2"
QQ = "q"

_FIELDS = (GF2, QQ)


class NotInSpan(Exception):
    """Target vector lies outside the span of the given generators."""


def _check_field(field):
    if field not in _FIELDS:
        raise ValueError(f"unknown field {field!r}; expected 'gf2' or 'q'")


def as_fraction(x) -> Fraction:
    """Exact rational value of a Fraction, int, numpy integer, str or float.

    A float becomes its exact binary value, never a rounded neighbour.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, np.integer):
        # a numpy numerator would keep wrapping at 64 bits inside the Fraction
        x = int(x)
    return Fraction(x)


def _coerce_entry(x, field):
    if field == GF2:
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise ValueError(f"{x} is not a GF(2) scalar")
            x = x.numerator
        return int(x) & 1
    return as_fraction(x)


def _one(field):
    return 1 if field == GF2 else Fraction(1)


class Matrix:
    """Immutable-by-convention dense matrix over GF(2) or Q.

    GF(2) data is a uint8 array of 0/1; rational data is an object array of
    Fractions.  Dimensions are fixed at construction.
    """

    __slots__ = ("field", "data")

    @classmethod
    def _wrap(cls, raw, field):
        m = object.__new__(cls)
        m.field = field
        m.data = raw
        return m

    @classmethod
    def from_rows(cls, rows, field):
        """The matrix with the given rows, coerced exactly into *field*."""
        _check_field(field)
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        if field == GF2:
            raw = np.array(
                [[_coerce_entry(x, GF2) for x in r] for r in rows], dtype=np.uint8
            ).reshape(len(rows), ncols)
            return cls._wrap(raw, GF2)
        raw = np.empty((len(rows), ncols), dtype=object)
        for i, r in enumerate(rows):
            for j, x in enumerate(r):
                raw[i, j] = _coerce_entry(x, QQ)
        return cls._wrap(raw, QQ)

    @classmethod
    def zeros(cls, rows, cols, field):
        _check_field(field)
        if field == GF2:
            return cls._wrap(np.zeros((rows, cols), dtype=np.uint8), GF2)
        raw = np.empty((rows, cols), dtype=object)
        raw[...] = Fraction(0)
        return cls._wrap(raw, QQ)

    @classmethod
    def identity(cls, n, field):
        m = cls.zeros(n, n, field)
        m.data[range(n), range(n)] = _one(field)
        return m

    @classmethod
    def from_entries(cls, rows, cols, row_idx, col_idx, values, field):
        """A rows x cols matrix with ``values[t]`` at ``(row_idx[t],
        col_idx[t])``, and zero elsewhere; the positions must be distinct."""
        m = cls.zeros(rows, cols, field)
        raw = np.asarray(values)
        if field == GF2 and raw.dtype.kind in "iu":
            entries = raw & 1  # integers need no exactness check
        else:
            entries = [_coerce_entry(x, field) for x in values]
        m.data[list(row_idx), list(col_idx)] = entries
        return m

    @classmethod
    def from_blocks(cls, rows, cols, blocks, field):
        """A rows x cols matrix that is zero outside the given blocks.

        Each block is ``(at_rows, at_cols, m)``, with *m* a Matrix.  A
        position is either the index of the block's first row (column) or
        the list of the indices its rows (columns) land on, in order.
        Blocks must not overlap.
        """
        out = cls.zeros(rows, cols, field)
        for at_rows, at_cols, m in blocks:
            if m.field != field:
                raise ValueError("field mismatch")
            out.data[np.ix_(_span(at_rows, m.rows), _span(at_cols, m.cols))] = m.data
        return out

    @property
    def rows(self):
        return self.data.shape[0]

    @property
    def cols(self):
        return self.data.shape[1]

    @property
    def shape(self):
        return self.data.shape

    def entry(self, i, j):
        x = self.data[i, j]
        return int(x) if self.field == GF2 else x

    def take_rows(self, idx):
        return Matrix._wrap(self.data[list(idx), :], self.field)

    def take_cols(self, idx):
        return Matrix._wrap(self.data[:, list(idx)].copy(), self.field)

    def copy(self):
        return Matrix._wrap(self.data.copy(), self.field)

    def is_zero(self):
        if self.field == GF2:
            return not self.data.any()
        return all(x == 0 for x in self.data.flat)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field or self.shape != other.shape:
            return False
        if self.field == GF2:
            return bool(np.array_equal(self.data, other.data))
        return all(a == b for a, b in zip(self.data.flat, other.data.flat))

    def __matmul__(self, other):
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        if self.field == GF2:
            return Matrix._wrap(gf2_matmul(self.data, other.data), GF2)
        return Matrix._wrap(_q_matmul(self.data, other.data), QQ)

    def __add__(self, other):
        if self.field != other.field or self.shape != other.shape:
            raise ValueError("shape/field mismatch")
        if self.field == GF2:
            return Matrix._wrap(self.data ^ other.data, GF2)
        return Matrix._wrap(self.data + other.data, QQ)

    def __neg__(self):
        if self.field == GF2:
            return self.copy()
        return Matrix._wrap(-self.data, QQ)

    def __repr__(self):
        body = "; ".join(
            " ".join(str(self.entry(i, j)) for j in range(self.cols))
            for i in range(self.rows)
        )
        return f"Matrix[{self.field} {self.rows}x{self.cols}: {body}]"

    @staticmethod
    def hstack(mats):
        mats = list(mats)
        field = mats[0].field
        if any(m.field != field for m in mats):
            raise ValueError("field mismatch")
        raw = np.hstack([m.data for m in mats])
        return Matrix._wrap(raw, field)


def _span(at, n):
    """Indices of an n-long block placed at *at*: a start index, or the
    indices themselves."""
    return range(at, at + n) if isinstance(at, int) else list(at)


def _q_rows(data):
    """The rows of a rational object array as ``{col: value}`` dicts of their
    nonzeros; integral values are held as Python ints."""
    rows = [{} for _ in range(data.shape[0])]
    ri, ci = np.nonzero(data)
    for i, j, x in zip(ri.tolist(), ci.tolist(), data[ri, ci].tolist()):
        rows[i][j] = x.numerator if x.denominator == 1 else x
    return rows


def _write_q(data, rows):
    """Overwrite *data* with the sparse *rows*, as Fraction entries only."""
    data[...] = Fraction(0)
    for i, row in enumerate(rows):
        for j, x in row.items():
            data[i, j] = Fraction(x)


def _q_unit(row, c):
    """The sparse rational *row* scaled so that its entry at *c* is 1: a
    new dict unless that entry is 1 already, negated when it is -1."""
    pv = row[c]
    if pv == -1:
        return {j: -x for j, x in row.items()}
    if pv != 1:
        inv = 1 / Fraction(pv)
        return {j: x * inv for j, x in row.items()}
    return row


def _q_subtract(row, f, pivot):
    """``row -= f * pivot`` in place on sparse rational rows, dropping the
    entries that become zero."""
    for j, x in pivot.items():
        y = row.get(j, 0) - f * x
        if y:
            row[j] = y
        else:
            del row[j]


def _rref_q(data, n_pivot_cols):
    """Full RREF of a Fraction object array, in place; returns pivot cols.

    Pivots come from the first *n_pivot_cols* columns: leftmost column,
    topmost nonzero row, swapped into place.  Only nonzeros are touched,
    and a pivot row is divided only when its pivot is not +-1.
    """
    m = data.shape[0]
    rows = _q_rows(data)
    pivots = []
    for c in range(n_pivot_cols):
        r = len(pivots)
        if r == m:
            break
        p = next((i for i in range(r, m) if c in rows[i]), -1)
        if p < 0:
            continue
        prow = _q_unit(rows[p], c)
        rows[p] = rows[r]
        rows[r] = prow
        for i, row in enumerate(rows):
            f = row.get(c)
            if f is not None and i != r:
                _q_subtract(row, f, prow)
        pivots.append(c)
    _write_q(data, rows)
    return pivots


def _q_matmul(a, b):
    """Product of two rational object arrays over their nonzeros only."""
    brows = _q_rows(b)
    out_rows = []
    for arow in _q_rows(a):
        acc = {}
        for k, x in arow.items():
            for j, y in brows[k].items():
                acc[j] = acc.get(j, 0) + x * y
        out_rows.append(acc)
    out = np.empty((a.shape[0], b.shape[1]), dtype=object)
    _write_q(out, out_rows)
    return out


def _eliminate(m: Matrix):
    """RREF of *m* alone, as ``(reduced raw array, pivot columns)``."""
    if m.field == GF2:
        return gf2_rref(m.data)
    work = m.data.copy()
    return work, _rref_q(work, m.cols)


def rank(m: Matrix) -> int:
    return len(_eliminate(m)[1])


def boundary_rank(columns, n_rows, field) -> int:
    """Rank of a boundary matrix with *n_rows* nonzero-capable rows, given
    by its columns, with no dense matrix.

    Column j holds ``(-1)**i`` at the row labelled ``columns[j][i]`` (1
    over GF(2)).  Labels are distinct within a column and may be any
    non-negative ints, such as the ids of faces in the whole complex: the
    rank does not depend on how the rows are numbered.  The rank is that of
    the rows when they are fewer than the columns, otherwise that of the
    columns: the fewer vectors, the fewer insertions.  Each vector goes
    into an echelon table keyed by its highest index: over GF(2) as an int
    bitset (:func:`~decomap.gf2kernel.gf2_rank`), over Q as an
    ``{index: value}`` dict whose stored entry at its key is 1.
    """
    _check_field(field)
    transpose = n_rows < len(columns)
    if field == GF2:
        if transpose:
            rows = {}
            for j, col in enumerate(columns):
                bit = 1 << j
                for r in col:
                    rows[r] = rows.get(r, 0) | bit
            return gf2_rank(rows.values())
        vectors = []
        for col in columns:
            vec = 0
            for r in col:
                vec |= 1 << r
            vectors.append(vec)
        return gf2_rank(vectors)
    if transpose:
        rows = {}
        for j, col in enumerate(columns):
            for i, r in enumerate(col):
                rows.setdefault(r, {})[j] = -1 if i & 1 else 1
        vectors = rows.values()
    else:
        vectors = [{r: -1 if i & 1 else 1 for i, r in enumerate(col)} for col in columns]
    echelon = {}
    for vec in vectors:
        while vec:
            key = max(vec)
            pivot = echelon.get(key)
            if pivot is None:
                echelon[key] = _q_unit(vec, key)
                break
            _q_subtract(vec, vec[key], pivot)
    return len(echelon)


def _reduced_kernel(red, piv, ncols, field) -> Matrix:
    """Kernel of the first *ncols* columns of a matrix, read off its RREF
    *red* with pivot columns *piv*: one vector per free column, in order."""
    piv = [p for p in piv if p < ncols]
    pivset = set(piv)
    free = [j for j in range(ncols) if j not in pivset]
    out = Matrix.zeros(ncols, len(free), field)
    block = red[: len(piv)][:, free]
    out.data[piv, :] = block if field == GF2 else -block
    out.data[free, range(len(free))] = _one(field)
    return out


def kernel_basis(m: Matrix) -> Matrix:
    """Columns spanning ker(m), read off its RREF as the homology engine
    reads its cycles; column count is cols(m) - rank(m)."""
    return _reduced_kernel(*_eliminate(m), m.cols, m.field)


class SpanSolver:
    """Factorized view of a generator matrix for repeated span solves.

    The one elimination beside an identity block: ``change @ generators``
    is the RREF, with pivot columns ``pivots``.  Each solve then costs one
    matrix product and sets every free variable to zero, so solutions are
    unique functions of the target.
    """

    def __init__(self, generators: Matrix):
        self.generators = generators
        self.field = generators.field
        self.n_rows, n = generators.shape
        aug = Matrix.hstack([generators, Matrix.identity(self.n_rows, self.field)]).data
        if self.field == GF2:
            aug, self.pivots = gf2_rref(aug, n_pivot_cols=n)
        else:
            self.pivots = _rref_q(aug, n)
        self.change = Matrix._wrap(np.ascontiguousarray(aug[:, n:]), self.field)

    def solve(self, target: Matrix) -> Matrix:
        """Solve generators @ X = target column-wise; raises NotInSpan."""
        if target.rows != self.n_rows:
            raise ValueError("target dimension mismatch")
        y = self.change @ target
        r = len(self.pivots)
        tail = y.data[r:, :]
        if self.field == GF2:
            bad = bool(tail.any())
        else:
            bad = any(x != 0 for x in tail.flat)
        if bad:
            raise NotInSpan("target outside the span of the generators")
        out = Matrix.zeros(self.generators.cols, target.cols, self.field)
        for i, pc in enumerate(self.pivots):
            out.data[pc, :] = y.data[i, :]
        return out

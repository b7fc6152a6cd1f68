"""Exact linear algebra over GF(2) and the rationals.

All algebra in this package is exact: GF(2) matrices are uint8 arrays run
through the sparse row reducer in :mod:`decomap.gf2kernel`, and
rational matrices hold :class:`fractions.Fraction` entries (always in
lowest terms with positive denominator).  No floating point appears
anywhere, so matrix identities used by the test suites can be checked with
``==``.

This module alone knows how a :class:`Matrix` is stored.  Other modules
build matrices from signed entries (:meth:`Matrix.from_entries`) or placed
blocks (:meth:`Matrix.from_blocks`), take rows and columns, and combine
them with ``@``, ``+`` and ``-``; none of them reads the storage or does
field-specific arithmetic.

Rational matrices are stored dense but reduced and multiplied sparse: each
row becomes a ``{col: value}`` dict of its nonzeros, integral values are
held as Python ints (boundary entries are +-1, so most arithmetic never
builds a Fraction), and the result is written back as Fractions.  The
elimination makes the pivot choices and row operations of dense
Gauss-Jordan, so its output, change of basis included, is the dense one
entry for entry.

The pivot rule is fixed (leftmost eligible column, topmost nonzero row),
which together with full reduction makes every result here — and every
homology basis built on top — reproducible bit for bit.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .gf2kernel import gf2_matmul, gf2_rref

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

    def __init__(self, data, field):
        _check_field(field)
        self.field = field
        a = np.asarray(data)
        if a.ndim != 2:
            raise ValueError("Matrix needs 2-dimensional data")
        if field == GF2:
            self.data = np.ascontiguousarray(a.astype(np.uint8) & 1)
        else:
            out = np.empty(a.shape, dtype=object)
            for i in range(a.shape[0]):
                for j in range(a.shape[1]):
                    out[i, j] = _coerce_entry(a[i, j], QQ)
            self.data = out

    @classmethod
    def _wrap(cls, raw, field):
        m = object.__new__(cls)
        m.field = field
        m.data = raw
        return m

    @classmethod
    def from_rows(cls, rows, field):
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
        m.data[list(row_idx), list(col_idx)] = [_coerce_entry(x, field) for x in values]
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

    def __hash__(self):  # pragma: no cover - Matrix is not meant for dict keys
        raise TypeError("Matrix is unhashable")

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

    def __sub__(self, other):
        return self + (-other)

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


class RowReduction(NamedTuple):
    reduced: Matrix
    basis_change: Matrix
    pivot_columns: list


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
        prow = rows[p]
        rows[p] = rows[r]
        pv = prow[c]
        if pv == -1:
            prow = {j: -x for j, x in prow.items()}
        elif pv != 1:
            inv = 1 / Fraction(pv)
            prow = {j: x * inv for j, x in prow.items()}
        rows[r] = prow
        for i, row in enumerate(rows):
            f = row.get(c)
            if f is None or i == r:
                continue
            for j, x in prow.items():
                y = row.get(j, 0) - f * x
                if y:
                    row[j] = y
                else:
                    del row[j]
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


def row_reduce(m: Matrix) -> RowReduction:
    """Reduced row-echelon form with the accompanying change of basis.

    ``basis_change @ m == reduced`` and ``pivot_columns`` is strictly
    increasing.  RREF is unique, so ``reduced`` and the pivots do not depend
    on the elimination order.  ``basis_change`` does when the rows of *m* are
    dependent, but a solve of a target in the column span through it does
    not.  Callers that never read ``basis_change`` use :func:`_eliminate`,
    which skips the identity augmentation.
    """
    n = m.cols
    aug = Matrix.hstack([m, Matrix.identity(m.rows, m.field)])
    if m.field == GF2:
        red, piv = gf2_rref(aug.data, n_pivot_cols=n)
        reduced = Matrix._wrap(np.ascontiguousarray(red[:, :n]), GF2)
        change = Matrix._wrap(np.ascontiguousarray(red[:, n:]), GF2)
        return RowReduction(reduced, change, piv)
    work = aug.data.copy()
    piv = _rref_q(work, n)
    reduced = Matrix._wrap(work[:, :n].copy(), QQ)
    change = Matrix._wrap(work[:, n:].copy(), QQ)
    return RowReduction(reduced, change, piv)


def _eliminate(m: Matrix):
    """RREF of *m* alone, as ``(reduced raw array, pivot columns)``."""
    if m.field == GF2:
        return gf2_rref(m.data)
    work = m.data.copy()
    return work, _rref_q(work, m.cols)


def rank(m: Matrix) -> int:
    return len(_eliminate(m)[1])


def kernel_basis(m: Matrix) -> Matrix:
    """Columns spanning ker(m); column count is cols(m) - rank(m).

    Free columns are enumerated in increasing order, one kernel vector per
    free column, so the basis is deterministic.
    """
    red, piv = _eliminate(m)
    pivset = set(piv)
    free = [j for j in range(m.cols) if j not in pivset]
    out = Matrix.zeros(m.cols, len(free), m.field)
    block = red[: len(piv)][:, free]
    out.data[piv, :] = block if m.field == GF2 else -block
    out.data[free, range(len(free))] = _one(m.field)
    return out


class SpanSolver:
    """Factorized view of a generator matrix for repeated span solves.

    row_reduce is done once; each solve then costs a single matrix-vector
    product.  Solutions fix all free variables to zero, so they are unique
    functions of the target.
    """

    def __init__(self, generators: Matrix):
        self.generators = generators
        red, change, piv = row_reduce(generators)
        self.field = generators.field
        self.pivots = piv
        self.change = change
        self.n_rows = generators.rows

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


def invert(m: Matrix) -> Matrix:
    """Exact inverse of a square full-rank matrix."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    red, change, piv = row_reduce(m)
    if len(piv) != m.cols:
        raise NotInSpan("matrix is singular")
    return change

"""Sparse GF(2) row reduction on Python-int bitsets.

Every homology computation in this package bottoms out in Gaussian
elimination over GF(2).  The boundary matrices it sees are very sparse
(about 0.05 % dense on the demo torus), so each row is held as one Python
``int`` with bit j standing for column j, and every row operation is a
single big-integer XOR done in C.  Rows are packed once from the uint8
input (``np.packbits``, then ``int.from_bytes``), reduced to echelon form
by inserting them one at a time into a table keyed by their leftmost
pivot-eligible column (the standard boundary-matrix reduction of
Zomorodian and Carlsson, row-wise), then back-substituted right to left
into reduced row-echelon form, and unpacked with one ``np.unpackbits``.
RREF is unique, so the result equals that of any other correct
elimination.  :func:`gf2_rank` makes the same echelon insertion on
bitsets built by the caller, and keeps only the count of pivots.
"""

from __future__ import annotations

import numpy as np

BACKEND = "sparse"


def gf2_rref(a, n_pivot_cols=None):
    """RREF over GF(2) of a uint8 0/1 matrix.

    Pivots are taken from the first *n_pivot_cols* columns only (callers
    append augmentation columns past that bound); row operations apply to
    the full width.  Returns ``(reduced, pivot_columns)`` with *reduced* a
    fresh uint8 array: the pivot rows in column order, then the rows with
    no pivot.  The input is not modified.
    """
    a = np.asarray(a, dtype=np.uint8)
    m, n = a.shape
    if n_pivot_cols is None:
        n_pivot_cols = n
    if m == 0 or n == 0:
        return np.zeros((m, n), dtype=np.uint8), []
    packed = np.packbits(a, axis=1, bitorder="little")
    row_bytes = packed.shape[1]
    buf = packed.tobytes()
    mask = (1 << n_pivot_cols) - 1
    echelon = {}  # pivot column -> row whose leftmost eligible bit it is
    rest = []
    for i in range(0, m * row_bytes, row_bytes):
        row = int.from_bytes(buf[i : i + row_bytes], "little")
        lead = row & mask
        while lead:
            c = (lead & -lead).bit_length() - 1
            pivot_row = echelon.get(c)
            if pivot_row is None:
                echelon[c] = row
                break
            row ^= pivot_row
            lead = row & mask
        else:
            rest.append(row)
    pivots = sorted(echelon)
    # Right to left, each pivot row clears the later pivot columns it still
    # holds; the rows it XORs in are already reduced, so they add no new
    # pivot-column bits.
    pivot_mask = 0
    for c in reversed(pivots):
        row = echelon[c]
        hits = row & pivot_mask
        while hits:
            low = hits & -hits
            row ^= echelon[low.bit_length() - 1]
            hits ^= low
        echelon[c] = row
        pivot_mask |= 1 << c
    out = b"".join(
        r.to_bytes(row_bytes, "little") for r in [echelon[c] for c in pivots] + rest
    )
    packed = np.frombuffer(out, dtype=np.uint8).reshape(m, row_bytes)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little"), pivots


def gf2_rank(vectors):
    """Rank over GF(2) of Python-int bitsets (bit j for coordinate j).

    Each vector is inserted into an echelon table keyed by its highest set
    bit (one ``bit_length``, where the lowest would need two more big-int
    operations), XOR-ing in the vector already stored there until the bit
    is new or nothing is left.
    """
    echelon = {}
    for vec in vectors:
        while vec:
            top = vec.bit_length() - 1
            pivot = echelon.get(top)
            if pivot is None:
                echelon[top] = vec
                break
            vec ^= pivot
    return len(echelon)


def gf2_matmul(a, b):
    """Exact product of 0/1 uint8 matrices over GF(2).

    uint8 accumulation wraps mod 256, which preserves parity, so the
    final ``& 1`` is exact.
    """
    if a.shape[1] == 0 or b.shape[1] == 0 or a.shape[0] == 0:
        return np.zeros((a.shape[0], b.shape[1]), dtype=np.uint8)
    return (a @ b) & np.uint8(1)

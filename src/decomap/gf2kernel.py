"""Sparse GF(2) row reduction on Python-int bitsets.

Every homology computation in this package bottoms out in Gaussian
elimination over GF(2).  The boundary matrices it sees are very sparse
(about 0.05 % dense on the demo torus), so each row is held as one Python
``int`` with bit j standing for column j, and every row operation is a
single big-integer XOR done in C.  Rows are packed once from the uint8
input, reduced to echelon form by inserting them one at a time into a
table keyed by their leftmost pivot-eligible column (the standard
boundary-matrix reduction of Zomorodian and Carlsson, row-wise), then
back-substituted right to left into reduced row-echelon form.  RREF is
unique, so the result equals that of any other correct elimination.
"""

from __future__ import annotations

import numpy as np

BACKEND = "sparse"


def pack_rows(a):
    """Pack a uint8 0/1 matrix into uint64 words, 64 columns per word."""
    a = np.ascontiguousarray(a, dtype=np.uint8)
    m, n = a.shape
    n_words = (n + 63) >> 6
    if n == 0 or m == 0:
        return np.zeros((m, n_words), dtype=np.uint64)
    packed = np.packbits(a, axis=1, bitorder="little")
    pad = n_words * 8 - packed.shape[1]
    if pad:
        packed = np.pad(packed, ((0, 0), (0, pad)))
    return packed.view("<u8")


def unpack_rows(words, n_cols):
    """Inverse of :func:`pack_rows`."""
    m = words.shape[0]
    if n_cols == 0 or m == 0:
        return np.zeros((m, n_cols), dtype=np.uint8)
    as_bytes = words.view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=1, count=n_cols, bitorder="little")
    return np.ascontiguousarray(bits)


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
    words = pack_rows(a)
    row_bytes = words.shape[1] * 8
    buf = words.tobytes()
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
    words = np.frombuffer(out, dtype="<u8").reshape(m, -1)
    return unpack_rows(words, n), pivots


def gf2_matmul(a, b):
    """Exact product of 0/1 uint8 matrices over GF(2).

    uint8 accumulation wraps mod 256, which preserves parity, so the
    final ``& 1`` is exact.
    """
    if a.shape[1] == 0 or b.shape[1] == 0 or a.shape[0] == 0:
        return np.zeros((a.shape[0], b.shape[1]), dtype=np.uint8)
    return (a @ b) & np.uint8(1)

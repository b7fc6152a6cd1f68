"""Homology with explicit cycle-representative bases, for every chain
complex in the package.

:func:`chain_homology` picks bases by completing the boundary space inside
the cycle space under the fixed pivot rule of :mod:`decomap.exactlinalg`,
so the matrices of induced maps are reproducible and can be compared
exactly; :meth:`GradedVectorSpace.express_cycles` gives class coordinates.
:func:`homology` adapts it to simplicial (sub)complexes and memoizes the
result on the parent complex keyed by the selected simplex set, since the
same slice tends to be requested many times; the total complexes of
:mod:`decomap.cosheaf_homology` call it directly.  :func:`induced_map` is
the one routine for maps on homology, simplicial or cosheaf, and
:class:`GradedLinearMap` the one type that holds them.
"""

from __future__ import annotations

from .exactlinalg import GF2, Matrix, SpanSolver, _eliminate, _reduced_kernel, rank
from .simplicial import SimplicialComplex, boundary_matrix


class NestingViolation(Exception):
    pass


class ShapeMismatch(Exception):
    pass


class GradedVectorSpace:
    """Homology of a chain complex in degrees 0..max_deg with chosen bases.

    ``basis(n)`` has one column per homology class, written as a cycle in
    the complex's n-chain coordinates.  Degrees above max_deg are zero by
    convention.  ``subcomplex`` is the complex the homology is of: a
    simplicial handle, or a cosheaf's total complex.
    """

    def __init__(self, subcomplex, field, bases, boundary):
        self.subcomplex = subcomplex
        self.field = field
        self.max_deg = len(bases) - 1
        self._bases = bases
        self._boundary = boundary
        self._solvers = {}

    def dimension(self, n):
        if 0 <= n <= self.max_deg:
            return self._bases[n].cols
        return 0

    def dims(self):
        return tuple(self.dimension(n) for n in range(self.max_deg + 1))

    def basis(self, n) -> Matrix:
        return self._bases[n]

    def class_solver(self, n) -> SpanSolver:
        """Factorization of [basis_n | boundaries_n] for expressing cycles."""
        if n not in self._solvers:
            bnd = self._boundary(n + 1)
            self._solvers[n] = SpanSolver(Matrix.hstack([self._bases[n], bnd]))
        return self._solvers[n]

    def express_cycles(self, n, chains: Matrix) -> Matrix:
        """Coordinates of cycle columns in the degree-n homology basis."""
        coeffs = self.class_solver(n).solve(chains)
        return coeffs.take_rows(range(self.dimension(n)))


class GradedLinearMap:
    """Degree-wise matrices between two graded spaces, composable exactly:
    ``g @ f`` composes degree by degree and ``==`` compares every degree."""

    def __init__(self, source, target, matrices):
        self.source = source
        self.target = target
        self.matrices = list(matrices)
        self._inverses = {}

    def matrix(self, n) -> Matrix:
        return self.matrices[n]

    @property
    def max_deg(self):
        return len(self.matrices) - 1

    def rank(self, n):
        return rank(self.matrices[n])

    def inverse(self, n) -> Matrix:
        """Exact inverse of the degree-n matrix, computed once: the solve of
        the identity.  ``ValueError`` unless the matrix is square, and
        ``NotInSpan`` when it is singular."""
        if n not in self._inverses:
            m = self.matrices[n]
            if m.rows != m.cols:
                raise ValueError("only square matrices can be inverted")
            self._inverses[n] = SpanSolver(m).solve(Matrix.identity(m.rows, m.field))
        return self._inverses[n]

    def is_isomorphism(self, n):
        m = self.matrices[n]
        return m.rows == m.cols and rank(m) == m.rows

    def __matmul__(self, other):
        return GradedLinearMap(
            other.source, self.target,
            [a @ b for a, b in zip(self.matrices, other.matrices, strict=True)],
        )

    def __eq__(self, other):
        return (
            isinstance(other, GradedLinearMap)
            and len(self.matrices) == len(other.matrices)
            and all(a == b for a, b in zip(self.matrices, other.matrices))
        )


def _boundary_columns(k, n, field) -> Matrix:
    """Boundary matrix of the handle in degree n, or an empty block."""
    rows = len(k.simplex_ids.get(n - 1, ()))
    if n > k.parent.max_dim or not k.simplex_ids.get(n):
        return Matrix.zeros(rows, 0, field)
    return boundary_matrix(k, n, field)


def chain_homology(counts, boundary, field, subcomplex) -> GradedVectorSpace:
    """Homology in degrees 0..len(counts)-1 of the chain complex with
    ``counts[n]`` cells in degree n and boundary matrices ``boundary(n)``
    (``counts[n-1]`` rows); the result keeps *subcomplex*, the complex
    itself.

    Degree-n dimension is dim ker boundary_n - rank boundary_{n+1}; the
    basis completes the boundary columns to the cycle space, pivoted left
    to right, so recomputation yields identical matrices.  Each boundary is
    built and eliminated once: the RREF of [boundary_{n+1} | Z_n] gives
    degree n's basis from its Z_n block and Z_{n+1} from the other.  A
    boundary of zeros bounds nothing and is not eliminated.
    """
    bases = []
    cycles = None  # Z_n, read off degree n-1's elimination; None when all of C_n
    for n, cn in enumerate(counts):
        if cycles is None:
            cycles = Matrix.identity(cn, field)
        bnd = boundary(n + 1)
        if cn == 0 or bnd.is_zero():
            bases.append(cycles)
            cycles = None
            continue
        red, piv = _eliminate(Matrix.hstack([bnd, cycles]))
        bases.append(cycles.take_cols([p - bnd.cols for p in piv if p >= bnd.cols]))
        cycles = _reduced_kernel(red, piv, bnd.cols, field) if n + 1 < len(counts) else None
        del red  # not kept alive through the next degree's elimination
    return GradedVectorSpace(subcomplex, field, bases, boundary)


def homology(k, field=GF2, max_deg=None) -> GradedVectorSpace:
    """Homology of a (sub)complex with deterministic cycle bases, from
    :func:`chain_homology` and memoized on the parent complex."""
    if isinstance(k, SimplicialComplex):
        k = k.full_handle()
    parent = k.parent
    if max_deg is None:
        max_deg = max(parent.max_dim, 0)
    key = (k.cache_key(), field, max_deg)
    cached = parent._hom_cache.get(key)
    if cached is not None:
        return cached
    counts = [len(k.simplex_ids.get(n, ())) for n in range(max_deg + 1)]
    gvs = chain_homology(counts, lambda n: _boundary_columns(k, n, field), field, k)
    parent._hom_cache[key] = gvs
    return gvs


def induced_map(a: GradedVectorSpace, b: GradedVectorSpace) -> GradedLinearMap:
    """Map on homology induced by the inclusion of a's complex into b's: the
    basis cycles of *a*, zero-extended by ``b.subcomplex.reindex``, in the
    class coordinates of *b*.  Both complexes are simplicial handles, or
    both are total complexes of cosheaf restrictions."""
    if a.field != b.field:
        raise ShapeMismatch("field mismatch")
    if not b.subcomplex.contains(a.subcomplex):
        raise NestingViolation("source subcomplex is not contained in the target")
    deg = min(a.max_deg, b.max_deg)
    mats = []
    for n in range(deg + 1):
        src_dim = a.dimension(n)
        tgt_dim = b.dimension(n)
        if src_dim == 0 or tgt_dim == 0:
            mats.append(Matrix.zeros(tgt_dim, src_dim, a.field))
            continue
        chains = b.subcomplex.reindex(a.basis(n), a.subcomplex, n)
        mats.append(b.express_cycles(n, chains))
    return GradedLinearMap(a, b, mats)

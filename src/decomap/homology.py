"""Graded simplicial homology with explicit cycle-representative bases.

Bases are chosen by completing the boundary space inside the cycle space
under the fixed pivot rule of :mod:`decomap.exactlinalg`, so the matrices
of inclusion-induced maps are reproducible and can be compared exactly.
Results are memoized on the parent complex keyed by the selected simplex
set, since the same slice tends to be requested many times.
"""

from __future__ import annotations

from .exactlinalg import GF2, Matrix, SpanSolver, _eliminate, kernel_basis, rank
from .simplicial import SimplicialComplex, boundary_matrix


class NestingViolation(Exception):
    pass


class ShapeMismatch(Exception):
    pass


class GradedVectorSpace:
    """Homology of a subcomplex in degrees 0..max_deg with chosen bases.

    ``basis(n)`` has one column per homology class, written as a cycle in
    the handle's n-chain coordinates.  Degrees above max_deg are zero by
    convention.
    """

    def __init__(self, subcomplex, field, max_deg, bases):
        self.subcomplex = subcomplex
        self.field = field
        self.max_deg = max_deg
        self._bases = bases
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
            bnd = _boundary_columns(self.subcomplex, n + 1, self.field)
            self._solvers[n] = SpanSolver(Matrix.hstack([self._bases[n], bnd]))
        return self._solvers[n]

    def express_cycles(self, n, chains: Matrix) -> Matrix:
        """Coordinates of cycle columns in the degree-n homology basis."""
        coeffs = self.class_solver(n).solve(chains)
        return Matrix._wrap(coeffs.data[: self.dimension(n), :].copy(), self.field)


class GradedLinearMap:
    """Degree-wise matrices between two graded spaces, composable exactly."""

    def __init__(self, source, target, matrices):
        self.source = source
        self.target = target
        self.matrices = list(matrices)

    def matrix(self, n) -> Matrix:
        return self.matrices[n]

    @property
    def max_deg(self):
        return len(self.matrices) - 1

    def rank(self, n):
        return rank(self.matrices[n])

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


def homology(k, field=GF2, max_deg=None) -> GradedVectorSpace:
    """Homology of a (sub)complex with deterministic cycle bases.

    Degree-n dimension is dim ker boundary_n - rank boundary_{n+1}; the
    basis completes the boundary columns to the cycle space, pivoted left
    to right, so recomputation yields identical matrices.
    """
    if isinstance(k, SimplicialComplex):
        k = k.full_handle()
    parent = k.parent
    if max_deg is None:
        max_deg = max(parent.max_dim, 0)
    key = (k.cache_key(), field, max_deg)
    cached = parent._hom_cache.get(key)
    if cached is not None:
        return cached
    bases = []
    for n in range(max_deg + 1):
        cn = len(k.simplex_ids.get(n, ()))
        if cn == 0:
            bases.append(Matrix.zeros(0, 0, field))
            continue
        if n == 0:
            cycles = Matrix.identity(cn, field)
        else:
            cycles = kernel_basis(boundary_matrix(k, n, field))
        bnd = _boundary_columns(k, n + 1, field)
        if bnd.cols == 0:
            bases.append(cycles)
            continue
        _, piv = _eliminate(Matrix.hstack([bnd, cycles]))
        chosen = [p - bnd.cols for p in piv if p >= bnd.cols]
        bases.append(cycles.take_cols(chosen))
    gvs = GradedVectorSpace(k, field, max_deg, bases)
    parent._hom_cache[key] = gvs
    return gvs


def reindex_chains(chains: Matrix, small, big, dim) -> Matrix:
    """Rewrite chain columns from a handle's coordinates into a superhandle's."""
    big_local = {pi: t for t, pi in enumerate(big.simplex_ids.get(dim, ()))}
    out = Matrix.zeros(len(big_local), chains.cols, chains.field)
    for s, pi in enumerate(small.simplex_ids.get(dim, ())):
        out.data[big_local[pi], :] = chains.data[s, :]
    return out


def induced_map(a: GradedVectorSpace, b: GradedVectorSpace) -> GradedLinearMap:
    """Map on homology induced by the inclusion of a's subcomplex into b's."""
    if a.field != b.field:
        raise ShapeMismatch("field mismatch")
    if not b.subcomplex.contains_handle(a.subcomplex):
        raise NestingViolation("source subcomplex is not contained in the target")
    deg = min(a.max_deg, b.max_deg)
    mats = []
    for n in range(deg + 1):
        src_dim = a.dimension(n)
        tgt_dim = b.dimension(n)
        if src_dim == 0 or tgt_dim == 0:
            mats.append(Matrix.zeros(tgt_dim, src_dim, a.field))
            continue
        chains = reindex_chains(a.basis(n), a.subcomplex, b.subcomplex, n)
        mats.append(b.express_cycles(n, chains))
    return GradedLinearMap(a, b, mats)


def identity_map(a: GradedVectorSpace) -> GradedLinearMap:
    return GradedLinearMap(
        a, a, [Matrix.identity(a.dimension(n), a.field) for n in range(a.max_deg + 1)]
    )


def compose(g: GradedLinearMap, f: GradedLinearMap) -> GradedLinearMap:
    """Degree-wise product g after f."""
    if len(g.matrices) != len(f.matrices):
        raise ShapeMismatch("graded lengths differ")
    out = []
    for n, (gm, fm) in enumerate(zip(g.matrices, f.matrices)):
        if gm.cols != fm.rows:
            raise ShapeMismatch(f"degree {n}: {gm.shape} after {fm.shape}")
        out.append(gm @ fm)
    return GradedLinearMap(f.source, g.target, out)

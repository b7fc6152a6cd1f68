"""Homology of cellular cosheaves on 1-dimensional complexes.

A cosheaf here assigns a graded vector space to each vertex and edge of a
graph together with extension maps from each edge value into its two
endpoint values.  Per degree, the chain complex is a single block matrix
from the edge-block to the vertex-block; H0 is its cokernel (kept as
representatives plus an explicit projection) and H1 its kernel.

Every function reads a :class:`CosheafData`: the cellular Leray cosheaf
of :mod:`decomap.leray_cosheaf` is one, and so is any hand-built cosheaf
such as :func:`constant_cosheaf`, so they apply to any graph — not only
nerves of interval covers (whose nerves are disjoint unions of paths and
never have cycles).  The boundary of an edge ``(u, v)`` is its image in
v minus its image in u.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .exactlinalg import (
    GF2,
    Matrix,
    NotInSpan,
    SpanSolver,
    cokernel_basis,
    kernel_basis,
)
from .homology import NestingViolation


class SolveFailure(Exception):
    """Internal inconsistency: a chain that must be solvable was not."""


@dataclass
class CosheafData:
    """Graded cosheaf on a graph: dims per cell and edge-to-vertex maps.

    ``maps[(u, v)]`` holds two per-degree matrix lists ``(to_u, to_v)``.
    """

    vertices: tuple
    edges: tuple
    vdims: dict
    edims: dict
    maps: dict
    field: str
    max_deg: int
    _cache: dict = dc_field(default_factory=dict, repr=False)

    def members(self, vertices, edges):
        """The given vertices and edges as tuples in this cosheaf's order;
        raises ``NestingViolation`` unless all are cells of this one."""
        vset = set(vertices)
        eset = set(edges)
        vs = tuple(v for v in self.vertices if v in vset)
        es = tuple(e for e in self.edges if e in eset)
        if len(vs) != len(vset) or len(es) != len(eset):
            raise NestingViolation("restriction members are not part of this cosheaf")
        return vs, es

    def restrict(self, vertices, edges) -> CosheafData:
        """The cosheaf on the given members, which must be cells of this one."""
        vs, es = self.members(vertices, edges)
        return CosheafData(
            vs,
            es,
            {v: self.vdims[v] for v in vs},
            {e: self.edims[e] for e in es},
            {e: self.maps[e] for e in es},
            self.field,
            self.max_deg,
        )


def constant_cosheaf(n_vertices, edges, field=GF2):
    """The constant cosheaf k on a graph: 1-dimensional stalks, identity maps."""
    verts = tuple(range(n_vertices))
    edges = tuple(sorted(tuple(sorted(e)) for e in edges))
    ident = Matrix.identity(1, field)
    return CosheafData(
        verts,
        edges,
        {v: [1] for v in verts},
        {e: [1] for e in edges},
        {e: ([ident], [ident]) for e in edges},
        field,
        0,
    )


class CosheafChainComplex:
    """Edge-block -> vertex-block boundary in one fixed degree."""

    def __init__(self, data: CosheafData, n):
        self.degree = n
        self.field = data.field
        self.vertex_offsets = {}
        off = 0
        for v in data.vertices:
            self.vertex_offsets[v] = off
            off += _dim(data.vdims[v], n)
        self.vertex_dim = off
        self.edge_offsets = {}
        off = 0
        for e in data.edges:
            self.edge_offsets[e] = off
            off += _dim(data.edims[e], n)
        self.edge_dim = off
        blocks = []
        for e in data.edges:
            u, v = e
            d = _dim(data.edims[e], n)
            if d == 0:
                continue
            to_u, to_v = data.maps[e]
            mu = _degree_matrix(to_u, n, _dim(data.vdims[u], n), d, data.field)
            mv = _degree_matrix(to_v, n, _dim(data.vdims[v], n), d, data.field)
            c0 = self.edge_offsets[e]
            # boundary of the edge (u, v), u < v: +r_v - r_u
            blocks.append((self.vertex_offsets[v], c0, mv))
            blocks.append((self.vertex_offsets[u], c0, -mu))
        self.boundary = Matrix.from_blocks(
            self.vertex_dim, self.edge_dim, blocks, data.field
        )


def _dim(dims, n):
    return dims[n] if 0 <= n < len(dims) else 0


def _degree_matrix(mats, n, rows, cols, field):
    if 0 <= n < len(mats):
        return mats[n]
    return Matrix.zeros(rows, cols, field)


class DegreeHomology:
    """H0 (representatives + projection) and H1 (kernel basis) in one degree."""

    def __init__(self, chain: CosheafChainComplex):
        self.chain = chain
        self.h0_reps, self.h0_proj = cokernel_basis(chain.boundary, chain.vertex_dim)
        self.h1_basis = kernel_basis(chain.boundary)
        self._h1_solver = None

    @property
    def h0_dim(self):
        return self.h0_reps.cols

    @property
    def h1_dim(self):
        return self.h1_basis.cols

    def h1_solver(self) -> SpanSolver:
        if self._h1_solver is None:
            self._h1_solver = SpanSolver(self.h1_basis)
        return self._h1_solver


class CosheafHomology:
    """Per-degree homology of a cosheaf on a graph."""

    def __init__(self, data: CosheafData):
        self.data = data
        self.degrees = [
            DegreeHomology(CosheafChainComplex(data, n)) for n in range(data.max_deg + 1)
        ]

    def h0_dims(self):
        return tuple(d.h0_dim for d in self.degrees)

    def h1_dims(self):
        return tuple(d.h1_dim for d in self.degrees)

    def euler_ok(self):
        """dim H0 - dim H1 == vertex block - edge block, degree-wise."""
        return all(
            d.h0_dim - d.h1_dim == d.chain.vertex_dim - d.chain.edge_dim
            for d in self.degrees
        )


def cosheaf_homology(d: CosheafData) -> CosheafHomology:
    """H0 and H1 of the cosheaf in every degree up to its max_deg."""
    return CosheafHomology(d)


def homology_of_restriction(full: CosheafData, vertices, edges) -> CosheafHomology:
    """Cached cosheaf homology of a restriction of *full*, one entry per
    set of members whatever order they come in."""
    key = full.members(vertices, edges)
    got = full._cache.get(key)
    if got is None:
        got = CosheafHomology(full.restrict(*key))
        full._cache[key] = got
    return got


def _block_rows(small_offsets, big_offsets, dims, n):
    """Where each row of a small block vector lands in the big one."""
    return [
        big_offsets[cell] + t
        for cell in small_offsets
        for t in range(_dim(dims[cell], n))
    ]


def induced_cosheaf_map(data: CosheafData, k_small, k_big):
    """Maps on cosheaf homology induced by an inclusion of subgraphs.

    *k_small* and *k_big* carry ``vertices`` and ``edges`` (a
    :class:`~decomap.interval_cover.SubNerve`, say).  Returns one
    ``(h0_matrix, h1_matrix)`` pair per degree.  H1 classes are
    zero-extended kernel chains re-expressed in the big kernel basis; H0
    classes are zero-extended vertex representatives pushed through the big
    cokernel projection.
    """
    if not (set(k_small.vertices) <= set(k_big.vertices)
            and set(k_small.edges) <= set(k_big.edges)):
        raise NestingViolation("the small subgraph is not inside the big one")
    small = homology_of_restriction(data, k_small.vertices, k_small.edges)
    big = homology_of_restriction(data, k_big.vertices, k_big.edges)
    out = []
    for n in range(data.max_deg + 1):
        s = small.degrees[n]
        b = big.degrees[n]
        at = _block_rows(s.chain.vertex_offsets, b.chain.vertex_offsets, data.vdims, n)
        ext_reps = Matrix.from_blocks(
            b.chain.vertex_dim, s.h0_dim, [(at, 0, s.h0_reps)], data.field
        )
        h0 = b.h0_proj @ ext_reps
        if s.h1_dim == 0 or b.h1_dim == 0:
            h1 = Matrix.zeros(b.h1_dim, s.h1_dim, data.field)
        else:
            at = _block_rows(s.chain.edge_offsets, b.chain.edge_offsets, data.edims, n)
            ext_ker = Matrix.from_blocks(
                b.chain.edge_dim, s.h1_dim, [(at, 0, s.h1_basis)], data.field
            )
            try:
                h1 = b.h1_solver().solve(ext_ker)
            except NotInSpan as exc:  # pragma: no cover - indicates a bug
                raise SolveFailure(
                    "extended kernel chain escaped the big kernel"
                ) from exc
        out.append((h0, h1))
    return out

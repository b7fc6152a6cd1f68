"""Homology of cellular cosheaves on 1-dimensional complexes.

A cosheaf here assigns a graded vector space to each vertex and edge of a
graph together with extension maps from each edge value into its two
endpoint values.  Per degree, the chain complex is a single block matrix
from the edge-block to the vertex-block, and its homology (H0 in degree
0, H1 in degree 1) comes from the engine of :mod:`decomap.homology`, as
for any other chain complex; this module only assembles the blocks.

Every function reads a :class:`CosheafData`: the cellular Leray cosheaf
of :mod:`decomap.leray_cosheaf` is one, and so is any hand-built cosheaf
such as :func:`constant_cosheaf`, so they apply to any graph — not only
nerves of interval covers (whose nerves are disjoint unions of paths and
never have cycles).  The boundary of an edge ``(u, v)`` is its image in
v minus its image in u.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .exactlinalg import GF2, Matrix
from .homology import GradedVectorSpace, NestingViolation, chain_homology


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
    """Edge-block -> vertex-block boundary in one fixed degree.

    ``cells[0]`` maps each vertex, and ``cells[1]`` each edge, to the rows
    its value takes in the vertex-block or edge-block.
    """

    def __init__(self, data: CosheafData, n):
        self.degree = n
        self.field = data.field
        self.cells = (
            _rows_of(data.vertices, data.vdims, n),
            _rows_of(data.edges, data.edims, n),
        )
        self.counts = tuple(sum(map(len, cells.values())) for cells in self.cells)
        self.vertex_dim, self.edge_dim = self.counts
        vertex_rows, edge_rows = self.cells
        blocks = []
        for e, cols in edge_rows.items():
            # boundary of the edge (u, v), u < v: +r_v - r_u; a degree
            # beyond the maps given is a zero map
            for cell, mats, sign in zip(e, data.maps[e], (-1, 1)):
                if n < len(mats):
                    m = mats[n] if sign > 0 else -mats[n]
                    blocks.append((vertex_rows[cell].start, cols.start, m))
        self.boundary = Matrix.from_blocks(
            self.vertex_dim, self.edge_dim, blocks, data.field
        )

    def homology(self) -> GradedVectorSpace:
        """H0 in degree 0 and H1 in degree 1, from the homology engine;
        no cell lies above the edges."""
        above = Matrix.zeros(self.edge_dim, 0, self.field)
        return chain_homology(
            self.counts, lambda n: self.boundary if n == 1 else above, self.field, self
        )

    def reindex(self, chains: Matrix, small: CosheafChainComplex, k) -> Matrix:
        """Degree-k chain columns of *small*, the complex of a restriction,
        rewritten in this complex's coordinates."""
        at = [t for cell, rows in small.cells[k].items() for t in self.cells[k][cell]]
        return Matrix.from_blocks(
            self.counts[k], chains.cols, [(at, 0, chains)], self.field
        )


def _rows_of(cells, dims, n):
    """Each cell's rows in the block that stacks the cells' degree-n values."""
    rows = {}
    off = 0
    for cell in cells:
        d = dims[cell][n] if n < len(dims[cell]) else 0
        rows[cell] = range(off, off + d)
        off += d
    return rows


class CosheafHomology:
    """Per-degree homology of a cosheaf on a graph: ``degrees[n]`` is the
    homology of the degree-n chain complex, H0 in its degree 0 and H1 in
    its degree 1."""

    def __init__(self, data: CosheafData):
        self.data = data
        self.degrees = [
            CosheafChainComplex(data, n).homology() for n in range(data.max_deg + 1)
        ]

    def h0_dims(self):
        return tuple(d.dimension(0) for d in self.degrees)

    def h1_dims(self):
        return tuple(d.dimension(1) for d in self.degrees)

    def euler_ok(self):
        """dim H0 - dim H1 == vertex block - edge block, degree-wise."""
        return all(
            d.dimension(0) - d.dimension(1)
            == d.subcomplex.vertex_dim - d.subcomplex.edge_dim
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


def _class_map(s: GradedVectorSpace, b: GradedVectorSpace, k) -> Matrix:
    """Degree-k classes of *s* zero-extended into *b*'s complex, in *b*'s basis."""
    if s.dimension(k) == 0 or b.dimension(k) == 0:
        return Matrix.zeros(b.dimension(k), s.dimension(k), b.field)
    chains = b.subcomplex.reindex(s.basis(k), s.subcomplex, k)
    return b.express_cycles(k, chains)


def induced_cosheaf_map(data: CosheafData, k_small, k_big):
    """Maps on cosheaf homology induced by an inclusion of subgraphs.

    *k_small* and *k_big* carry ``vertices`` and ``edges`` (a
    :class:`~decomap.interval_cover.SubNerve`, say).  Returns one
    ``(h0_matrix, h1_matrix)`` pair per degree: the basis chains of the
    small homology, zero-extended and re-expressed in the big basis.
    """
    if not (set(k_small.vertices) <= set(k_big.vertices)
            and set(k_small.edges) <= set(k_big.edges)):
        raise NestingViolation("the small subgraph is not inside the big one")
    small = homology_of_restriction(data, k_small.vertices, k_small.edges)
    big = homology_of_restriction(data, k_big.vertices, k_big.edges)
    return [
        (_class_map(s, b, 0), _class_map(s, b, 1))
        for s, b in zip(small.degrees, big.degrees)
    ]

"""Homology of cellular cosheaves on 1-dimensional complexes.

A cosheaf here assigns a graded vector space to each vertex and edge of a
graph together with extension maps from each edge value into its two
endpoint values.  Its homology is that of one total chain complex
(:class:`CosheafChainComplex`): degree n stacks every vertex's degree-n
value, then every edge's degree-(n-1) value, and the boundary sends each
edge value to its endpoints and each vertex value to zero.  So total
degree n holds H0 of the degree-n values beside H1 of the degree-(n-1)
values; over the sub-nerve K_V of a cellular Leray cosheaf, this is the
value of the continuous extension at V.  The bases, class coordinates and
induced maps come from the engine of :mod:`decomap.homology`, as for any
other chain complex (:func:`~decomap.homology.induced_map`, through the
complex's ``contains`` and ``reindex``); this module only assembles the
blocks.

Every function reads a :class:`CosheafData`: the cellular Leray cosheaf
of :mod:`decomap.leray_cosheaf` is one, and so is any hand-built cosheaf
such as :func:`constant_cosheaf`, so they apply to any graph without
loops or repeated edges — not only nerves of interval covers (whose
nerves are disjoint unions of paths and never have cycles).  The
boundary of an edge ``(u, v)`` is its image in v minus its image in u.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .exactlinalg import GF2, Matrix
from .homology import GradedVectorSpace, NestingViolation, chain_homology, induced_map


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

    def __post_init__(self):
        """Reject a graph the blocks cannot hold: every edge joins two
        distinct vertices of this cosheaf and is listed once."""
        vset = set(self.vertices)
        for e in self.edges:
            if len(e) != 2 or e[0] == e[1] or not vset.issuperset(e):
                raise ValueError(f"edge {e} does not join two distinct vertices of the cosheaf")
        if len(set(self.edges)) != len(self.edges):
            raise ValueError("an edge is listed more than once")

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
    """The constant cosheaf k on a graph: 1-dimensional stalks, identity
    maps, and the graph's own homology in degrees 0 and 1."""
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
        1,
    )


class CosheafChainComplex:
    """The cosheaf's total complex, in degrees 0..max_deg+1.

    Degree n stacks every vertex's degree-n value, then every edge's
    degree-(n-1) value: ``cells[n]`` is the pair (vertex rows, edge rows),
    each mapping a cell to the rows its value takes.  ``boundary(n)``
    sends the edge (u, v) to its image in v minus its image in u, and each
    vertex value to zero.
    """

    def __init__(self, data: CosheafData):
        self.field = data.field
        self.maps = data.maps
        self.cells, counts = [], []
        for n in range(data.max_deg + 2):
            vertex_rows, off = _rows_of(data.vertices, data.vdims, n, 0)
            edge_rows, off = _rows_of(data.edges, data.edims, n - 1, off)
            self.cells.append((vertex_rows, edge_rows))
            counts.append(off)
        self.counts = tuple(counts)

    def boundary(self, n) -> Matrix:
        vertex_rows = self.cells[n - 1][0]
        blocks = []
        for e, cols in self.cells[n][1].items():
            # a degree beyond the maps given is a zero map
            for cell, mats, sign in zip(e, self.maps[e], (-1, 1)):
                if n - 1 < len(mats):
                    m = mats[n - 1] if sign > 0 else -mats[n - 1]
                    blocks.append((vertex_rows[cell].start, cols.start, m))
        return Matrix.from_blocks(self.counts[n - 1], self.counts[n], blocks, self.field)

    def contains(self, other):
        """True when *other*, the complex of a restriction, has only cells
        of this one."""
        return all(
            mine.keys() >= theirs.keys() for mine, theirs in zip(self.cells[0], other.cells[0])
        )

    def reindex(self, chains: Matrix, small: CosheafChainComplex, n) -> Matrix:
        """Degree-n chain columns of *small*, the complex of a restriction,
        rewritten in this complex's coordinates."""
        at = [
            t
            for mine, theirs in zip(self.cells[n], small.cells[n])
            for cell in theirs
            for t in mine[cell]
        ]
        return Matrix.from_blocks(self.counts[n], chains.cols, [(at, 0, chains)], self.field)


def _rows_of(cells, dims, n, off):
    """Each cell's rows for its degree-n value, stacked from row *off*, and
    the row after the last."""
    rows = {}
    for cell in cells:
        d = dims[cell][n] if 0 <= n < len(dims[cell]) else 0
        rows[cell] = range(off, off + d)
        off += d
    return rows, off


def cosheaf_homology(d: CosheafData) -> GradedVectorSpace:
    """Homology of the cosheaf's total complex in degrees 0..max_deg."""
    cc = CosheafChainComplex(d)
    return chain_homology(cc.counts[:-1], cc.boundary, d.field, cc)


def homology_of_restriction(full: CosheafData, vertices, edges) -> GradedVectorSpace:
    """Cached cosheaf homology of a restriction of *full*, one entry per
    set of members whatever order they come in."""
    key = full.members(vertices, edges)
    got = full._cache.get(key)
    if got is None:
        got = cosheaf_homology(full.restrict(*key))
        full._cache[key] = got
    return got


def induced_cosheaf_map(data: CosheafData, k_small, k_big):
    """Map on cosheaf homology induced by an inclusion of subgraphs.

    *k_small* and *k_big* carry ``vertices`` and ``edges`` (a
    :class:`~decomap.interval_cover.SubNerve`, say); ``NestingViolation``
    unless the small subgraph is inside the big one.
    """
    small = homology_of_restriction(data, k_small.vertices, k_small.edges)
    big = homology_of_restriction(data, k_big.vertices, k_big.edges)
    return induced_map(small, big)

"""Cellular cosheaf of a scalar field over a cover nerve, and its
component-refined form, the decorated mapper graph.

The cellular cosheaf assigns to each nerve vertex the graded homology of
the combinatorial preimage of its cover element, to each nerve edge the
homology of the overlap preimage, and to each face relation the
inclusion-induced map (edge value into both endpoint values).

The decorated mapper graph refines this by connected components: one node
per component of an element preimage, one multigraph edge per component of
an overlap preimage, each decorated with its own graded homology and the
two induced maps into the unique containing node components.  Forgetting
degrees >= 1 recovers the classical mapper graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .cosheaf_homology import CosheafData
from .exactlinalg import GF2
from .homology import GradedLinearMap, GradedVectorSpace, homology, induced_map
from .interval_cover import Cover, admissible, nerve
from .simplicial import ScalarField, SimplicialComplex, connected_components, preimage_subcomplex


class NotAdmissible(Exception):
    def __init__(self, offender):
        super().__init__(
            f"simplex {offender} has vertex values inside no single cover element"
        )
        self.offender = offender


@dataclass(eq=False, repr=False, kw_only=True)
class CellularCosheaf(CosheafData):
    """Graded homology data over the nerve of an admissible interval cover.

    The :class:`CosheafData` fields hold the dims and matrices that the
    cosheaf homology engine reads; the complex, function and cover it was
    built over, and the preimage handles and graded spaces the data were
    taken from, stay alongside for the witness layer.  Its
    ``vertices`` and ``edges`` are the nerve of ``cover``, so the cosheaf
    stands for its nerve wherever a sub-nerve is read: ``sub_nerve(cover,
    d, v)``, or *d* itself as the full one.
    """

    complex: SimplicialComplex
    function: ScalarField
    cover: Cover
    vertex_handles: dict
    vertex_values: dict
    edge_handles: dict
    edge_values: dict
    # MV witnesses per sub-nerve, memoized by the convergence layer;
    # chain_solvers stays empty (the witnesses solve with the vertex
    # values' class solvers) and is kept for the benchmark's cache resets
    witness_cache: dict = dc_field(default_factory=dict)
    chain_solvers: dict = dc_field(default_factory=dict)

    # the caches make each built cosheaf one object: compare by identity
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def cosheaf_data(self) -> CosheafData:
        """This cosheaf, as the record the cosheaf homology engine reads."""
        return self


def build_cellular_leray(x, f, c: Cover, field=GF2, max_deg=None) -> CellularCosheaf:
    """Cosheaf on the nerve decorated with preimage homology and induced maps.

    Requires a 1-dimensional nerve and an admissible cover; both are
    validated up front so downstream exactness arguments hold.
    """
    nv = nerve(c)
    adm = admissible(c, x, f)
    if not adm:
        raise NotAdmissible(adm.offender)
    if max_deg is None:
        max_deg = max(x.max_dim, 0)
    vertex_handles = {i: preimage_subcomplex(x, f, c[i]) for i in nv.vertices}
    vertex_values = {i: homology(h, field, max_deg) for i, h in vertex_handles.items()}
    edge_handles = {}
    edge_values = {}
    maps = {}
    for e in nv.edges:
        handle = preimage_subcomplex(x, f, c.edge_interval(*e))
        gvs = homology(handle, field, max_deg)
        edge_handles[e] = handle
        edge_values[e] = gvs
        maps[e] = tuple(induced_map(gvs, vertex_values[i]).matrices for i in e)
    return CellularCosheaf(
        nv.vertices,
        nv.edges,
        {i: gvs.dims() for i, gvs in vertex_values.items()},
        {e: gvs.dims() for e, gvs in edge_values.items()},
        maps,
        field,
        max_deg,
        complex=x,
        function=f,
        cover=c,
        vertex_handles=vertex_handles,
        vertex_values=vertex_values,
        edge_handles=edge_handles,
        edge_values=edge_values,
    )


@dataclass
class MapperNode:
    node_id: str
    cover_index: int
    component_index: int
    value: GradedVectorSpace
    vertices: tuple


@dataclass
class MapperEdge:
    edge_id: str
    cover_pair: tuple
    component_index: int
    value: GradedVectorSpace
    source: int
    target: int
    to_source: GradedLinearMap
    to_target: GradedLinearMap


class DecoratedMapperGraph:
    """Multigraph of preimage components decorated with graded homology."""

    def __init__(self, cover, field, max_deg, nodes, edges, cosheaf):
        self.cover = cover
        self.field = field
        self.max_deg = max_deg
        self.nodes = nodes
        self.edges = edges
        self.cosheaf = cosheaf


def build_decorated_mapper(x, f, c: Cover, field=GF2, max_deg=None) -> DecoratedMapperGraph:
    """Component-refined cellular cosheaf (one node per preimage component)."""
    d = build_cellular_leray(x, f, c, field, max_deg)
    nodes = []
    node_of_vertex = {}  # (cover index, complex vertex) -> node position
    for i in d.vertices:
        comps = connected_components(d.vertex_handles[i])
        for ci, comp in enumerate(comps):
            pos = len(nodes)
            nodes.append(
                MapperNode(
                    f"n{i}_{ci}", i, ci,
                    homology(comp, field, d.max_deg),
                    tuple(sorted(comp.vertices)),
                )
            )
            for v in comp.vertices:
                node_of_vertex[(i, v)] = pos
    edges = []
    for (i, j) in d.edges:
        comps = connected_components(d.edge_handles[(i, j)])
        for ci, comp in enumerate(comps):
            gvs = homology(comp, field, d.max_deg)
            anchor = next(iter(comp.vertices))
            src = node_of_vertex[(i, anchor)]
            tgt = node_of_vertex[(j, anchor)]
            edges.append(
                MapperEdge(
                    f"e{i}_{j}_{ci}", (i, j), ci, gvs, src, tgt,
                    induced_map(gvs, nodes[src].value),
                    induced_map(gvs, nodes[tgt].value),
                )
            )
    return DecoratedMapperGraph(c, field, d.max_deg, nodes, edges, d)

"""Finite simplicial complexes carrying a vertex-valued scalar function.

Complexes are immutable after construction.  Subsets of a complex are
represented by lightweight handles (vertex set + per-dimension simplex
index sets) that stay valid views into the parent, so preimages,
components and nested inclusions can be compared by index arithmetic
rather than by rebuilding complexes.

The combinatorial preimage of an open interval is the full induced
subcomplex on the vertices whose value falls inside the interval.  For an
interval this coincides with the set of simplices whose piecewise-linear
image lies in the interval (vertex values of a simplex span a convex
range).  Preimages of disjoint unions keep a simplex only when all its
vertex values sit in a single piece.
"""

from __future__ import annotations

from itertools import combinations

from .exactlinalg import GF2, Matrix, as_fraction


class DuplicateVertexInSimplex(Exception):
    pass


class MissingFunctionValue(Exception):
    def __init__(self, vertex):
        super().__init__(f"no function value for vertex {vertex}")
        self.vertex = vertex


class DegreeOutOfRange(Exception):
    pass


class SimplicialComplex:
    """Face-closed complex; simplices are strictly increasing vertex tuples."""

    def __init__(self, simplices_by_dim):
        self.simplices = {
            d: tuple(sorted(sims)) for d, sims in simplices_by_dim.items() if sims
        }
        self.max_dim = max(self.simplices, default=-1)
        self.vertices = tuple(s[0] for s in self.simplices.get(0, ()))
        self._maximal = None
        self._hom_cache = {}

    def n_simplices(self, dim):
        return self.simplices.get(dim, ())

    def maximal_simplices(self):
        """Simplices that are not a proper face of any other simplex."""
        if self._maximal is None:
            out = []
            for d in sorted(self.simplices):
                if d == self.max_dim:
                    out.extend(self.simplices[d])
                    continue
                covered = set()
                for s in self.simplices.get(d + 1, ()):
                    covered.update(combinations(s, d + 1))
                out.extend(s for s in self.simplices[d] if s not in covered)
            self._maximal = tuple(out)
        return self._maximal

    def full_handle(self):
        return SubcomplexHandle(
            self,
            frozenset(self.vertices),
            {d: tuple(range(len(sims))) for d, sims in self.simplices.items()},
        )


class ScalarField:
    """Total map vertex id -> exact rational value, extended affinely."""

    def __init__(self, values):
        self.values = {v: as_fraction(x) for v, x in values.items()}

    def __call__(self, vertex):
        return self.values[vertex]

    def min_value(self):
        return min(self.values.values())

    def max_value(self):
        return max(self.values.values())


class SubcomplexHandle:
    """Read-only view of a subset of a parent complex (itself face-closed)."""

    __slots__ = ("parent", "vertices", "simplex_ids", "_key")

    def __init__(self, parent, vertices, simplex_ids):
        self.parent = parent
        self.vertices = frozenset(vertices)
        self.simplex_ids = {d: tuple(ids) for d, ids in simplex_ids.items() if ids}
        self._key = None

    def n_simplices(self, dim):
        sims = self.parent.simplices.get(dim, ())
        return tuple(sims[i] for i in self.simplex_ids.get(dim, ()))

    def cache_key(self):
        """Stable identity of the selected simplices, for memoization."""
        if self._key is None:
            self._key = (
                id(self.parent),
                tuple(sorted(self.vertices)),
                tuple((d, self.simplex_ids[d]) for d in sorted(self.simplex_ids)),
            )
        return self._key

    def contains(self, other):
        """True when *other* selects a subset of this handle's simplices."""
        if other.parent is not self.parent:
            return False
        for d, ids in other.simplex_ids.items():
            mine = set(self.simplex_ids.get(d, ()))
            if not mine.issuperset(ids):
                return False
        return True

    def reindex(self, chains, small, n) -> Matrix:
        """Degree-n chain columns of *small*, a handle inside this one,
        rewritten in this handle's coordinates."""
        local = {pi: t for t, pi in enumerate(self.simplex_ids.get(n, ()))}
        at_rows = [local[pi] for pi in small.simplex_ids.get(n, ())]
        return Matrix.from_blocks(len(local), chains.cols, [(at_rows, 0, chains)], chains.field)


def build_complex(simplices, values):
    """Face-close the given simplices and attach the scalar field.

    Raises :class:`DuplicateVertexInSimplex` for a repeated vertex inside a
    tuple and :class:`MissingFunctionValue` when some appearing vertex has
    no value.
    """
    by_dim = {}
    seen = {}
    for s in simplices:
        t = tuple(s)
        if len(set(t)) != len(t):
            raise DuplicateVertexInSimplex(f"simplex {t} repeats a vertex")
        t = tuple(sorted(t))
        for k in range(1, len(t) + 1):
            for face in combinations(t, k):
                d = k - 1
                bucket = seen.setdefault(d, set())
                if face not in bucket:
                    bucket.add(face)
                    by_dim.setdefault(d, []).append(face)
    complex_ = SimplicialComplex(by_dim)
    field_values = {}
    for v in complex_.vertices:
        if v not in values:
            raise MissingFunctionValue(v)
        field_values[v] = values[v]
    return complex_, ScalarField(field_values)


def boundary_matrix(k, n, field=GF2) -> Matrix:
    """Boundary map from n-chains to (n-1)-chains of a (sub)complex.

    Rows are indexed by the handle's (n-1)-simplices, columns by its
    n-simplices; deleting vertex position i contributes (-1)^i (1 over
    GF(2)).
    """
    if isinstance(k, SimplicialComplex):
        k = k.full_handle()
    if n < 1 or n > max(k.parent.max_dim, 1):
        raise DegreeOutOfRange(f"degree {n} outside 1..{k.parent.max_dim}")
    rows = k.n_simplices(n - 1)
    cols = k.n_simplices(n)
    row_idx = {s: i for i, s in enumerate(rows)}
    faces = range(n + 1)
    signs = [-1 if i & 1 else 1 for i in faces]
    return Matrix.from_entries(
        len(rows),
        len(cols),
        [row_idx[s[:i] + s[i + 1 :]] for s in cols for i in faces],
        [j for j in range(len(cols)) for _ in faces],
        signs * len(cols),
        field,
    )


def _induced_handle(x, selected, piece_of=None):
    """Full induced subcomplex on *selected* vertices.

    With *piece_of* given (vertex -> piece id), a simplex is kept only when
    all its vertices share a piece, which models preimages of disjoint
    interval unions.
    """
    ids = {}
    for d, sims in x.simplices.items():
        keep = []
        for i, s in enumerate(sims):
            if not all(v in selected for v in s):
                continue
            if piece_of is not None and len({piece_of[v] for v in s}) > 1:
                continue
            keep.append(i)
        if keep:
            ids[d] = tuple(keep)
    return SubcomplexHandle(x, frozenset(selected), ids)


def preimage_subcomplex(x, f, v):
    """Combinatorial preimage of an open interval under the scalar field."""
    selected = {w for w in x.vertices if v.contains(f(w))}
    return _induced_handle(x, selected)


def preimage_of_union(x, f, intervals):
    """Preimage of a disjoint union of open intervals (one piece each)."""
    piece_of = {}
    for w in x.vertices:
        val = f(w)
        for t, iv in enumerate(intervals):
            if iv.contains(val):
                piece_of[w] = t
                break
    return _induced_handle(x, set(piece_of), piece_of)


def connected_components(k):
    """Maximal pieces of a handle joined by shared vertices along edges.

    Components come back ordered by their smallest vertex id; every simplex
    of the handle lands in exactly one component.
    """
    parent = k.parent
    adj = {v: [] for v in k.vertices}
    for a, b in k.n_simplices(1):
        adj[a].append(b)
        adj[b].append(a)
    comp_of = {}
    roots = []
    for start in sorted(k.vertices):
        if start in comp_of:
            continue
        label = len(roots)
        roots.append(start)
        stack = [start]
        comp_of[start] = label
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in comp_of:
                    comp_of[w] = label
                    stack.append(w)
    verts = [set() for _ in roots]
    ids = [{} for _ in roots]
    for v, c in comp_of.items():
        verts[c].add(v)
    for d, idxs in k.simplex_ids.items():
        sims = parent.simplices[d]
        for i in idxs:
            c = comp_of[sims[i][0]]
            ids[c].setdefault(d, []).append(i)
    return [
        SubcomplexHandle(parent, verts[c], ids[c]) for c in range(len(roots))
    ]


def euler_characteristic(k):
    if isinstance(k, SimplicialComplex):
        k = k.full_handle()
    return sum((-1) ** d * len(ids) for d, ids in k.simplex_ids.items())


def _link_is_tree(verts, edges):
    """True when the graph on *verts* with *edges* (all between them) is a
    tree: nonempty, connected and with one edge fewer than vertices."""
    if not verts or len(edges) != len(verts) - 1:
        return False
    adj = {v: [] for v in verts}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = set()
    stack = [next(iter(verts))]
    while stack:
        u = stack.pop()
        if u in seen:
            continue
        seen.add(u)
        stack.extend(adj[u])
    return len(seen) == len(verts)


def critical_values(x, f):
    """Values where the sublevel topology of the field can change.

    A vertex is regular when both its strict lower link and strict upper
    link are trees (graphs through the link edges contributed by the
    triangles at the vertex), that is nonempty with zero reduced
    homology; the returned sorted list collects the values of all
    non-regular vertices.  Exact for PL fields on complexes of dimension
    <= 2, where the links are graphs; a higher-dimensional complex raises
    ``ValueError``, since its links have cells the graph rule cannot read.
    """
    if x.max_dim > 2:
        raise ValueError(
            f"critical values are exact only up to dimension 2, not {x.max_dim}"
        )
    link_verts = {v: set() for v in x.vertices}
    link_edges = {v: [] for v in x.vertices}
    for a, b in x.simplices.get(1, ()):
        link_verts[a].add(b)
        link_verts[b].add(a)
    for tri in x.simplices.get(2, ()):
        for i in range(3):
            v = tri[i]
            opp = tri[:i] + tri[i + 1 :]
            link_edges[v].append(opp)
    crit = set()
    for v in x.vertices:
        fv = f(v)
        lower = {u for u in link_verts[v] if f(u) < fv}
        upper = {u for u in link_verts[v] if f(u) > fv}
        lo_edges = [e for e in link_edges[v] if e[0] in lower and e[1] in lower]
        up_edges = [e for e in link_edges[v] if e[0] in upper and e[1] in upper]
        if not (_link_is_tree(lower, lo_edges) and _link_is_tree(upper, up_edges)):
            crit.add(fv)
    return sorted(crit)

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

Preimages are read off a value index, built once per complex and scalar
field and kept as a one-entry cache on the complex: the vertices sorted
by value, and per dimension the simplices sorted by the highest value
rank among their vertices, each with its lowest.  An open interval is a
range of value ranks, found by bisection; a simplex lies in its preimage
when its highest rank is below the range's end and its lowest is not
below its start, so a query compares ranks and never a function value.

Boundaries are listed from a face table, built once per complex: each
n-simplex's faces as ids of (n-1)-simplices.  :func:`boundary_faces`
picks a handle's rows of it; :func:`~decomap.exactlinalg.boundary_rank`
reduces those as they are, with no matrix, and :func:`boundary_matrix`
renumbers them into the handle's rows.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
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
        self._faces = {}
        self._value_index = None  # (scalar field, its index): one entry
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

    def face_ids(self, n):
        """Per n-simplex, the ids of its n+1 faces among the
        (n-1)-simplices; face i leaves out vertex i."""
        if n not in self._faces:
            index = {t: i for i, t in enumerate(self.simplices.get(n - 1, ()))}
            self._faces[n] = [
                tuple(index[s[:i] + s[i + 1 :]] for i in range(n + 1))
                for s in self.simplices.get(n, ())
            ]
        return self._faces[n]

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


def boundary_faces(k, n):
    """Per n-simplex of the handle, the ids of its faces among the parent's
    (n-1)-simplices, read off the face table: face i leaves out vertex i
    and has sign (-1)^i."""
    ids = k.simplex_ids.get(n)
    if not ids:
        return []
    faces = k.parent.face_ids(n)
    return [faces[pi] for pi in ids]


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
    cols = boundary_faces(k, n)
    local = {pi: t for t, pi in enumerate(k.simplex_ids.get(n - 1, ()))}
    faces = range(n + 1)
    signs = [-1 if i & 1 else 1 for i in faces]
    return Matrix.from_entries(
        len(local),
        len(cols),
        [local[q] for col in cols for q in col],
        [j for j in range(len(cols)) for _ in faces],
        signs * len(cols),
        field,
    )


def _value_index(x, f):
    """The value index of *x* under *f* (see the module docstring), built
    on the first query with this scalar field since the last with another.

    Returns ``(vertices, values, dims)``: the vertices in value order,
    their values, and per dimension ``(highs, lows, ids)``, the simplex ids
    in order of their highest vertex rank, with those ranks and their
    lowest ones.
    """
    cached = x._value_index
    if cached is not None and cached[0] is f:
        return cached[1]
    order = sorted(x.vertices, key=f)
    rank = {w: r for r, w in enumerate(order)}
    dims = {}
    for d, sims in x.simplices.items():
        spans = sorted(
            (max(ranks), min(ranks), i)
            for i, ranks in enumerate([rank[w] for w in s] for s in sims)
        )
        dims[d] = tuple(list(col) for col in zip(*spans))
    index = (order, [f(w) for w in order], dims)
    x._value_index = (f, index)
    return index


def _select(index, v):
    """Vertices and per-dimension simplex ids of the preimage of *v*."""
    order, values, dims = index
    lo = bisect_right(values, v.lo)
    hi = bisect_left(values, v.hi)
    ids = {}
    if lo < hi:
        for d, (highs, lows, sids) in dims.items():
            a = bisect_left(highs, lo)
            b = bisect_left(highs, hi, a)
            keep = [i for i, m in zip(sids[a:b], lows[a:b]) if m >= lo]
            if keep:
                keep.sort()
                ids[d] = keep
    return order[lo:hi], ids


def preimage_subcomplex(x, f, v):
    """Combinatorial preimage of an open interval under the scalar field."""
    vertices, ids = _select(_value_index(x, f), v)
    return SubcomplexHandle(x, vertices, ids)


def preimage_of_union(x, f, intervals):
    """Preimage of a disjoint union of open intervals (one piece each): the
    union of the pieces' preimages.  Pieces that overlap raise
    ``ValueError``."""
    pieces = sorted(intervals, key=lambda iv: iv.lo)
    for a, b in zip(pieces, pieces[1:]):
        if b.lo < a.hi:
            raise ValueError(f"pieces {a} and {b} overlap")
    index = _value_index(x, f)
    vertices = []
    ids = {}
    for iv in pieces:
        vs, piece_ids = _select(index, iv)
        vertices += vs
        for d, keep in piece_ids.items():
            ids.setdefault(d, []).extend(keep)
    return SubcomplexHandle(x, vertices, {d: sorted(keep) for d, keep in ids.items()})


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

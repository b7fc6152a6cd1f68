"""Continuous extension of a cellular cosheaf, with correctness witnesses.

Three layers of machinery:

* ``continuous_extension`` evaluates the cosheaf's best guess for the
  homology of a preimage over any open interval: the cosheaf homology
  over the sub-nerve K_V (``sub_nerve(c, d, v)``; the cosheaf's own
  vertices and edges are the nerve), the homology of its total complex
  (degree n holds H0 of the degree-n values beside H1 of the
  degree-(n-1) values), cached on the cosheaf.  Extension maps are the
  maps it induces, and MV witnesses start from it.

* ``mv_isomorphism`` builds the explicit Mayer-Vietoris isomorphism from
  that guess onto the homology of the preimage of the union of the K_V
  cover sets, including the chain-level zig-zag section for the H1 part.
  ``verify_commuting_square`` checks that these witnesses intertwine the
  extension maps with honest inclusion-induced maps, by exact matrix
  equality.

* ``interleaving_check`` certifies the resolution bound: with eps the
  cover resolution, candidate maps between the extension and the true
  (combinatorial) preimage homology satisfy both triangle identities
  exactly.  By functoriality they reduce to invertible witnesses and the
  square for (V, V^eps), the one square computation both checks share.
  ``convergence_table`` sweeps refined covers and counts where the
  extension still disagrees with the preimage oracle.

Every map here (extension map, MV witness and inclusion-induced map) is a
:class:`~decomap.homology.GradedLinearMap`, composed with ``@`` and
compared with ``==`` degree by degree; maps between homologies come from
:func:`~decomap.homology.induced_map`.  Everything is exact; a failed
equality is a real counterexample, not round-off.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .cosheaf_homology import homology_of_restriction, induced_cosheaf_map
from .exactlinalg import GF2, Matrix, NotInSpan
from .homology import GradedLinearMap, GradedVectorSpace, homology, induced_map
from .interval_cover import (
    OpenInterval,
    SubNerve,
    merge_intervals,
    resolution,
    sub_nerve,
    thicken,
    union_support,
)
from .leray_cosheaf import CellularCosheaf, build_cellular_leray
from .simplicial import preimage_of_union, preimage_subcomplex


class NotNested(Exception):
    pass


class SolveFailure(Exception):
    """Internal inconsistency: a chain that must be solvable was not."""


def _check_cover(d: CellularCosheaf, c):
    """Raise ``ValueError`` unless *c* has the elements *d* was built over:
    sub-nerves of another cover name cells *d* does not have."""
    if c is not d.cover and c.elements != d.cover.elements:
        raise ValueError(
            f"cover {list(c.elements)} is not the cover of the cosheaf,"
            f" {list(d.cover.elements)}"
        )


def _check_built_over(d: CellularCosheaf, x, f, c):
    """Raise ``ValueError`` unless *x*, *f* and *c* are the complex, function
    and cover *d* was built over: the preimages of another complex or
    function name simplices *d*'s witnesses do not have."""
    for name, given, own in (("complex", x, d.complex), ("function", f, d.function)):
        if given is not own:
            raise ValueError(f"the {name} is not the one the cosheaf was built over")
    _check_cover(d, c)


def continuous_extension(d: CellularCosheaf, c, v: OpenInterval) -> GradedVectorSpace:
    """Extension value at V: the cosheaf homology over K_V, cached on *d*,
    whose degree n is H0 of the degree-n values plus H1 of the degree-(n-1)
    values.

    *c* must be the cover *d* was built over (``ValueError`` otherwise).
    """
    _check_cover(d, c)
    k_v = sub_nerve(c, d, v)
    return homology_of_restriction(d, k_v.vertices, k_v.edges)


def extension_map(d: CellularCosheaf, c, v: OpenInterval, w: OpenInterval) -> GradedLinearMap:
    """C(V) -> C(W) for V inside W: the map the inclusion K_V -> K_W
    induces on cosheaf homology."""
    if not (w.lo <= v.lo and v.hi <= w.hi):
        raise NotNested(f"{v} is not contained in {w}")
    _check_cover(d, c)
    return induced_cosheaf_map(d, sub_nerve(c, d, v), sub_nerve(c, d, w))


def union_preimage(x, f, c, k_v: SubNerve):
    """Combinatorial preimage of the union of the K_V cover sets."""
    return preimage_of_union(x, f, union_support(c, k_v))


def oracle_union_homology(x, f, c, k_v: SubNerve, field=GF2, max_deg=None) -> GradedVectorSpace:
    """Brute-force homology of the union preimage; the independent oracle."""
    return homology(union_preimage(x, f, c, k_v), field, max_deg)


def mv_isomorphism(x, f, c, d: CellularCosheaf, k_v: SubNerve) -> GradedLinearMap:
    """The Mayer-Vietoris isomorphism from the extension value over K_V onto
    the homology of the union preimage, one matrix per degree.

    Each basis class has vertex rows and edge rows.  The vertex rows are
    homology classes of the vertex preimages, included into the union as
    cycles; the edge rows are cycle chains on the overlaps, whose
    pushforward each vertex preimage bounds (an exact solve; admissibility
    guarantees solvability), and the bounding chains glue into a cycle of
    the union.  The sum of both parts is a chain of the union, expressed
    in its homology basis.
    """
    _check_built_over(d, x, f, c)
    key = (k_v.vertices, k_v.edges)
    if key in d.witness_cache:
        return d.witness_cache[key]
    hom = homology_of_restriction(d, k_v.vertices, k_v.edges)
    big = union_preimage(x, f, c, k_v)
    target = homology(big, d.field, d.max_deg)
    mats = []
    for n in range(d.max_deg + 1):
        basis = hom.basis(n)
        vertex_rows, edge_rows = hom.subcomplex.cells[n]
        chains = _zig_zag(d, basis, edge_rows, big, n)
        for i, rows in vertex_rows.items():
            if rows and basis.cols:
                cycles = big.reindex(d.vertex_values[i].basis(n), d.vertex_handles[i], n)
                chains = chains + cycles @ basis.take_rows(rows)
        if target.dimension(n) and chains.cols:
            mats.append(target.express_cycles(n, chains))
        else:
            mats.append(Matrix.zeros(target.dimension(n), chains.cols, d.field))
    witness = GradedLinearMap(hom, target, mats)
    d.witness_cache[key] = witness
    return witness


def _zig_zag(d: CellularCosheaf, basis: Matrix, edge_rows, big, n) -> Matrix:
    """n-chains of the union, one per column of *basis*: each vertex
    bounds its share of the overlap cycles that the column's *edge_rows*
    name, and the bounding chains glue (zero for a class without them)."""
    per_vertex = {}
    for e, rows in edge_rows.items():
        if not rows:
            continue
        z = d.edge_values[e].basis(n - 1) @ basis.take_rows(rows)
        # the boundary of the edge (a, b) is b - a
        for i, zi in zip(e, (-z, z)):
            zi = d.vertex_handles[i].reindex(zi, d.edge_handles[e], n - 1)
            per_vertex[i] = per_vertex[i] + zi if i in per_vertex else zi
    glued = Matrix.zeros(len(big.simplex_ids.get(n, ())), basis.cols, d.field)
    for i, y in per_vertex.items():
        if y.is_zero():
            continue
        # [basis | boundary] of the vertex preimage: a boundary has no
        # basis part, and its boundary part is the bounding chain
        space = d.vertex_values[i]
        classes = space.dimension(n - 1)
        try:
            coeffs = space.class_solver(n - 1).solve(y)
            if not coeffs.take_rows(range(classes)).is_zero():
                raise NotInSpan("a cycle that is not a boundary")
        except NotInSpan as exc:
            raise SolveFailure(
                "Mayer-Vietoris exactness failed; admissibility was"
                " supposed to rule this out"
            ) from exc
        ci = coeffs.take_rows(range(classes, coeffs.rows))
        glued = glued + big.reindex(ci, d.vertex_handles[i], n)
    return glued


@dataclass
class SquareDegreeReport:
    degree: int
    extension_dim: int
    oracle_dim: int
    left_rank: int
    right_rank: int
    witnesses_iso: bool
    commutes: bool

    @property
    def ok(self):
        return self.witnesses_iso and self.commutes and (
            self.extension_dim == self.oracle_dim
        )


@dataclass
class CommutingSquareReport:
    v: OpenInterval
    w: OpenInterval
    degrees: list

    @property
    def ok(self):
        return all(r.ok for r in self.degrees)


def _cosheaf(x, f, c, field, max_deg, d: CellularCosheaf | None) -> CellularCosheaf:
    """*d*, or the cosheaf built here over *field* (GF(2) when omitted);
    a *field*, *max_deg*, complex *x*, function *f* or cover *c* that
    disagrees with a given *d* raises ``ValueError``."""
    if d is None:
        return build_cellular_leray(x, f, c, field or GF2, max_deg)
    _check_built_over(d, x, f, c)
    if field is not None and field != d.field:
        raise ValueError(f"field {field!r} disagrees with the cosheaf's field {d.field!r}")
    if max_deg is not None and max_deg != d.max_deg:
        raise ValueError(f"max_deg {max_deg} disagrees with the cosheaf's max_deg {d.max_deg}")
    return d


def _square(x, f, c, d: CellularCosheaf, v, w):
    """The witness square for V inside W, the one both checks read: the MV
    witnesses MV_V and MV_W, the extension map ext(V, W), the inclusion
    incl(U_V -> U_W) of the union preimages, and the composites
    MV_W @ ext(V, W) and incl(U_V -> U_W) @ MV_V round it."""
    wit_v = mv_isomorphism(x, f, c, d, sub_nerve(c, d, v))
    wit_w = mv_isomorphism(x, f, c, d, sub_nerve(c, d, w))
    left = extension_map(d, c, v, w)
    right = induced_map(wit_v.target, wit_w.target)
    return wit_v, wit_w, left, right, wit_w @ left, right @ wit_v


def verify_commuting_square(x, f, c, v, w, field=None, max_deg=None,
                            d: CellularCosheaf | None = None) -> CommutingSquareReport:
    """Check the witness squares for V inside W by exact matrix equality.

    Left vertical: the extension map.  Right vertical: the inclusion-induced
    map between union-preimage homologies.  Horizontal arrows: the two MV
    witnesses, which must be square and invertible.  All homology is taken
    over the field and up to the degree of *d*; *field* (GF(2) when omitted)
    and *max_deg* only choose them when *d* is built here, and a value that
    disagrees with a given *d*, or an *x*, *f* or *c* it was not built over,
    raises ``ValueError``.
    """
    if not (w.lo <= v.lo and v.hi <= w.hi):
        raise NotNested(f"{v} not contained in {w}")
    d = _cosheaf(x, f, c, field, max_deg, d)
    wit_v, wit_w, left, right, lhs, rhs = _square(x, f, c, d, v, w)
    rows = [
        SquareDegreeReport(
            degree=n,
            extension_dim=left.source.dimension(n),
            oracle_dim=wit_v.target.dimension(n),
            left_rank=left.rank(n),
            right_rank=right.rank(n),
            witnesses_iso=wit_v.is_isomorphism(n) and wit_w.is_isomorphism(n),
            commutes=lhs.matrix(n) == rhs.matrix(n),
        )
        for n in range(d.max_deg + 1)
    ]
    return CommutingSquareReport(v, w, rows)


@dataclass
class SampleCheck:
    v: OpenInterval
    containment_ok: bool
    triangle1_ok: bool
    triangle2_ok: bool

    @property
    def ok(self):
        return self.containment_ok and self.triangle1_ok and self.triangle2_ok


@dataclass
class InterleavingReport:
    eps: Fraction
    checks: list

    @property
    def verdict(self):
        return all(s.ok for s in self.checks)


def probe_intervals(x, f, count, seed):
    """Deterministic panel of probe intervals for convergence experiments.

    Endpoints sit at midpoints between consecutive critical values of the
    field (plus anchors beyond the range ends), with a small seeded jitter
    bounded by 1/16 of the minimal critical gap.  Such probes keep their
    boundary a fixed margin away from every critical value, so once the
    cover resolution drops below that margin the extension provably agrees
    with the preimage oracle; coarse covers still show honest mismatches.
    """
    from .simplicial import critical_values

    crit = critical_values(x, f)
    lo, hi = f.min_value(), f.max_value()
    span = hi - lo if hi > lo else Fraction(1)
    if not crit:
        crit = [lo, hi]
    anchors = [lo - span / 10]
    anchors += [(a + b) / 2 for a, b in zip(crit, crit[1:])]
    anchors.append(hi + span / 10)
    gaps = [b - a for a, b in zip(crit, crit[1:])]
    jitter_scale = (min(gaps) if gaps else span) / 16
    pairs = [
        (anchors[i], anchors[j])
        for i in range(len(anchors))
        for j in range(i + 1, len(anchors))
    ]
    rng = random.Random(seed)
    out = []
    for t in range(count):
        a, b = pairs[t % len(pairs)]
        if t >= len(pairs):
            a = a + jitter_scale * Fraction(2 * rng.random() - 1)
            b = b + jitter_scale * Fraction(2 * rng.random() - 1)
        out.append(OpenInterval(a, b))
    return out


def seeded_intervals(lo, hi, count, seed, widths=(Fraction(1, 12), Fraction(3, 5))):
    """Deterministic open intervals over [lo, hi]; exact endpoints."""
    rng = random.Random(seed)
    lo, hi = Fraction(lo), Fraction(hi)
    span = hi - lo
    out = []
    for _ in range(count):
        center = lo + Fraction(rng.random()) * span
        frac = widths[0] + (widths[1] - widths[0]) * Fraction(rng.random())
        half = span * frac / 2
        out.append(OpenInterval(center - half, center + half))
    return out


def sample_intervals(c, count, seed):
    """Mixed sample plan: seeded random intervals plus cover-cell midpoints."""
    mids = []
    for e in c.elements:
        quarter = e.length / 4
        mids.append(OpenInterval(e.lo + quarter, e.hi - quarter))
    for i in range(len(c.elements)):
        for j in range(i + 1, len(c.elements)):
            ov = c.edge_interval(i, j)
            if ov is not None:
                mids.append(ov)
    support = merge_intervals(c.elements)
    lo = min(p.lo for p in support)
    hi = max(p.hi for p in support)
    n_rand = max(count - len(mids), (count + 1) // 2)
    return (seeded_intervals(lo, hi, n_rand, seed) + mids)[:count]


def _pieces_contained(small_pieces, big_pieces):
    """Each (open) small piece must sit inside a single big piece."""
    return all(
        any(b.lo <= s.lo and s.hi <= b.hi for b in big_pieces) for s in small_pieces
    )


def interleaving_check(x, f, c, samples=20, seed=0, field=None, max_deg=None,
                       d: CellularCosheaf | None = None) -> InterleavingReport:
    """Certify an eps-interleaving with eps equal to the cover resolution.

    For each sampled interval V this checks, exactly, the set containments
    (V within the cover support is covered by U_V, the union of the K_V
    cover sets, which sits in the eps-thickening V^eps) and both triangle
    identities for phi_V = MV_V^-1 @ incl(f^-1 V -> U_V): L(V) -> C(V) and
    psi_V = incl(U_V -> f^-1 V^eps) @ MV_V: C(V) -> L(V^eps), with MV the
    Mayer-Vietoris witnesses and incl an inclusion-induced map.  By
    functoriality of incl, no homology of f^-1 V or f^-1 V^eps is needed:

    * Triangle 1, psi_V @ phi_V == incl(f^-1 V -> f^-1 V^eps), holds exactly
      when MV_V is invertible in every degree.  Admissibility puts f^-1 V
      inside U_V (a simplex's values lie in one cover element, which then
      meets V) and the containments put U_V inside f^-1 V^eps, so the two
      inclusions compose to the right side.  Triangle 1 is derived, not
      recomputed.
    * Triangle 2, phi_(V^eps) @ psi_V == ext(V, V^eps), whose left side is
      MV_(V^eps)^-1 @ incl(U_V -> U_(V^eps)) @ MV_V, holds exactly when
      MV_(V^eps) is invertible and the square for (V, V^eps) commutes, as
      :func:`verify_commuting_square` reads it.

    A witness that is not invertible fails its triangle; nothing raises.

    All homology is taken over the field and up to the degree of *d*;
    *field* (GF(2) when omitted) and *max_deg* only choose them when *d* is
    built here, and a value that disagrees with a given *d*, or an *x*, *f*
    or *c* it was not built over, raises ``ValueError``, as does *samples*
    below 1: a verdict over no sample would certify nothing.
    """
    if samples < 1:
        raise ValueError(f"interleaving_check needs at least one sample, got {samples}")
    d = _cosheaf(x, f, c, field, max_deg, d)
    eps = resolution(c)
    support = merge_intervals(c.elements)
    checks = []
    for v in sample_intervals(c, samples, seed):
        v_eps = thicken(v, eps)
        pieces_v = union_support(c, sub_nerve(c, d, v))
        v_cap_support = [p for p in (v.intersect(s) for s in support) if p is not None]
        containment = _pieces_contained(v_cap_support, pieces_v) and all(
            v_eps.lo <= p.lo and p.hi <= v_eps.hi for p in pieces_v
        )
        if not containment:
            checks.append(SampleCheck(v, False, False, False))
            continue
        wit_v, wit_e, _, _, lhs, rhs = _square(x, f, c, d, v, v_eps)
        t1 = _invertible(wit_v)
        t2 = _invertible(wit_e) and lhs == rhs
        checks.append(SampleCheck(v, containment, t1, t2))
    return InterleavingReport(eps, checks)


def _invertible(g: GradedLinearMap) -> bool:
    return all(g.is_isomorphism(n) for n in range(g.max_deg + 1))


@dataclass
class ConvergenceRow:
    cover_size: int
    resolution: Fraction
    admissible: bool
    sample_count: int
    mismatch_count: int | None
    per_degree_mismatches: tuple | None
    interleaving_pass: bool | None


@dataclass
class ConvergenceTable:
    rows: list


def convergence_table(x, f, base_n, g, levels, samples=20, seed=0, field=GF2,
                      max_deg=None) -> ConvergenceTable:
    """Mismatch counts between extension values and the preimage oracle as
    the cover refines.

    Mismatches are counted over a cover-independent probe panel (see
    :func:`probe_intervals`) so per-probe results are comparable across
    levels; inadmissible levels are kept in the table but flagged and
    skipped.
    """
    from .interval_cover import admissible as check_admissible
    from .interval_cover import refine

    lo, hi = f.min_value(), f.max_value()
    covers = refine(base_n, g, lo, hi, levels)
    fixed = probe_intervals(x, f, samples, seed)
    rows = []
    for c in covers:
        res = resolution(c)
        if not check_admissible(c, x, f):
            rows.append(ConvergenceRow(len(c), res, False, len(fixed), None, None, None))
            continue
        d = build_cellular_leray(x, f, c, field, max_deg)
        per_degree = [0] * (d.max_deg + 1)
        mismatched = 0
        for v in fixed:
            ext = continuous_extension(d, c, v)
            oracle = homology(preimage_subcomplex(x, f, v), field, d.max_deg)
            bad = False
            for n in range(d.max_deg + 1):
                if ext.dimension(n) != oracle.dimension(n):
                    per_degree[n] += 1
                    bad = True
            mismatched += bad
        rep = interleaving_check(x, f, c, samples, seed, field, d.max_deg, d=d)
        rows.append(
            ConvergenceRow(
                len(c), res, True, len(fixed), mismatched, tuple(per_degree),
                rep.verdict,
            )
        )
    return ConvergenceTable(rows)

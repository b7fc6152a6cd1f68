"""File formats, JSON/DOT serialization, and the command-line interface.

Text formats only, so test assets diff cleanly:

* complex files: ``v <id> <value>`` and ``s <id> <id> ...`` lines (faces are
  closed automatically, and every ``v`` vertex is a 0-simplex), ``#``
  starts a comment;
* cover files: ``i <lo> <hi>`` lines, or a single
  ``uniform <n> <g> [<lo> <hi>]`` line (range defaults to the value range
  of the complex the cover is used with).

Numbers are parsed as exact rationals (decimal strings or ``p/q``), and the
graph JSON stores every scalar as a canonical rational string, so emitted
files are byte-reproducible.

Exit codes: 0 success, 1 ``verify-prop`` found a square that does not
commute, 2 validation failure (inadmissible cover, nerve not
one-dimensional, range not covered, a malformed number on the command
line, a negative ``--max-deg`` or ``--samples``, no ``converge`` samples,
or an ``--out``, ``--dot`` or ``--csv`` path that cannot be written; the
message names the path), 3 parse failure (message carries the file and
line number; line 0 when the whole file is at fault: it cannot be opened,
a complex file declares no vertex, or a cover file has no element; a file
that is not UTF-8 text gives the line of its first bad byte).
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from fractions import Fraction

from . import __version__
from .convergence import (
    continuous_extension,
    convergence_table,
    seeded_intervals,
    verify_commuting_square,
)
from .exactlinalg import GF2, QQ
from .homology import homology
from .interval_cover import (
    Cover,
    InvalidParams,
    NerveNotOneDimensional,
    OpenInterval,
    nerve,
    resolution,
    uniform_cover,
)
from .leray_cosheaf import NotAdmissible, build_cellular_leray, build_decorated_mapper
from .simplicial import build_complex, preimage_subcomplex


class ParseError(Exception):
    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


class ValidationError(Exception):
    pass


def _parse_number(tok, path, line_no):
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise ParseError(path, line_no, f"not a number: {tok!r}")


def _records(path):
    """``(line number, fields)`` of each line of a text file that holds
    more than a ``#`` comment; a file that cannot be read, or is not UTF-8,
    is a ParseError."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ParseError(path, 0, f"cannot read the file: {exc.strerror}")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(path, data.count(b"\n", 0, exc.start) + 1, "not UTF-8 text")
    for line_no, raw in enumerate(io.StringIO(text, newline=None), start=1):
        parts = raw.split("#", 1)[0].split()
        if parts:
            yield line_no, parts


def parse_complex_file(path):
    """Read a ``v``/``s`` complex file into (complex, field)."""
    values = {}
    simplices = []
    for line_no, parts in _records(path):
        kind = parts[0]
        if kind == "v":
            if len(parts) != 3:
                raise ParseError(path, line_no, "expected: v <id> <value>")
            try:
                vid = int(parts[1])
            except ValueError:
                raise ParseError(path, line_no, f"bad vertex id {parts[1]!r}")
            if vid in values:
                raise ParseError(path, line_no, f"duplicate vertex {vid}")
            values[vid] = _parse_number(parts[2], path, line_no)
        elif kind == "s":
            if len(parts) < 2:
                raise ParseError(path, line_no, "expected: s <id> [<id> ...]")
            try:
                simplex = tuple(int(t) for t in parts[1:])
            except ValueError:
                raise ParseError(path, line_no, "vertex ids must be integers")
            if len(set(simplex)) != len(simplex):
                raise ParseError(path, line_no, f"simplex {simplex} repeats a vertex")
            for v in simplex:
                if v not in values:
                    raise ParseError(
                        path, line_no, f"simplex references unknown vertex {v}"
                    )
            simplices.append(simplex)
        else:
            raise ParseError(path, line_no, f"unknown record {kind!r}")
    if not values:
        raise ParseError(path, 0, "complex file declares no vertex")
    # every simplex was checked on its own line, so this cannot fail; a
    # declared vertex stays a 0-simplex even when no simplex names it
    return build_complex([(v,) for v in values] + simplices, values)


def parse_cover_file(path, default_range=None):
    """Read a cover file; ``uniform`` lines fall back to *default_range*."""
    elements = []
    uniform_spec = None
    for line_no, parts in _records(path):
        if parts[0] == "i":
            if len(parts) != 3:
                raise ParseError(path, line_no, "expected: i <lo> <hi>")
            lo = _parse_number(parts[1], path, line_no)
            hi = _parse_number(parts[2], path, line_no)
            if not lo < hi:
                raise ParseError(path, line_no, "interval needs lo < hi")
            elements.append(OpenInterval(lo, hi))
        elif parts[0] == "uniform":
            if uniform_spec is not None:
                raise ParseError(path, line_no, "a second uniform record")
            if len(parts) not in (3, 5):
                raise ParseError(
                    path, line_no, "expected: uniform <n> <g> [<lo> <hi>]"
                )
            try:
                n = int(parts[1])
            except ValueError:
                raise ParseError(path, line_no, "element count must be an integer")
            g = _parse_number(parts[2], path, line_no)
            if len(parts) == 5:
                rng = (
                    _parse_number(parts[3], path, line_no),
                    _parse_number(parts[4], path, line_no),
                )
            else:
                rng = None
            uniform_spec = (n, g, rng, line_no)
        else:
            raise ParseError(path, line_no, f"unknown record {parts[0]!r}")
    if uniform_spec is not None:
        if elements:
            raise ParseError(path, uniform_spec[3], "mix of uniform and i records")
        n, g, rng, line_no = uniform_spec
        if rng is None:
            if default_range is None:
                raise ParseError(
                    path, line_no, "uniform cover without range needs a complex"
                )
            rng = default_range
        try:
            return uniform_cover(n, g, rng[0], rng[1])
        except InvalidParams as exc:
            raise ParseError(path, line_no, str(exc))
    if not elements:
        raise ParseError(path, 0, "cover file has no elements")
    return Cover(elements)


def _fmt(x) -> str:
    return str(Fraction(x))


def graph_to_json(g) -> dict:
    """Canonical JSON form of a decorated mapper graph."""
    def matrices(glm):
        return [
            [[_fmt(m.entry(i, j)) for j in range(m.cols)] for i in range(m.rows)]
            for m in (glm.matrix(n) for n in range(g.max_deg + 1))
        ]

    return {
        "field": g.field,
        "max_deg": g.max_deg,
        "cover": [[_fmt(e.lo), _fmt(e.hi)] for e in g.cover.elements],
        "resolution": _fmt(resolution(g.cover)),
        "nodes": [
            {
                "id": n.node_id,
                "cover_index": n.cover_index,
                "component_index": n.component_index,
                "betti": list(n.value.dims()),
                "vertices": list(n.vertices),
            }
            for n in g.nodes
        ],
        "edges": [
            {
                "id": e.edge_id,
                "cover_pair": list(e.cover_pair),
                "component_index": e.component_index,
                "source_node": g.nodes[e.source].node_id,
                "target_node": g.nodes[e.target].node_id,
                "betti": list(e.value.dims()),
                "maps": {
                    "to_source": matrices(e.to_source),
                    "to_target": matrices(e.to_target),
                },
            }
            for e in g.edges
        ],
    }


def emit_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def parse_graph_json(text: str) -> dict:
    doc = json.loads(text)
    for key in ("field", "max_deg", "cover", "resolution", "nodes", "edges"):
        if key not in doc:
            raise ValidationError(f"graph json misses key {key!r}")
    return doc


def graph_to_dot(g) -> str:
    """Graphviz rendering; parallel edges stay distinct lines."""
    lines = ["graph decorated_mapper {"]
    for n in g.nodes:
        betti = ",".join(str(d) for d in n.value.dims())
        lines.append(f'  "{n.node_id}" [label="b=({betti})"];')
    for e in g.edges:
        betti = ",".join(str(d) for d in e.value.dims())
        lines.append(
            f'  "{g.nodes[e.source].node_id}" -- "{g.nodes[e.target].node_id}"'
            f' [label="b=({betti})"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _number_arg(option, tok):
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"{option} needs a number, got {tok!r}")


def _write_text(path, text):
    """Write *text* to *path*; a path that cannot be written is a
    ValidationError."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror}")


def _load_pair(args):
    x, f = parse_complex_file(args.complex)
    lo, hi = f.min_value(), f.max_value()
    cover = parse_cover_file(args.cover, default_range=(lo, hi))
    if not cover.covers_range(lo, hi):
        raise ValidationError("cover does not contain the function range")
    return x, f, cover


def cmd_build(args):
    x, f, cover = _load_pair(args)
    g = build_decorated_mapper(x, f, cover, args.field, args.max_deg)
    _write_text(args.out, emit_json(graph_to_json(g)))
    if args.dot:
        _write_text(args.dot, graph_to_dot(g))
    print(f"wrote {args.out}: {len(g.nodes)} nodes, {len(g.edges)} edges")
    return 0


def cmd_query(args):
    v = OpenInterval(*(_number_arg("--interval", t) for t in args.interval))
    x, f, cover = _load_pair(args)
    d = build_cellular_leray(x, f, cover, args.field, args.max_deg)
    ext = continuous_extension(d, cover, v)
    oracle = homology(preimage_subcomplex(x, f, v), d.field, d.max_deg)
    cdims = list(ext.dims())
    odims = list(oracle.dims())
    flag = "MATCH" if cdims == odims else "MISMATCH"
    print(f"C(V) dims: {cdims}")
    print(f"L(V) dims: {odims}")
    print(flag)
    return 0


def _at_least(option, value, least):
    if value is not None and value < least:
        raise ValidationError(f"{option} must be at least {least}, got {value}")


def cmd_verify_prop(args):
    _at_least("--samples", args.samples, 0)
    x, f, cover = _load_pair(args)
    d = build_cellular_leray(x, f, cover, args.field, args.max_deg)
    lo, hi = f.min_value(), f.max_value()
    span = (hi - lo) if hi > lo else Fraction(1)
    outer = seeded_intervals(lo - span / 10, hi + span / 10, args.samples, args.seed)
    inner = seeded_intervals(lo - span / 10, hi + span / 10, args.samples, args.seed + 1)
    failures = 0
    for k, (w, v0) in enumerate(zip(outer, inner)):
        lo_v = max(w.lo, v0.lo)
        hi_v = min(w.hi, v0.hi)
        if not lo_v < hi_v:
            mid = (w.lo + w.hi) / 2
            lo_v, hi_v = (w.lo + mid) / 2, (mid + w.hi) / 2
        v = OpenInterval(lo_v, hi_v)
        rep = verify_commuting_square(x, f, cover, v, w, d=d)
        status = "PASS" if rep.ok else "FAIL"
        failures += not rep.ok
        print(f"{k:3d}  V={v}  W={w}  {status}")
    print(f"{args.samples - failures}/{args.samples} squares verified")
    return 0 if failures == 0 else 1


def cmd_converge(args):
    _at_least("--samples", args.samples, 1)
    x, f = parse_complex_file(args.complex)
    if x.max_dim > 2:
        # the probe panel sits between critical values, exact only up to dim 2
        raise ValidationError(
            f"{args.complex}: converge needs a complex of dimension at most 2,"
            f" not {x.max_dim}"
        )
    table = convergence_table(
        x, f, args.base_n, _number_arg("--overlap", args.overlap), args.levels,
        samples=args.samples, seed=args.seed, field=args.field, max_deg=args.max_deg,
    )
    header = f"{'size':>5} {'resolution':>12} {'admissible':>10} {'samples':>8} {'mismatches':>11} {'interleaving':>12}"
    print(header)
    for r in table.rows:
        mm = "-" if r.mismatch_count is None else str(r.mismatch_count)
        il = "-" if r.interleaving_pass is None else ("pass" if r.interleaving_pass else "FAIL")
        print(
            f"{r.cover_size:>5} {_fmt(r.resolution):>12} {str(r.admissible):>10}"
            f" {r.sample_count:>8} {mm:>11} {il:>12}"
        )
    if args.csv:
        lines = ["cover_size,resolution,admissible,samples,mismatches,interleaving\n"]
        for r in table.rows:
            mm = "" if r.mismatch_count is None else r.mismatch_count
            il = "" if r.interleaving_pass is None else int(r.interleaving_pass)
            lines.append(
                f"{r.cover_size},{_fmt(r.resolution)},{int(r.admissible)},"
                f"{r.sample_count},{mm},{il}\n"
            )
        _write_text(args.csv, "".join(lines))
    return 0


def cmd_nerve(args):
    if args.complex:
        _, f = parse_complex_file(args.complex)
        default_range = (f.min_value(), f.max_value())
    else:
        default_range = None
    cover = parse_cover_file(args.cover, default_range=default_range)
    nv = nerve(cover)
    print(f"vertices: {len(nv.vertices)}")
    for i, j in nv.edges:
        print(f"edge {i} {j}  overlap {cover.edge_interval(i, j)}")
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="decomap",
        description="Decorated mapper graphs and cellular cosheaves of scalar fields",
    )
    p.add_argument("--version", action="version", version=f"decomap {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, cover=True):
        sp.add_argument("--complex", required=True, help="complex file (v/s records)")
        if cover:
            sp.add_argument("--cover", required=True, help="cover file (i/uniform records)")
        sp.add_argument("--field", default=GF2, choices=(GF2, QQ))
        sp.add_argument("--max-deg", type=int, default=None, dest="max_deg")

    sp = sub.add_parser("build", help="build the decorated mapper graph")
    common(sp)
    sp.add_argument("--out", required=True, help="output JSON path")
    sp.add_argument("--dot", default=None, help="optional DOT output path")
    sp.set_defaults(func=cmd_build)

    sp = sub.add_parser("query", help="extension vs oracle dims at an interval")
    common(sp)
    sp.add_argument("--interval", nargs=2, metavar=("LO", "HI"), required=True)
    sp.set_defaults(func=cmd_query)

    sp = sub.add_parser("verify-prop", help="verify commuting squares on seeded pairs")
    common(sp)
    sp.add_argument("--samples", type=int, default=50)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_verify_prop)

    sp = sub.add_parser("converge", help="cover refinement mismatch table")
    common(sp, cover=False)
    sp.add_argument("--base-n", type=int, default=2, dest="base_n")
    sp.add_argument("--overlap", default="0.45")
    sp.add_argument("--levels", type=int, default=4)
    sp.add_argument("--samples", type=int, default=20)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--csv", default=None)
    sp.set_defaults(func=cmd_converge)

    sp = sub.add_parser("nerve", help="print the nerve of a cover")
    sp.add_argument("--cover", required=True)
    sp.add_argument("--complex", default=None, help="for uniform covers without range")
    sp.set_defaults(func=cmd_nerve)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _at_least("--max-deg", getattr(args, "max_deg", None), 0)
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except (NotAdmissible, NerveNotOneDimensional, ValidationError, InvalidParams) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

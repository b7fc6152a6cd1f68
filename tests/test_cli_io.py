import json
import re
from pathlib import Path

import pytest

from decomap.cli_io import (
    ParseError,
    emit_json,
    graph_to_dot,
    main,
    parse_complex_file,
    parse_cover_file,
    parse_graph_json,
)
from decomap.interval_cover import OpenInterval

ASSETS = Path(__file__).resolve().parent.parent / "assets"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_parse_complex_roundtrip(tmp_path):
    p = write(tmp_path, "t.scx", "# demo\nv 0 0\nv 1 1.5\nv 2 3\ns 0 1 2\n")
    x, f = parse_complex_file(p)
    assert len(x.vertices) == 3 and x.max_dim == 2
    assert f(1) == 1.5


def test_parse_complex_errors(tmp_path):
    with pytest.raises(ParseError) as exc:
        parse_complex_file(write(tmp_path, "a.scx", "v 0 0\ns 0 1\n"))
    assert exc.value.line_no == 2
    with pytest.raises(ParseError):
        parse_complex_file(write(tmp_path, "b.scx", "v zero 0\n"))
    with pytest.raises(ParseError):
        parse_complex_file(write(tmp_path, "c.scx", "w 0 0\n"))
    with pytest.raises(ParseError) as exc:
        parse_complex_file(write(tmp_path, "d.scx", "v 0 0\nv 1 1\nv 0 2\n"))
    assert exc.value.line_no == 3 and "duplicate vertex 0" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        parse_complex_file(write(tmp_path, "e.scx", "v 0 0\nv 1 1\ns 0 1\ns 1 0 1\n"))
    assert exc.value.line_no == 4 and "repeats a vertex" in str(exc.value)


def test_parse_cover_explicit(tmp_path):
    c = parse_cover_file(write(tmp_path, "c.cov", "i -0.5 1.2\ni 0.8 2.2\n"))
    assert len(c) == 2
    assert c[0] == OpenInterval("-0.5", "1.2")


def test_parse_cover_uniform_needs_range(tmp_path):
    p = write(tmp_path, "u.cov", "uniform 4 0.3\n")
    with pytest.raises(ParseError):
        parse_cover_file(p)
    c = parse_cover_file(p, default_range=(0, 3))
    assert len(c) == 4


def test_parse_cover_errors(tmp_path):
    with pytest.raises(ParseError):
        parse_cover_file(write(tmp_path, "c.cov", "i 2 1\n"))
    with pytest.raises(ParseError):
        parse_cover_file(write(tmp_path, "d.cov", ""))
    with pytest.raises(ParseError):
        parse_cover_file(write(tmp_path, "e.cov", "i 0 1\nuniform 2 0.3 0 1\n"))


def test_cli_build_query_golden(tmp_path, capsys):
    out = str(tmp_path / "hex.json")
    dot = str(tmp_path / "hex.dot")
    rc = main([
        "build", "--complex", str(ASSETS / "hexagon.scx"),
        "--cover", str(ASSETS / "fine.cov"), "--out", out, "--dot", dot,
    ])
    assert rc == 0
    doc = json.loads(Path(out).read_text())
    assert len(doc["nodes"]) == 4 and len(doc["edges"]) == 4
    assert all(n["betti"][0] == 1 for n in doc["nodes"])

    rc = main([
        "query", "--complex", str(ASSETS / "hexagon.scx"),
        "--cover", str(ASSETS / "coarse.cov"), "--interval", "1.3", "1.7",
    ])
    out_text = capsys.readouterr().out
    assert rc == 0 and "MISMATCH" in out_text
    rc = main([
        "query", "--complex", str(ASSETS / "hexagon.scx"),
        "--cover", str(ASSETS / "fine.cov"), "--interval", "1.3", "1.7",
    ])
    out_text = capsys.readouterr().out
    assert rc == 0 and "MATCH" in out_text and "MISMATCH" not in out_text


def test_json_round_trip_bytes(tmp_path):
    out = tmp_path / "hex.json"
    rc = main([
        "build", "--complex", str(ASSETS / "hexagon.scx"),
        "--cover", str(ASSETS / "fine.cov"), "--out", str(out),
    ])
    assert rc == 0
    text = out.read_text()
    assert emit_json(parse_graph_json(text)) == text


def test_json_ids_stable_across_runs(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        main([
            "build", "--complex", str(ASSETS / "hexagon.scx"),
            "--cover", str(ASSETS / "fine.cov"), "--out", str(out),
        ])
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


DOT_NODE = re.compile(r'^  "[\w]+" \[label="b=\([\d,]+\)"\];$')
DOT_EDGE = re.compile(r'^  "[\w]+" -- "[\w]+" \[label="b=\([\d,]+\)"\];$')


def test_dot_output_syntax(tmp_path):
    from decomap.cli_io import parse_complex_file
    from decomap.leray_cosheaf import build_decorated_mapper

    x, f = parse_complex_file(str(ASSETS / "hexagon.scx"))
    cover = parse_cover_file(str(ASSETS / "fine.cov"))
    g = build_decorated_mapper(x, f, cover)
    dot = graph_to_dot(g)
    lines = dot.strip().splitlines()
    assert lines[0] == "graph decorated_mapper {" and lines[-1] == "}"
    node_lines = [l for l in lines[1:-1] if " -- " not in l]
    edge_lines = [l for l in lines[1:-1] if " -- " in l]
    assert len(node_lines) == 4 and len(edge_lines) == 4
    assert all(DOT_NODE.match(l) for l in node_lines)
    assert all(DOT_EDGE.match(l) for l in edge_lines)


def test_cli_exit_code_validation(tmp_path, capsys):
    bad = write(tmp_path, "bad.cov", "i 0 3\ni 1 4\ni 2 5\n")
    rc = main(["nerve", "--cover", bad])
    assert rc == 2
    err = capsys.readouterr().err
    assert "(0, 1, 2)" in err

    inadm = write(tmp_path, "i.scx", "v 0 0\nv 1 1\nv 2 2\nv 3 3\ns 0 1 2 3\n")
    rc = main([
        "build", "--complex", inadm, "--cover", str(ASSETS / "fine.cov"),
        "--out", str(tmp_path / "x.json"),
    ])
    assert rc == 2

    for lo, hi in (("abc", "2"), ("0", "1/0"), ("2", "1")):
        rc = main([
            "query", "--complex", str(ASSETS / "hexagon.scx"),
            "--cover", str(ASSETS / "fine.cov"), "--interval", lo, hi,
        ])
        assert rc == 2
    assert "--interval needs a number, got 'abc'" in capsys.readouterr().err
    rc = main(["converge", "--complex", str(ASSETS / "hexagon.scx"), "--overlap", "x"])
    assert rc == 2


def test_cli_converge_rejects_a_solid_tetrahedron(tmp_path, capsys):
    solid = write(tmp_path, "solid.scx", "v 0 0\nv 1 1\nv 2 2\nv 3 3\ns 0 1 2 3\n")
    rc = main(["converge", "--complex", solid, "--levels", "2"])
    assert rc == 2
    assert "dimension at most 2" in capsys.readouterr().err


def test_cli_exit_code_parse(tmp_path, capsys):
    bad = write(tmp_path, "bad.scx", "v 0 0\ns 0 1\n")
    rc = main([
        "build", "--complex", bad, "--cover", str(ASSETS / "fine.cov"),
        "--out", str(tmp_path / "x.json"),
    ])
    assert rc == 3
    assert "bad.scx:2" in capsys.readouterr().err


def test_cli_nerve_and_uniform(tmp_path, capsys):
    rc = main(["nerve", "--cover", str(ASSETS / "fine.cov")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "vertices: 3" in out and out.count("edge") == 2
    single = write(tmp_path, "one.cov", "i -1 4\n")
    rc = main(["nerve", "--cover", single])
    assert rc == 0
    assert "vertices: 1" in capsys.readouterr().out


def test_cli_verify_prop(capsys):
    rc = main([
        "verify-prop", "--complex", str(ASSETS / "hexagon.scx"),
        "--cover", str(ASSETS / "fine.cov"), "--samples", "6", "--seed", "7",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 6 and "6/6" in out


def test_cli_verify_prop_empty(capsys):
    rc = main([
        "verify-prop", "--complex", str(ASSETS / "hexagon.scx"),
        "--cover", str(ASSETS / "fine.cov"), "--samples", "0",
    ])
    assert rc == 0
    assert "0/0" in capsys.readouterr().out


def test_cli_converge_csv(tmp_path, capsys):
    csv = tmp_path / "t.csv"
    rc = main([
        "converge", "--complex", str(ASSETS / "hexagon.scx"),
        "--base-n", "2", "--levels", "2", "--samples", "6", "--seed", "3",
        "--csv", str(csv),
    ])
    assert rc == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0].startswith("cover_size,")
    assert len(lines) == 3


def test_cli_build_torus_golden(tmp_path):
    out = tmp_path / "torus.json"
    rc = main([
        "build", "--complex", str(ASSETS / "torus.scx"),
        "--cover", str(ASSETS / "torus.cov"), "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    cylinders = [n for n in doc["nodes"] if n["betti"] == [1, 1, 0]]
    assert len(cylinders) == 2
    assert len(doc["nodes"]) == 5


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "decomap" in capsys.readouterr().out

"""The README's library example runs, and prints what its comments say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_prints_its_comments(capsys):
    code = library_example()
    # each top-level print states its output in a trailing comment
    expected = re.findall(r"^print\(.*\)\s+# (.*)$", code, re.M)
    assert len(expected) == 3
    assert "# two nodes read (1, 1, 0)" in code
    exec(compile(code, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    nodes, tail = lines[: -len(expected)], lines[-len(expected):]
    assert tail == expected
    assert sum(line.endswith(" (1, 1, 0)") for line in nodes) == 2

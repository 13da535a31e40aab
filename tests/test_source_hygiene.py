"""Checks on the text of ``src/hjnet`` that read it with ``ast`` or line by
line, without importing the package.

A deletion that leaves an import behind leaves a dependency that no line
needs; the check below names it.  A line longer than ``MAX_LINE`` characters
is named too.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hjnet"
MAX_LINE = 100


def _unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that no expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_the_check_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom a.b import c, d\nnp.zeros(c)\n"
    assert _unused_imports(source) == ["os (line 1)", "d (line 3)"]


def test_no_unused_top_level_imports():
    """``__init__.py`` re-exports on purpose and is skipped."""
    unused = {p.name: _unused_imports(p.read_text())
              for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    assert {name: found for name, found in unused.items() if found} == {}


def _long_lines(source: str) -> list[str]:
    """Lines of more than ``MAX_LINE`` characters, as 'line n: length'."""
    return [f"line {n}: {len(line)}" for n, line in enumerate(source.splitlines(), 1)
            if len(line) > MAX_LINE]


def test_the_check_finds_a_long_line():
    source = "x = 1\n" + "#" * MAX_LINE + "\n" + "y" * (MAX_LINE + 1) + "\n"
    assert _long_lines(source) == [f"line 3: {MAX_LINE + 1}"]


def test_no_line_exceeds_the_limit():
    long = {p.name: _long_lines(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in long.items() if found} == {}

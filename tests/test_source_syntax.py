"""The package keeps to the syntax of its requires-python floor, 3.10.

`ast.parse(..., feature_version=(3, 10))` accepts a starred element inside
a subscript (`terms[q, *divmod(k, s)]`), which only 3.11 and later can
run, so this walks the package source for it.  The tree does not keep
the parentheses of `terms[(q, *r)]`, which 3.10 does run, so that form is
flagged too: bind the tuple display to a name first.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "qpchar").glob("*.py"))


def _starred_subscripts(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript):
            index = node.slice
            elements = index.elts if isinstance(index, ast.Tuple) else [index]
            if any(isinstance(e, ast.Starred) for e in elements):
                yield node.lineno


def test_sources_found():
    assert "pbw_oracle.py" in {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_starred_subscript(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert list(_starred_subscripts(tree)) == []


def test_starred_subscript_is_caught():
    assert list(_starred_subscripts(ast.parse("terms[q, *divmod(k, s)] = c\nx = t[(q, *r)]\n"))) == [1, 2]

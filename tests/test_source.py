import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "coopbasis"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_has_no_assert_statements(path):
    # python -O strips assert statements, and an invariant must not vanish with them
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements at lines {lines}"


def test_package_has_one_cache_on_g_poly():
    # clibench/tracer.py reads the g_poly cache, and README and ROADMAP call it the only one
    caches = ("lru_cache", "cache", "cached_property")
    mentions, cached = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in caches
                    or isinstance(node, ast.Name) and node.id in caches
                    or isinstance(node, ast.alias) and node.name in caches):
                mentions.append((path.name, node.lineno))
            if isinstance(node, ast.FunctionDef) and any(
                    name in ast.dump(d) for d in node.decorator_list for name in caches):
                cached.append((path.name, node.name))
    assert cached == [("semistable.py", "g_poly")]
    assert len(mentions) == 1, mentions

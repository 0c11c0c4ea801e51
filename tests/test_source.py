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


def test_no_package_module_imports_dataclasses():
    # dataclasses imports inspect, start-up time every CLI process would pay; records are NamedTuples
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(name.split(".")[0] == "dataclasses" for name in names):
                found.append((path.name, node.lineno))
    assert found == []


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


def test_hazewinkel_oracle_shares_no_code_with_poly():
    # the oracle checks the Poly recursion, so it must not run on Poly or any function of poly.py
    poly_tree = ast.parse((PACKAGE / "poly.py").read_text(encoding="utf-8"))
    poly_names = {node.name for node in poly_tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    phi_tree = ast.parse((PACKAGE / "phi.py").read_text(encoding="utf-8"))
    defined = {node.name: node for node in phi_tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    pending, seen, used = ["SymbolicPoly", "hazewinkel_t_solutions"], set(), set()
    while pending:  # follow calls into phi.py's own helpers, such as _check_family_size
        name = pending.pop()
        seen.add(name)
        for node in ast.walk(defined[name]):
            found = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            used.add(found)
            if found in defined and found not in seen:
                pending.append(found)
    assert "Poly" in poly_names and "_reduced" in poly_names
    assert seen >= {"SymbolicPoly", "hazewinkel_t_solutions", "_check_family_size"}
    assert used & poly_names == set()

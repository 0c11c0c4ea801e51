import ast
from pathlib import Path

import pytest

import coopbasis

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "coopbasis"
CLIBENCH = PACKAGE.parent.parent / "clibench"


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


UNUSED_BY_DESIGN = {"congruent_mod_higher_af"}  # the paper's congruence, stated as one call


def _mentions(trees, name, skip, attribute_only):
    """True iff some tree spells name as an attribute (or, unless attribute_only, as a plain
    name or an imported alias) outside the node skip."""
    pending = list(trees)
    while pending:
        node = pending.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Attribute) and node.attr == name or not attribute_only and (
                isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.alias) and name in (node.name, node.asname)):
            return True
        pending.extend(ast.iter_child_nodes(node))
    return False


def test_every_export_is_used_outside_the_tests():
    """Each name in ``coopbasis.__all__`` is referenced by package code outside its own
    definition or by ``clibench/*.py``, and so is each public method of an exported class,
    as an attribute.  A name that only tests reach belongs in the tests.

    The check reads spellings from the AST, so two kinds of name are out of its reach.
    Dunders are called by syntax, not by name.  A method whose name another class shares
    counts as used when the other one is: ``Poly.from_json`` hid ``GExpansion.from_json``.
    """
    paths = [*sorted(PACKAGE.glob("*.py")), *sorted(CLIBENCH.glob("*.py"))]
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in paths}
    unused = []
    for name, module in coopbasis._EXPORTS.items():
        defined = {node.name: node for node in trees[PACKAGE / f"{module}.py"].body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        definition = defined.get(name)  # None for a constant
        if not _mentions(trees.values(), name, definition, attribute_only=False):
            unused.append(name)
        if isinstance(definition, ast.ClassDef):
            unused += [f"{name}.{method.name}" for method in definition.body
                       if isinstance(method, ast.FunctionDef) and not method.name.startswith("_")
                       and not _mentions(trees.values(), method.name, method, attribute_only=True)]
    extra = sorted(set(unused) - UNUSED_BY_DESIGN)
    assert extra == [], f"reached only from the tests: {', '.join(extra)}"
    assert UNUSED_BY_DESIGN <= set(unused)  # an exemption that stops being needed is dropped

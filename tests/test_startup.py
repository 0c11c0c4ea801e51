"""Start-up cost: what an invocation imports, the lazy package, and its record types.

The import guards run in child processes, so they hold whatever this test
process has already imported.
"""

import copy
import importlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import coopbasis
from coopbasis import (CongruenceCheck, HomologyEntry, M1Complex, PhiExpansion, PhiFamily,
                       PhiMonomial, Poly, SteenrodMonomial, TraceStep, WeightReport, checks_to_json,
                       enumerate_m1, expand_in_phi, margolis_homology, phi_family,
                       phi_monomial, verify_congruences, weight)

SRC = Path(__file__).resolve().parent.parent / "src"
LIST_LOADED = ("print(code, *sorted(m for m in sys.modules if m.partition('.')[0] == 'coopbasis'),"
               " file=sys.stderr)")


def _loaded_by(script: str) -> tuple[int, set[str]]:
    """Exit code and the coopbasis modules loaded after ``script`` runs in a fresh interpreter."""
    result = subprocess.run([sys.executable, "-c", f"import sys\n{script}\n{LIST_LOADED}"],
                            capture_output=True, text=True, timeout=60,
                            env={**os.environ, "PYTHONPATH": str(SRC)})
    assert result.returncode == 0, result.stderr
    code, *modules = result.stderr.splitlines()[-1].split()
    return int(code), set(modules)


def test_importing_the_cli_loads_only_errors_and_arith():
    _, modules = _loaded_by("import coopbasis.cli\ncode = 0")
    assert modules == {"coopbasis", "coopbasis.cli", "coopbasis.errors", "coopbasis.arith"}


@pytest.mark.parametrize("argv, unused", [
    (["margolis", "--k", "2"], {"poly", "semistable", "phi", "filtration"}),
    (["g", "--n", "2"], {"phi", "filtration", "margolis"}),
    (["check-integrality", "w"], {"phi", "filtration", "margolis"}),
    (["check-integrality", "--prime", "3", "w"], {"phi", "filtration", "margolis"}),
])
def test_a_subcommand_loads_only_the_modules_it_runs(argv, unused):
    code, modules = _loaded_by(f"from coopbasis.cli import main\ncode = main({argv!r})")
    assert code == 0
    assert modules & {f"coopbasis.{name}" for name in unused} == set()


EXPORTED = [
    "alpha_p", "base_p_digits",
    "is_prime", "legendre_valuation_factorial", "nu_p", "require_prime",
    "InternalConsistencyError", "NotSemistableError", "PolyParseError",
    "ResourceLimitError", "WeightMonotonicityError",
    "CongruenceCheck", "PhiExpansion", "TraceStep", "WeightReport",
    "checks_to_json", "congruent_mod_higher_af", "expand_in_phi",
    "verify_congruences", "weight",
    "HomologyEntry", "M1Complex", "SteenrodMonomial", "apply_q", "apply_q_linear",
    "complex_to_json", "cover_rank", "cycle_to_string", "enumerate_m1",
    "expected_q0_generator", "expected_q1_generator", "homologous", "is_cycle",
    "margolis_homology", "q_square_is_zero",
    "DEFAULT_MAX_DEGREE", "PhiFamily", "PhiMonomial", "SymbolicPoly", "digit_products",
    "hazewinkel_t_solutions", "phi_family", "phi_family_oracle",
    "phi_monomial", "phi_monomials",
    "Poly",
    "DEFAULT_RESIDUE_BUDGET", "GExpansion", "expand_in_g",
    "g_poly", "integrality_verdicts", "is_semistable_2local", "is_semistable_plocal_residues",
]


def test_the_package_exports_the_same_names_in_the_same_order():
    assert coopbasis.__all__ == EXPORTED


def test_every_export_is_the_object_its_module_defines():
    for name in coopbasis.__all__:
        module = importlib.import_module(f"coopbasis.{coopbasis._EXPORTS[name]}")
        value = getattr(coopbasis, name)
        assert value is getattr(module, name), name
        if callable(value):  # a class or function names the module that defines it
            assert value.__module__ == module.__name__, name


def test_star_import_and_dir_list_every_export():
    namespace: dict = {}
    exec("from coopbasis import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(EXPORTED)
    assert set(dir(coopbasis)) >= set(EXPORTED)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        coopbasis.no_such_name
    with pytest.raises(ImportError):
        exec("from coopbasis import no_such_name", {})


def _records() -> dict[type, tuple[object, tuple[str, ...]]]:
    """One instance of each record type, with the field order it must keep."""
    family = phi_family(2, 2)
    expansion = expand_in_phi(family.phi(1) ** 2, 4)
    complex_ = enumerate_m1(2, 2)
    return {
        WeightReport: (weight(Poly.parse("w^2")), ("expansion", "weight", "argmin")),
        CongruenceCheck: (verify_congruences(2, family)[0],
                          ("claim", "n", "weight_lhs", "weight_rhs", "weight_diff", "passed")),
        TraceStep: (expansion.trace[0], ("weight", "indices", "coefficients")),
        PhiExpansion: (expansion, ("precision", "coeffs", "exact_coeffs", "residual",
                                   "residual_weight", "trace")),
        PhiFamily: (family, ("prime", "polys", "over_budget")),
        PhiMonomial: (phi_monomial(2, 3, family), ("prime", "index", "digits", "poly")),
        M1Complex: (complex_, ("prime", "k", "basis", "q0", "q1", "slices")),
        HomologyEntry: (margolis_homology(complex_, 0)[0], ("degree", "dimension", "generators")),
    }


def test_records_keep_their_fields_and_refuse_assignment():
    for cls, (record, fields) in _records().items():
        assert type(record) is cls
        assert cls._fields == fields
        for field in fields + ("undeclared",):
            with pytest.raises(AttributeError):
                setattr(record, field, None)


def test_records_copy_and_pickle_to_equal_records():
    records = [record for record, _ in _records().values()]
    records.append(SteenrodMonomial(3, {1: 2}, (2, 3)))
    for p, k in ((2, 12), (3, 12)):
        complex_ = enumerate_m1(p, k)
        records += [complex_, *margolis_homology(complex_, 0), *margolis_homology(complex_, 1)]
    for record in records:
        copies = [copy.copy(record), copy.deepcopy(record)]
        copies += [pickle.loads(pickle.dumps(record, protocol))
                   for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)]
        for twin in copies:
            assert type(twin) is type(record) and twin == record


def test_records_keep_their_defaults_and_methods():
    assert PhiFamily._field_defaults == {"over_budget": ()}
    family = PhiFamily(2, phi_family(2, 2).polys)
    assert family.over_budget == ()
    assert (len(family), family.af, family.phi(2)) == (2, (-1, -3), family.polys[1])
    monomial = phi_monomial(2, 3, family)
    assert (monomial.index, monomial.degree) == (3, 4)  # the field, not tuple.index


def test_checks_to_json_keeps_its_key_order():
    rows = checks_to_json(verify_congruences(2, phi_family(2, 2)))
    assert rows and all(list(row) == list(CongruenceCheck._fields) for row in rows)
    assert list(rows[0]) == ["claim", "n", "weight_lhs", "weight_rhs", "weight_diff", "passed"]

"""Exact-arithmetic workbench for the bases of p-local K-theory cooperations.

Builds the classical semistable basis g_n and the phi-family with its
Hazewinkel-generator oracle, decides p-local integrality, computes the
g-basis weight calculus and its congruence suite, expands semistable
polynomials in the phi-monomials to finite 2-adic precision, and computes
Margolis homology of the weight pieces of the relevant quotient of the
dual Steenrod algebra.

The exported names are resolved on first access, so importing the package
(or ``coopbasis.cli``) compiles only the modules that are used.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {  # exported name -> the module that defines it, in the order of __all__
    **dict.fromkeys((
        "alpha_p", "base_p_digits", "is_prime", "legendre_valuation_factorial", "nu_p",
        "require_prime"), "arith"),
    **dict.fromkeys((
        "InternalConsistencyError", "NotSemistableError", "PolyParseError",
        "ResourceLimitError", "WeightMonotonicityError"), "errors"),
    **dict.fromkeys((
        "CongruenceCheck", "PhiExpansion", "TraceStep", "WeightReport",
        "checks_to_json", "congruent_mod_higher_af", "expand_in_phi",
        "verify_congruences", "weight"), "filtration"),
    **dict.fromkeys((
        "HomologyEntry", "M1Complex", "SteenrodMonomial", "apply_q", "apply_q_linear",
        "complex_to_json", "cover_rank", "cycle_to_string", "enumerate_m1",
        "expected_q0_generator", "expected_q1_generator", "homologous", "is_cycle",
        "margolis_homology", "q_square_is_zero"), "margolis"),
    "DEFAULT_MAX_DEGREE": "poly",
    **dict.fromkeys((
        "PhiFamily", "PhiMonomial", "SymbolicPoly", "digit_products",
        "hazewinkel_t_solutions", "phi_family", "phi_family_oracle",
        "phi_monomial", "phi_monomials"), "phi"),
    "Poly": "poly",
    "DEFAULT_RESIDUE_BUDGET": "errors",
    **dict.fromkeys((
        "GExpansion", "expand_in_g", "g_poly", "integrality_verdicts",
        "is_semistable_2local", "is_semistable_plocal_residues"), "semistable"),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> object:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

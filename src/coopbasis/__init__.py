"""Exact-arithmetic workbench for the bases of p-local K-theory cooperations.

Builds the classical semistable basis g_n and the phi-family with its
Hazewinkel-generator oracle, decides p-local integrality, computes the
g-basis weight calculus and its congruence suite, expands semistable
polynomials in the phi-monomials to finite 2-adic precision, and computes
Margolis homology of the weight pieces of the relevant quotient of the
dual Steenrod algebra.
"""

from .arith import (INFINITE, Valuation, alpha_p, base_p_digits, is_p_local_integer,
                    is_prime, legendre_valuation_factorial, nu_p, require_prime)
from .errors import (InternalConsistencyError, NotSemistableError, PolyParseError,
                     ResourceLimitError, WeightMonotonicityError)
from .filtration import (CongruenceCheck, PhiExpansion, TraceStep, WeightReport,
                         checks_to_json, congruent_mod_higher_af, expand_in_phi,
                         verify_congruences, weight, weight_value)
from .margolis import (HomologyEntry, M1Complex, SteenrodMonomial, apply_q,
                       apply_q_linear, complex_to_json, cover_rank, cycle_to_string,
                       enumerate_m1, expected_q0_generator, expected_q1_generator,
                       homologous, is_cycle, margolis_homology, q_square_is_zero)
from .phi import (DEFAULT_MAX_DEGREE, PhiFamily, PhiMonomial, SymbolicPoly,
                  digit_products, hazewinkel_t_solutions, monomial_af, phi_family,
                  phi_family_oracle, phi_monomial, phi_monomials)
from .poly import Poly
from .semistable import (DEFAULT_RESIDUE_BUDGET, GExpansion, binomial_poly,
                         expand_in_g, g_poly, integrality_verdicts, is_semistable_2local,
                         is_semistable_plocal_residues)

__version__ = "0.1.0"

__all__ = [
    "INFINITE", "Valuation", "alpha_p", "base_p_digits", "is_p_local_integer",
    "is_prime", "legendre_valuation_factorial", "nu_p", "require_prime",
    "InternalConsistencyError", "NotSemistableError", "PolyParseError",
    "ResourceLimitError", "WeightMonotonicityError",
    "CongruenceCheck", "PhiExpansion", "TraceStep", "WeightReport",
    "checks_to_json", "congruent_mod_higher_af", "expand_in_phi",
    "verify_congruences", "weight", "weight_value",
    "HomologyEntry", "M1Complex", "SteenrodMonomial", "apply_q", "apply_q_linear",
    "complex_to_json", "cover_rank", "cycle_to_string", "enumerate_m1",
    "expected_q0_generator", "expected_q1_generator", "homologous", "is_cycle",
    "margolis_homology", "q_square_is_zero",
    "DEFAULT_MAX_DEGREE", "PhiFamily", "PhiMonomial", "SymbolicPoly", "digit_products",
    "hazewinkel_t_solutions", "monomial_af", "phi_family", "phi_family_oracle",
    "phi_monomial", "phi_monomials",
    "Poly",
    "DEFAULT_RESIDUE_BUDGET", "GExpansion", "binomial_poly", "expand_in_g",
    "g_poly", "integrality_verdicts", "is_semistable_2local", "is_semistable_plocal_residues",
]

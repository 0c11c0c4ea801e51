"""Correctness checks on one CLI result: exit code, reference payload, exact identities."""

from __future__ import annotations

import json
from fractions import Fraction

from exact import Poly, g_combination, phi2_monomial
from workloads import GOLDEN_QUERY, Query


def matches(reference: object, output: object) -> bool:
    """True when ``output`` agrees with ``reference`` on every key the reference has.

    Keys the output adds are ignored (a later ``timings`` or ``skipped``), unless
    they look like an index ("12"): in a coordinate dict a new index is a changed
    value, not an added field.
    """
    if isinstance(reference, dict):
        if not isinstance(output, dict):
            return False
        if any(key not in reference and key.lstrip("-").isdigit() for key in output):
            return False
        return all(key in output and matches(value, output[key])
                   for key, value in reference.items())
    if isinstance(reference, list):
        return (isinstance(output, list) and len(reference) == len(output)
                and all(matches(r, o) for r, o in zip(reference, output)))
    return type(reference) is type(output) and reference == output


def _g_expansion_recombines(expansion: dict[str, str], poly: Poly) -> bool:
    return g_combination({int(j): Fraction(b) for j, b in expansion.items()}) == poly


def _phi_expansion_recombines(payload: dict, poly: Poly) -> bool:
    """sum exact_k m_k + residual == input, and coeffs are exact_k mod 2^M."""
    exact: dict[int, Fraction] = {}
    for step in payload["trace"]:
        for k, b in step["coefficients"].items():
            exact[int(k)] = exact.get(int(k), Fraction(0)) + Fraction(b)
    total = Poly.from_coeffs(payload["residual"])
    for k, c in exact.items():
        total = total + phi2_monomial(k) * c
    modulus = 2 ** payload["M"]
    reduced = {str(k): c.numerator * pow(c.denominator, -1, modulus) % modulus
               for k, c in exact.items()}
    return total == poly and {k: v for k, v in reduced.items() if v} == payload["coeffs"]


def identity_holds(query: Query, payload: object) -> bool:
    """Exact identities that hold for any input, independent of the reference."""
    if query.poly is None or not isinstance(payload, dict):
        return True
    head = query.args[:3]
    if head == ("expand", "--basis", "g"):
        return _g_expansion_recombines(payload, query.poly)
    if head == ("expand", "--basis", "phi"):
        return _phi_expansion_recombines(payload, query.poly)
    if query.command == "weight":
        return _g_expansion_recombines(payload["expansion"], query.poly)
    if query.command == "check-integrality":
        return payload["integral"] is True
    return True


def check_result(query: Query, exit_code: int, stdout: bytes,
                 reference: dict, golden: dict | None) -> str | None:
    """None when the invocation is correct, else the reason it failed."""
    if exit_code != reference["exit"]:
        return f"exit code {exit_code}, expected {reference['exit']}"
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "output is not JSON"
    if not matches(reference["payload"], payload):
        return "payload differs from the reference"
    if query == GOLDEN_QUERY and not matches(golden, payload):
        return "payload differs from the golden file"
    if not identity_holds(query, payload):
        return "exact identity fails"
    return None

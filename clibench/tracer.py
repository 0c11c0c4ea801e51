"""Run one coopbasis CLI invocation with its public functions wrapped in spans.

Usage: ``PYTHONPATH=src python3 clibench/tracer.py <cli args...>``

The CLI's stdout and exit code are passed through unchanged.  The last line
of stderr is ``CLIBENCH-TRACE <json>`` with ``{"sum": {...}, "max": {...}}``:
per-span calls, self and total seconds, and counts derived from arguments
and return values.  Nothing under ``src/`` is changed: every wrapper is
installed from outside, in every coopbasis namespace that bound the
original (``from .x import f`` makes one binding per importing module).
"""

from __future__ import annotations

import collections
import functools
import json
import sys
import time

from coopbasis import arith, cli, errors, filtration, margolis, phi, poly, semistable

MODULES = (arith, poly, semistable, phi, filtration, margolis, cli,
           sys.modules["coopbasis"])
TRACE_PREFIX = "CLIBENCH-TRACE "

SUMS: collections.Counter = collections.Counter()
MAXIMA: dict[str, int] = {}
_open_child_time: list[float] = []  # per open span: time covered by its children


def _bump_max(name: str, value: int) -> None:
    if value > MAXIMA.get(name, 0):
        MAXIMA[name] = value


def span(name: str, fn, derive=None):
    """Wrap ``fn``: count calls, add self and total time, then call ``derive``.

    ``derive(result, *args, **kwargs)`` computes counts from the call; its
    own time is charged to no span.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        _open_child_time.append(0.0)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            children = _open_child_time.pop()
            SUMS[f"{name}.calls"] += 1
            SUMS[f"{name}.total_s"] += elapsed
            SUMS[f"{name}.self_s"] += elapsed - children
        if derive is not None:
            derive_start = time.perf_counter()
            derive(result, *args, **kwargs)
            elapsed += time.perf_counter() - derive_start
        if _open_child_time:
            _open_child_time[-1] += elapsed
        return result

    return wrapper


def counter(name: str, fn):
    """Count calls only; the time stays with the calling span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        SUMS[f"{name}.calls"] += 1
        return fn(*args, **kwargs)

    return wrapper


def rebind(original, replacement) -> None:
    """Replace ``original`` by ``replacement`` in every module namespace that holds it."""
    for module in MODULES:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def rebind_method(cls, names: tuple[str, ...], metric: str, derive=None) -> None:
    for attr in names:
        setattr(cls, attr, span(metric, vars(cls)[attr], derive))


# ---- derived counts -----------------------------------------------------


def _coeff_bits(result) -> None:
    bits = max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in result.coefficients), default=0)
    _bump_max("poly.mul.max_coeff_bits", bits)


def _mul_counts(result, a, b) -> None:
    n_b = len(b.coefficients) if isinstance(b, poly.Poly) else 1
    SUMS["poly.mul.coeff_products"] += len(a.coefficients) * n_b
    _coeff_bits(result)


def _expand_counts(result, f) -> None:
    if not f.is_zero():
        _bump_max("semistable.expand_in_g.max_degree", int(f.degree))


def _valuation(p: int, x) -> int:
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _residue_evals(result: bool, p: int, f) -> int:
    """Unit residues evaluated: all of them when integral, else up to the first failure."""
    nonzero = [c for c in f.coefficients if c]
    e = max([0] + [-_valuation(p, c) for c in nonzero])
    if e == 0:
        return 0
    modulus = p ** e
    if result:
        return modulus - modulus // p
    scaled = [(c * modulus).numerator * pow((c * modulus).denominator, -1, modulus) % modulus
              for c in f.coefficients]
    evals = 0
    for k in range(1, modulus):
        if k % p:
            evals += 1
            if sum(c * pow(k, i, modulus) for i, c in enumerate(scaled)) % modulus:
                break
    return evals


def _residue_counts(result: bool, p: int, f, *args, **kwargs) -> None:
    SUMS["semistable.residues.evals"] += _residue_evals(result, p, f)


def traced_residues(fn):
    """Span for the residue tester that also counts over-budget calls.

    The CLI and ``phi_family`` swallow these ``ResourceLimitError``s, so this
    count is the only record of a skipped check.
    """
    inner = span("semistable.residues", fn, _residue_counts)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return inner(*args, **kwargs)
        except errors.ResourceLimitError:
            SUMS["semistable.residues.over_budget"] += 1
            raise

    return wrapper


_family_keys: set[tuple[int, int]] = set()


def _family_counts(result, p, count, **kwargs) -> None:
    if (p, count) not in _family_keys:
        _family_keys.add((p, count))
        SUMS["phi.phi_family.distinct"] += 1


def _phi_steps(result, f, precision) -> None:
    SUMS["filtration.expand_in_phi.steps"] += len(result.trace)


def _m1_counts(result, *args, **kwargs) -> None:
    size = len(result.basis)
    SUMS["margolis.enumerate_m1.basis_total"] += size
    _bump_max("margolis.enumerate_m1.basis_max", size)
    for table in (result.q0, result.q1):
        for matrix in table.values():
            SUMS["margolis.matrix_cells"] += len(matrix) * (len(matrix[0]) if matrix else 0)


# ---- installation -------------------------------------------------------


FUNCTION_SPANS = (
    (arith, "nu_p", "arith.nu_p", None),
    (semistable, "expand_in_g", "semistable.expand_in_g", _expand_counts),
    (semistable, "is_semistable_2local", "semistable.is_semistable_2local", None),
    (semistable, "g_poly", "semistable.g_poly", None),
    (phi, "phi_family", "phi.phi_family", _family_counts),
    (phi, "phi_family_oracle", "phi.phi_family_oracle", None),
    (phi, "hazewinkel_t_solutions", "phi.hazewinkel", None),
    (phi, "phi_monomial", "phi.phi_monomial", None),
    (filtration, "weight", "filtration.weight", None),
    (filtration, "verify_congruences", "filtration.verify_congruences", None),
    (filtration, "expand_in_phi", "filtration.expand_in_phi", _phi_steps),
    (margolis, "enumerate_m1", "margolis.enumerate_m1", _m1_counts),
    (margolis, "margolis_homology", "margolis.margolis_homology", None),
    (margolis, "q_square_is_zero", "margolis.q_square_is_zero", None),
    (margolis, "homologous", "margolis.homologous", None),
)

SUBCOMMANDS = {"cmd_phi": "phi", "cmd_g": "g", "cmd_expand": "expand",
               "cmd_check_integrality": "check-integrality", "cmd_weight": "weight",
               "cmd_verify": "verify", "cmd_margolis": "margolis"}


def install() -> None:
    for module, attr, metric, derive in FUNCTION_SPANS:
        original = getattr(module, attr)
        rebind(original, span(metric, original, derive))
    residues = semistable.is_semistable_plocal_residues
    rebind(residues, traced_residues(residues))
    rebind(margolis.apply_q, counter("margolis.apply_q", margolis.apply_q))
    for attr, name in SUBCOMMANDS.items():
        setattr(cli, attr, span(f"cli.{name}", getattr(cli, attr)))

    Poly = poly.Poly
    rebind_method(Poly, ("__mul__", "__rmul__"), "poly.mul", _mul_counts)
    rebind_method(Poly, ("__pow__",), "poly.pow")
    rebind_method(Poly, ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__"), "poly.add")
    rebind_method(Poly, ("to_json",), "poly.to_json")
    Poly.parse = classmethod(span("poly.parse", vars(Poly)["parse"].__func__))
    rebind_method(phi.SymbolicPoly, ("__mul__", "__rmul__"), "phi.symbolic_mul")
    rebind_method(margolis.M1Complex, ("degree_slice",), "margolis.degree_slice")


def main(argv: list[str]) -> int:
    g_cache = semistable.g_poly  # the lru_cache object itself, read before wrapping
    before = g_cache.cache_info()
    install()
    code = 2
    try:
        code = span("cli.main", cli.main)(argv)
    finally:
        sys.stdout.flush()
        after = g_cache.cache_info()
        SUMS["semistable.g_poly.hits"] += after.hits - before.hits
        SUMS["semistable.g_poly.misses"] += after.misses - before.misses
        print(TRACE_PREFIX + json.dumps({"sum": SUMS, "max": MAXIMA}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

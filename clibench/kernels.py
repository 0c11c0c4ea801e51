"""Time the coopbasis kernels cold and warm, in one untraced interpreter.

Usage: ``PYTHONPATH=src python3 clibench/kernels.py``; prints one JSON object
``{"kernel.<name>.cold_s": ..., "kernel.<name>.warm_s": ...}``.

Cold means right after ``cache_clear()`` on every ``lru_cache`` in the
package; warm means the same call again straight after, with the caches the
cold call filled.  Each is the median of ``REPEATS`` timings.  Inputs are
built before any timing.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import coopbasis
from coopbasis import arith, filtration, margolis, phi, poly, semistable

REPEATS = 3


def clear_caches() -> None:
    """Empty every lru_cache of the package, found from outside."""
    for module in (arith, poly, semistable, phi, filtration, margolis):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def kernels() -> dict[str, object]:
    """Name -> zero-argument call; sizes keep the whole set near ten seconds."""
    family2 = coopbasis.phi_family(2, 6, verify_integrality=False)
    family3 = coopbasis.phi_family(3, 1, verify_integrality=False)
    m45 = coopbasis.phi_monomial(2, 45, family2).poly
    residue_input = family3.phi(1) ** 11
    phi1_power = family2.phi(1) ** 48
    complex40 = coopbasis.enumerate_m1(2, 40)
    w_plus_1 = coopbasis.Poly((1, 1))
    return {
        "poly_pow": lambda: w_plus_1 ** 600,
        "expand_in_g": lambda: coopbasis.expand_in_g(family2.phi(6)),
        "is_semistable_2local": lambda: coopbasis.is_semistable_2local(m45),
        "residues": lambda: coopbasis.is_semistable_plocal_residues(3, residue_input,
                                                                    budget=10 ** 7),
        "phi_family": lambda: coopbasis.phi_family(2, 6),
        "hazewinkel_oracle": lambda: coopbasis.phi_family_oracle(2, 7),
        "weight": lambda: coopbasis.weight(phi1_power),
        "enumerate_m1": lambda: coopbasis.enumerate_m1(2, 40),
        "margolis_homology": lambda: coopbasis.margolis_homology(complex40, 1),
    }


def _timed(call) -> float:
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def main() -> int:
    results: dict[str, float] = {}
    for name, call in kernels().items():
        cold, warm = [], []
        for _ in range(REPEATS):
            clear_caches()
            cold.append(_timed(call))
            warm.append(_timed(call))
        results[f"kernel.{name}.cold_s"] = statistics.median(cold)
        results[f"kernel.{name}.warm_s"] = statistics.median(warm)
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())

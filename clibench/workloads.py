"""The four benchmark workloads, as lists of pinned coopbasis CLI invocations.

Every invocation passes ``--budget`` and ``--format json`` explicitly, so a
later change of a CLI default cannot change what a workload measures.  At
odd p, ``--max-n`` stays 1 and ``--max-k`` sets the family size.

``verify-p2``, ``margolis-p2`` and ``odd-prime`` run the same invocations for
every seed.  ``query-mix`` draws each pass from a fixed pool of small queries
(``query_pool``), whose reference outputs were recorded once; the seed picks
one variant per slot and the order of the pass.  Each query kind the
benchmark names gets one slot, so no kind is weighted above another.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from fractions import Fraction

from exact import Poly, g_combination

BUDGET = "10000000"
POOL_SEED = 1609
VARIANTS_PER_SLOT = 6
PHI_PRECISIONS = range(8, 25)


@dataclasses.dataclass(frozen=True)
class Query:
    """One CLI invocation; ``poly`` is the exact input polynomial, if it takes one."""

    args: tuple[str, ...]
    poly: Poly | None = None

    @property
    def key(self) -> str:
        return json.dumps(self.args)

    @property
    def command(self) -> str:
        return self.args[0]


def _pinned(*args: str) -> tuple[str, ...]:
    return (*args, "--budget", BUDGET, "--format", "json")


WHY = {
    "verify-p2": "p = 2 verify: congruence suite, phi recursion and g-expansion do nearly all "
                 "the work; Margolis only to k = 12",
    "margolis-p2": "p = 2 verify with almost no congruence work: the whole p = 2 Margolis "
                   "API up to k = 36",
    "odd-prime": "dense Poly powers and the residue tester at p = 3, then Margolis with "
                 "taus at p = 3; bypasses every p = 2 path",
    "query-mix": "seeded stream of small queries, one process each: start-up, import, cold "
                 "caches, parser and JSON output dominate",
}
WORKLOADS = tuple(WHY)

FIXED = {
    "verify-p2": (Query(_pinned("verify", "--prime", "2", "--max-n", "48", "--max-k", "12")),),
    "margolis-p2": (Query(_pinned("verify", "--prime", "2", "--max-n", "1", "--max-k", "36")),),
    "odd-prime": (Query(_pinned("phi", "--prime", "3", "--n", "6")),
                  Query(_pinned("verify", "--prime", "3", "--max-n", "1", "--max-k", "60"))),
}

GOLDEN_QUERY = Query(_pinned("expand", "--basis", "phi", "--precision", "10", "((w-1)/2)^2"),
                     Poly.from_coeffs([Fraction(1, 4), Fraction(-1, 2), Fraction(1, 4)]))
GOLDEN_FILE = "tests/data/expand_phi1_sq_m10.json"


def _g_term_text(coeff: int, j: int) -> str:
    """``coeff * g_j`` in the CLI's expression grammar, without a leading sign."""
    factors = [str(abs(coeff))] + [f"(w-{2 * i - 1})" for i in range(1, j + 1)]
    denominator = 2 ** j * math.factorial(j)
    text = "*".join(factors)
    return f"{text}/{denominator}" if denominator > 1 else text


def _combination_text(coeffs: dict[int, int]) -> str:
    parts = []
    for j, c in sorted(coeffs.items(), reverse=True):
        sign = "-" if c < 0 else "+"
        parts.append(f"{sign} {_g_term_text(c, j)}")
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


def _random_combination(rng: random.Random, top: int) -> dict[int, int]:
    """Nonzero integer coefficients on g_0..g_top, g_top always present."""
    coeffs = {j: rng.randint(-9, 9) for j in range(top)}
    coeffs[top] = rng.choice([c for c in range(-9, 10) if c])
    return {j: c for j, c in coeffs.items() if c}


def _g_query(rng: random.Random, *head: str, top: int) -> Query:
    coeffs = _random_combination(rng, top)
    return Query(_pinned(*head, _combination_text(coeffs)), g_combination(coeffs))


def _odd_integral_query(rng: random.Random, p: int) -> Query:
    """A p-integral-valued input whose residue test does real work.

    ``sum c_j p^nu_p(j!) g_j`` has p-integral coefficients, and adding
    ``c ((w^(p-1) - 1)/p)^m`` (integral on p-adic units by Fermat) forces the
    tester to exhaust the units modulo p^m.
    """
    coeffs = _random_combination(rng, rng.randint(2, 5))
    scaled = {}
    for j, c in coeffs.items():
        v = 0
        while math.factorial(j) % p ** (v + 1) == 0:
            v += 1
        scaled[j] = c * p ** v
    m = rng.randint(1, 3)
    c = rng.choice([1, 2, -1, -2])
    phi1 = (Poly.from_coeffs([-1] + [0] * (p - 2) + [1]) * Fraction(1, p)) ** m
    text = _combination_text(scaled)
    power_text = f"{abs(c)}*((w^{p - 1}-1)/{p})^{m}"
    text += f" {'-' if c < 0 else '+'} {power_text}"
    return Query(_pinned("check-integrality", "--prime", str(p), text),
                 g_combination(scaled) + phi1 * c)


def query_pool() -> dict[str, tuple[Query, ...]]:
    """Slot name -> variants.  Fixed for all seeds, so references can be recorded.

    There is one slot per query kind.  ``expand-phi`` has one variant per
    precision 8..24 and ``check-integrality`` the same number of variants at
    each of p = 2, 3, 5, so a uniform draw covers the whole range.
    """
    rng = random.Random(POOL_SEED)
    n = VARIANTS_PER_SLOT
    return {
        "expand-g": tuple(_g_query(rng, "expand", "--basis", "g", top=rng.randint(3, 10))
                          for _ in range(n)),
        "expand-phi": tuple(
            _g_query(rng, "expand", "--basis", "phi", "--precision", str(m),
                     top=rng.randint(1, 3)) for m in PHI_PRECISIONS),
        "golden": (GOLDEN_QUERY,),
        "weight": tuple(_g_query(rng, "weight", top=rng.randint(3, 10)) for _ in range(n)),
        "check-integrality": (
            tuple(_g_query(rng, "check-integrality", "--prime", "2", top=rng.randint(3, 10))
                  for _ in range(n))
            + tuple(_odd_integral_query(rng, 3) for _ in range(n))
            + tuple(_odd_integral_query(rng, 5) for _ in range(n))),
        "g": tuple(Query(_pinned("g", "--n", str(4 + 4 * i))) for i in range(n)),
        "phi": tuple(Query(_pinned("phi", "--prime", "2", "--n", str(k))) for k in (2, 3, 4, 5)),
        "margolis": tuple(Query(_pinned("margolis", "--prime", "2", "--k", str(k)))
                          for k in (2, 4, 7, 10, 13, 16)),
    }


# One query-mix pass: one query of each kind, plus the golden-file query.
PASS_SLOTS = ("expand-g", "expand-phi", "golden", "weight", "check-integrality", "g", "phi",
              "margolis")


def pass_queries(workload: str, seed: int, pass_index: int,
                 pool: dict[str, tuple[Query, ...]]) -> tuple[Query, ...]:
    """The invocations of one pass; the same (seed, pass_index) gives the same pass."""
    if workload != "query-mix":
        return FIXED[workload]
    rng = random.Random(f"{seed}:{pass_index}")
    queries = [rng.choice(pool[slot]) for slot in PASS_SLOTS]
    rng.shuffle(queries)
    return tuple(queries)


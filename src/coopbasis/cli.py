"""Command-line surface: exact tables for every family, test, and congruence.

Subcommands: phi, g, expand, check-integrality, weight, verify, margolis.
All rationals are emitted as "num/den" strings, never floats.  Exit codes:
0 success, 1 mathematical failure, 2 usage or resource error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import TYPE_CHECKING, Any, Callable, NoReturn

from .arith import base_p_digits, require_prime
from .errors import (DEFAULT_RESIDUE_BUDGET, NotSemistableError, PolyParseError,
                     ResourceLimitError, WeightMonotonicityError)

if TYPE_CHECKING:
    from .filtration import CongruenceCheck
    from .poly import Poly

# Each subcommand imports the modules it runs inside its own function, so an
# invocation loads (and, without cached bytecode, compiles) only those: start-up
# is most of the time of a small query.

EXIT_OK = 0
EXIT_MATH_FAILURE = 1
EXIT_USAGE = 2

G_EXPANSION_MAX_DEGREE = 1000  # expand_in_g costs about d^3
CSV_COMMANDS = ("phi", "g", "verify", "margolis")  # the subcommands with a CSV table


def _g_expandable(f: Poly) -> Poly:
    if f.degree > G_EXPANSION_MAX_DEGREE:
        raise ResourceLimitError(
            f"input has degree {f.degree}, over the g-expansion cap {G_EXPANSION_MAX_DEGREE}",
            required=f.degree, budget=G_EXPANSION_MAX_DEGREE)
    return f


def _parse_poly_arg(text: str, g_expansion: bool = False) -> Poly:
    """The polynomial argument; for a g-expansion, one over G_EXPANSION_MAX_DEGREE is refused,
    by the parser before it builds the power or product that exceeds the cap."""
    from .poly import DEFAULT_MAX_DEGREE, Poly, _excerpt, _over_digit_limit

    text = text.strip()
    if text.startswith("["):
        # no list that holds a longer run of digits parses: json and Fraction would refuse it
        # with the interpreter's own message, so it is refused here with the parser's
        longest = max(map(len, re.findall(r"\d+", text)), default=0)
        if longest > sys.get_int_max_str_digits():
            raise PolyParseError("bad coefficient list: "
                                 + _over_digit_limit(longest, repr(_excerpt(text))))
        try:
            f = Poly.from_json(json.loads(text))
        except (json.JSONDecodeError, ValueError, TypeError, ZeroDivisionError) as exc:
            raise PolyParseError(f"bad coefficient list: {_excerpt(str(exc))}") from exc
        return _g_expandable(f) if g_expansion else f
    return Poly.parse(text, max_degree=G_EXPANSION_MAX_DEGREE if g_expansion
                      else DEFAULT_MAX_DEGREE)


def _emit(args: argparse.Namespace, **renderers: Callable[[], Any]) -> None:
    """Write the rendering ``args.format`` names, and build no other: ``json`` returns the
    payload, ``pretty`` the lines and ``csv`` the rows.  Output ends in one newline."""
    rendered = renderers[args.format]()
    if args.format == "json":
        text = json.dumps(rendered, indent=2)
    elif args.format == "csv":
        import csv
        import io

        buffer = io.StringIO()
        csv.writer(buffer).writerows(rendered)
        text = buffer.getvalue()
    else:
        text = "\n".join(rendered)
    text = text if text.endswith("\n") else text + "\n"
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        handle = open(args.out, "w", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write {args.out}: {exc.strerror}") from exc
    with handle:
        handle.write(text)


# ---- subcommands ---------------------------------------------------------


def cmd_phi(args: argparse.Namespace) -> int:
    from .phi import phi_family

    family = phi_family(args.prime, args.n, residue_budget=args.budget)
    rows = list(zip(range(1, len(family) + 1), family.af, family.polys))
    for n in family.over_budget:
        print(f"note: phi_{n} not integrality-tested: residue test over budget {args.budget}",
              file=sys.stderr)
    _emit(args,
          json=lambda: {"prime": args.prime, "family": [
              {"n": n, "af": af, "degree": f.degree, "coefficients": f.to_json(), "text": str(f)}
              for n, af, f in rows]},
          pretty=lambda: [f"phi_{n}  AF={af}  {f}" for n, af, f in rows],
          csv=lambda: [["n", "af", "degree", "poly"]] + [[n, af, f.degree, str(f)]
                                                         for n, af, f in rows])
    return EXIT_OK


def cmd_g(args: argparse.Namespace) -> int:
    from .poly import DEFAULT_MAX_DEGREE
    from .semistable import g_poly

    if not 0 <= args.n <= DEFAULT_MAX_DEGREE:  # g_n has degree n
        raise ValueError(f"--n must be in 0..{DEFAULT_MAX_DEGREE}, got {args.n}")
    family = [g_poly(n) for n in range(args.n + 1)]
    _emit(args,
          json=lambda: {"family": [{"n": n, "degree": n, "coefficients": g.to_json(),
                                    "text": str(g)} for n, g in enumerate(family)]},
          pretty=lambda: [f"g_{n}  {g}" for n, g in enumerate(family)],
          csv=lambda: [["n", "degree", "poly"]] + [[n, n, str(g)] for n, g in enumerate(family)])
    return EXIT_OK


def cmd_expand(args: argparse.Namespace) -> int:
    f = _parse_poly_arg(args.poly, g_expansion=True)
    if args.basis == "g":
        from .semistable import expand_in_g

        coordinates = expand_in_g(f)
        _emit(args, json=coordinates.to_json,
              pretty=lambda: [f"g_{j}: {c}" for j, c in coordinates.items()] or ["0"])
        return EXIT_OK
    from .filtration import expand_in_phi

    expansion = expand_in_phi(f, args.precision)
    weight = "+inf" if expansion.residual_weight is None else expansion.residual_weight
    _emit(args, json=expansion.to_json,
          pretty=lambda: [f"precision 2^{expansion.precision}",
                          *(f"m_{k}: {v}" for k, v in sorted(expansion.coeffs.items())),
                          f"residual weight {weight}"])
    return EXIT_OK


def cmd_check_integrality(args: argparse.Namespace) -> int:
    from .semistable import is_semistable_2local, is_semistable_plocal_residues

    f = _parse_poly_arg(args.poly, g_expansion=args.prime == 2)
    method = "g-expansion" if args.prime == 2 else "residues"
    integral = (is_semistable_2local(f) if args.prime == 2
                else is_semistable_plocal_residues(args.prime, f, budget=args.budget))
    _emit(args, json=lambda: {"prime": args.prime, "method": method, "integral": integral},
          pretty=lambda: [f"integral at p={args.prime}: {integral} ({method})"])
    return EXIT_OK if integral else EXIT_MATH_FAILURE


def cmd_weight(args: argparse.Namespace) -> int:
    f = _parse_poly_arg(args.poly, g_expansion=True)
    from .filtration import weight

    report = weight(f)
    _emit(args,
          json=lambda: {"weight": report.weight, "argmin": list(report.argmin),
                        "expansion": report.expansion.to_json()},
          pretty=lambda: [f"weight {'+inf' if report.weight is None else report.weight}  "
                          f"argmin {list(report.argmin)}"])
    return EXIT_OK


def cmd_margolis(args: argparse.Namespace) -> int:
    from .margolis import complex_to_json, enumerate_m1

    complex_ = enumerate_m1(args.prime, args.k, budget=args.budget)

    def pretty() -> list[str]:
        payload = complex_to_json(complex_)
        lines = [f"p={args.prime} k={args.k}  {len(complex_.basis)} monomials",
                 "basis: " + ", ".join(payload["basis"])]
        for name in ("Q0", "Q1"):
            hom = payload["homology"][name]
            gens = "; ".join(g for c in hom["classes"] for g in c["generators"])
            lines.append(f"{name} homology dim {hom['dimension']}: {gens}")
        return lines + [f"cover rank {payload['cover_rank']}"]

    _emit(args, json=lambda: complex_to_json(complex_), pretty=pretty,
          csv=lambda: [["monomial", "degree", "weight"]] + [[str(m), m.degree(), m.weight()]
                                                            for m in complex_.basis])
    return EXIT_OK


def _verify_margolis(p: int, max_k: int, budget: int) -> tuple[bool, dict]:
    from .margolis import (cycle_to_string, enumerate_m1, expected_q0_generator,
                           expected_q1_generator, homologous, is_cycle, margolis_homology,
                           q_square_is_zero)

    failures = []
    for k in range(max_k + 1):
        complex_ = enumerate_m1(p, k, budget=budget)
        for i in (0, 1):
            if not q_square_is_zero(complex_, i):  # no homology: its ranks assume Q_i^2 = 0
                failures.append(f"Q{i}^2 != 0 at k={k}")
                continue
            entries = margolis_homology(complex_, i)
            total = sum(e.dimension for e in entries)
            if total != 1:
                failures.append(f"Q{i} homology of M1({k}) has dimension {total}")
                continue
            if p == 2:
                expected = (expected_q0_generator if i == 0 else expected_q1_generator)(k)
                cycle = entries[0].generators[0]
                if not (is_cycle(i, ((expected, 1),))
                        and homologous(complex_, i, cycle, ((expected, 1),))):
                    failures.append(
                        f"Q{i} generator of M1({k}) is {cycle_to_string(cycle)}, "
                        f"not the class of {expected}")
    return not failures, {"max_k": max_k, "failures": failures}


def cmd_verify(args: argparse.Namespace) -> int:
    from .filtration import checks_to_json, verify_congruences
    from .phi import phi_family, phi_family_oracle, phi_monomials
    from .semistable import integrality_verdicts

    p, budget = args.prime, args.budget
    checks: list[dict] = []

    family_size = max(1, len(base_p_digits(p, args.max_n)), len(base_p_digits(p, args.max_k)))
    family = phi_family(p, family_size, verify_integrality=False)
    oracle = phi_family_oracle(p, family_size)
    checks.append({
        "name": "oracle_equivalence",
        "pass": family.polys == oracle.polys,
        "detail": {"size": family_size},
    })

    monomials = phi_monomials(p, args.max_k + 1, family)
    phi_verdicts = integrality_verdicts(p, family.polys, budget)
    k_verdicts = integrality_verdicts(p, [m.poly for m in monomials], budget)
    integrality = {"max_k": args.max_k,
                   "over_budget_phi": [n for n, v in enumerate(phi_verdicts, start=1) if v is None],
                   "over_budget_k": [k for k, v in enumerate(k_verdicts) if v is None]}
    checks.append({"name": "integrality", "pass": False not in phi_verdicts + k_verdicts,
                   "detail": integrality})

    congruence_checks: list[CongruenceCheck] = []
    if p == 2:
        congruence_checks = verify_congruences(args.max_n, family)
        checks.append({
            "name": "congruence_suite",
            "pass": all(c.passed for c in congruence_checks),
            "detail": {"max_n": args.max_n,
                       "failures": [f"{c.claim}@{c.n}" for c in congruence_checks if not c.passed]},
        })

    margolis_ok, margolis_detail = _verify_margolis(p, args.max_k, budget)
    checks.append({"name": "margolis", "pass": margolis_ok, "detail": margolis_detail})

    all_pass = all(c["pass"] for c in checks)

    def payload() -> dict:
        body = {"prime": p, "pass": all_pass, "checks": checks}
        if p == 2:
            body["congruences"] = checks_to_json(congruence_checks)
        return body

    _emit(args, json=payload,
          pretty=lambda: [*(f"[{'PASS' if c['pass'] else 'FAIL'}] {c['name']}" for c in checks),
                          f"overall: {'PASS' if all_pass else 'FAIL'}"],
          csv=lambda: [["check", "pass"]] + [[c["name"], c["pass"]] for c in checks])
    return EXIT_OK if all_pass else EXIT_MATH_FAILURE


# ---- parser and dispatch --------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:
        if message.endswith("required: poly"):  # argparse takes "-6*w^2" for an option
            message += " (a polynomial that starts with '-' goes last, after '--')"
        super().error(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="coopbasis",
        description="Exact workbench for the bases of p-local K-theory cooperations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, prime_default: int | None = 2) -> None:
        if prime_default is not None:
            p.add_argument("--prime", type=int, default=prime_default,
                           help="prime of localization (default %(default)s)")
        p.add_argument("--budget", type=int, default=DEFAULT_RESIDUE_BUDGET,
                       help="residue/enumeration cap (default %(default)s)")
        p.add_argument("--format", choices=("json", "csv", "pretty"), default="pretty")
        p.add_argument("--out", default=None, help="write output to FILE instead of stdout")

    p_phi = sub.add_parser("phi", help="emit phi_1..phi_N with Adams filtrations")
    p_phi.add_argument("--n", type=int, required=True)
    common(p_phi)
    p_phi.set_defaults(handler=cmd_phi)

    p_g = sub.add_parser("g", help="emit the semistable basis g_0..g_N")
    p_g.add_argument("--n", type=int, required=True)
    common(p_g, prime_default=None)
    p_g.set_defaults(handler=cmd_g)

    p_expand = sub.add_parser("expand", help="expand a polynomial in the g- or phi-basis")
    p_expand.add_argument("--basis", choices=("g", "phi"), required=True)
    p_expand.add_argument("--precision", type=int, default=8,
                          help="2-adic precision for the phi-expansion")
    p_expand.add_argument("poly", help="polynomial in w, or a JSON coefficient list")
    common(p_expand, prime_default=None)
    p_expand.set_defaults(handler=cmd_expand)

    p_check = sub.add_parser("check-integrality",
                             help="decide p-local semistable integrality")
    p_check.add_argument("poly")
    common(p_check)
    p_check.set_defaults(handler=cmd_check_integrality)

    p_weight = sub.add_parser("weight", help="g-expansion weight report (p = 2)")
    p_weight.add_argument("poly")
    common(p_weight, prime_default=None)
    p_weight.set_defaults(handler=cmd_weight)

    p_verify = sub.add_parser("verify", help="run the full verification suite")
    p_verify.add_argument("--max-n", type=int, default=16, dest="max_n",
                          help="index bound at every prime: congruence suite to n at p = 2, "
                               "phi_1..phi_D for D base-p digits of max(n, max-k)")
    p_verify.add_argument("--max-k", type=int, default=12, dest="max_k")
    common(p_verify)
    p_verify.set_defaults(handler=cmd_verify)

    p_margolis = sub.add_parser("margolis", help="weight piece with Margolis homology")
    p_margolis.add_argument("--k", type=int, required=True)
    common(p_margolis)
    p_margolis.set_defaults(handler=cmd_margolis)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:  # the shared flags are checked here, so no subcommand starts work on a bad one
        if hasattr(args, "prime"):
            require_prime(args.prime)
        if args.budget <= 0:
            raise ValueError(f"budget must be positive, got {args.budget}")
        if args.format == "csv" and args.command not in CSV_COMMANDS:
            raise ValueError("csv format is not available for this command")
        parent = os.path.dirname(args.out or "") or "."
        if args.out and (os.path.isdir(args.out) or not os.path.isdir(parent)):
            reason = ("Is a directory" if os.path.isdir(args.out) else "Not a directory"
                      if os.path.exists(parent) else "No such file or directory")
            raise ValueError(f"cannot write {args.out}: {reason}")
        return args.handler(args)
    except NotSemistableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for j, b, v in exc.coordinates:
            print(f"  g_{j}: coefficient {b} has nu_2 = {v}", file=sys.stderr)
        return EXIT_MATH_FAILURE
    except WeightMonotonicityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH_FAILURE
    except (ResourceLimitError, ValueError) as exc:  # PolyParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
